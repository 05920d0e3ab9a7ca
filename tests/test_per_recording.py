"""`run` and the staged subcommands hold one recording's windows at a
time in each process (pipeline.compute): their results equal the whole-stack steps' in
manifest order, the split of a run's tables by recording inverts their
merge, memory is bounded by one recording, and an error comes from the
first failing recording in manifest order."""

import json
import tracemalloc

import numpy as np
import pytest

from gazeconcepts import pipeline
from gazeconcepts.cli import main
from gazeconcepts.detect import EVENT_ARRAYS
from gazeconcepts.io import load_manifest
from gazeconcepts.pipeline import (
    STEPS,
    RunConfig,
    detect_step,
    dissect_step,
    merge_recordings,
    run,
    split_recording,
)
from gazeconcepts.synth import CorpusSpec, write_demo_corpus

from reference import whole_stack, windowed_manifest

W250 = ["--window-len", "250", "--missing-max-frac", "1.0"]
NOISE = "need at least 2 valid samples for noise estimate"


def _probe_corpus(root, blank=None, bad_timestamp=None):
    """Two 6 s recordings in windows of 250, with x and y blanked in the
    first 300 samples of recording `blank`, and line 5's timestamp of
    recording `bad_timestamp` set to x3."""
    manifest = write_demo_corpus(root, CorpusSpec(seed=5, n_recordings=2, duration_s=6,
                                                  window_len=250))
    for rec_id, edit in ((blank, "blank"), (bad_timestamp, "timestamp")):
        if rec_id is None:
            continue
        path = root / "recordings" / f"{rec_id}.csv"
        lines = path.read_text().splitlines(keepends=True)
        if edit == "blank":
            lines[1:301] = [line.split(",")[0] + ",,\n" for line in lines[1:301]]
        else:
            lines[4] = "x3," + lines[4].split(",", 1)[1]
        path.write_text("".join(lines))
    return str(manifest)


def test_noise_estimate_error_names_the_window(tmp_path, capsys):
    manifest = _probe_corpus(tmp_path / "corpus", blank="rec01")
    assert main(["run", "--manifest", manifest, "--out", str(tmp_path / "run"), *W250]) == 2
    assert capsys.readouterr().err == f"error: [stage detect] rec01-w0000: {NOISE}\n"
    staged = ["--out", str(tmp_path / "staged"), *W250]
    assert main(["preprocess", "--manifest", manifest, *staged]) == 0
    capsys.readouterr()
    assert main(["detect", *staged]) == 2
    assert capsys.readouterr().err == f"error: [stage detect] rec01-w0000: {NOISE}\n"


def test_run_reports_the_first_failing_recording_in_manifest_order(tmp_path, capsys):
    """rec00 fails detection and rec01 does not parse: rec00 is loaded,
    detected and failed before rec01 is read."""
    manifest = _probe_corpus(tmp_path / "corpus", blank="rec00", bad_timestamp="rec01")
    assert main(["run", "--manifest", manifest, "--out", str(tmp_path / "run"), *W250]) == 2
    assert capsys.readouterr().err == f"error: [stage detect] rec00-w0000: {NOISE}\n"
    # the manifest's order of recordings decides, not the files' names
    doc = json.loads((tmp_path / "corpus" / "manifest.json").read_text())
    doc["entries"].reverse()
    (tmp_path / "corpus" / "reversed.json").write_text(json.dumps(doc))
    reversed_manifest = str(tmp_path / "corpus" / "reversed.json")
    assert main(["run", "--manifest", reversed_manifest, "--out", str(tmp_path / "r"),
                 *W250]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [stage preprocess] ") and err.endswith(
        "rec01.csv: line 5: timestamp 'x3' is not an integer\n")


def _interleaved(manifest_path, reorder=lambda entries: entries):
    """A manifest over the same corpus that takes its recordings' windows
    in turn, the entries then reordered by `reorder`."""
    doc = json.loads(manifest_path.read_text())
    by_recording = {}
    for entry in doc["entries"]:
        by_recording.setdefault(entry["recording"], []).append(entry)
    doc["entries"] = reorder([e for turn in zip(*by_recording.values()) for e in turn])
    path = manifest_path.with_name("interleaved.json")
    path.write_text(json.dumps(doc))
    return path


def _assert_same_tables(events, subevents, want_events, want_subevents):
    """Equal events and sub-events: windows, every column, parents."""
    for got, expected in ((events, want_events), (subevents.events, want_subevents.events)):
        assert got.window_ids == expected.window_ids
        for name in EVENT_ARRAYS:
            np.testing.assert_array_equal(getattr(got, name), getattr(expected, name), name)
    for name in ("parent", "phase", "onset", "offset"):
        np.testing.assert_array_equal(getattr(subevents, name), getattr(want_subevents, name),
                                      name)


def test_interleaved_manifest_gives_the_whole_stack_tables(tmp_path):
    manifest = write_demo_corpus(tmp_path / "corpus", CorpusSpec(
        seed=5, n_recordings=2, duration_s=6, window_len=250))
    interleaved = _interleaved(manifest)
    recordings = [e["recording"] for e in json.loads(interleaved.read_text())["entries"]]
    assert recordings[:4] == ["recordings/rec00.csv", "recordings/rec01.csv"] * 2
    cfg = RunConfig(window_len=250)
    outs = tmp_path / "ordered", tmp_path / "interleaved"
    run(load_manifest(manifest), cfg, outs[0])
    m = load_manifest(interleaved)
    result = run(m, cfg, outs[1])
    written = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*") if p.is_file())
    assert written == sorted(p.relative_to(outs[1]) for p in outs[1].rglob("*") if p.is_file())
    for rel in written:
        assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes(), rel

    # every step on the stack of every window, in manifest order
    ids = [e.window_id for e in m.entries]
    want = {"windows": whole_stack(windowed_manifest(m, cfg), ids)[0],
            "rows": np.arange(len(ids)), "params": cfg}
    for stage in ("detect", "dissect", "influence"):
        for step in STEPS[stage][:2]:
            if step is not None:
                want.update(step(want, cfg, m))
    assert want["windows"].window_ids == ids == result.events.window_ids
    _assert_same_tables(result.events, result.subevents, want["events"], want["subevents"])
    np.testing.assert_array_equal(result.topk, want["topk"])
    assert result.influence.window_ids == ids
    np.testing.assert_array_equal(result.influence.sizes, want["influence"].sizes)
    np.testing.assert_array_equal(result.influence.intersections,
                                  want["influence"].intersections)
    assert result.corpus_results == want["corpus_results"]


@pytest.fixture(scope="module")
def run_peak(tmp_path_factory):
    """The tracemalloc peak of `run` on n 20 s recordings in windows of 250."""
    root = tmp_path_factory.mktemp("peak")

    def peak(n):
        manifest = write_demo_corpus(root / str(n), CorpusSpec(
            seed=5, n_recordings=n, duration_s=20, window_len=250))
        m, cfg = load_manifest(manifest), RunConfig(window_len=250)
        run(m, cfg, root / f"warm{n}")  # caches and lazy imports are not counted
        tracemalloc.start()
        try:
            run(m, cfg, root / f"out{n}")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak


def test_run_memory_is_bounded_by_one_recording(run_peak):
    one, four = run_peak(1), run_peak(4)
    assert four <= 1.6 * one, (one, four)


def test_merging_the_splits_of_runs_tables_gives_them_back(tmp_path):
    """split_recording gives each recording's events and sub-events as
    the steps give them on its windows alone, and merge_recordings puts
    the splits back together exactly."""
    manifest = write_demo_corpus(tmp_path / "corpus", CorpusSpec(
        seed=5, n_recordings=2, duration_s=6, window_len=250))
    m = load_manifest(_interleaved(manifest))
    cfg = RunConfig(window_len=250)
    result = run(m, cfg, tmp_path / "out")
    parts = []
    for recording in windowed_manifest(m, cfg):
        part = {"rows": recording.rows, **split_recording(vars(result), recording.rows)}
        want = {"windows": recording.windows}
        want.update(detect_step(want, cfg, m))
        want.update(dissect_step(want, cfg, m))
        _assert_same_tables(part["events"], part["subevents"], want["events"],
                            want["subevents"])
        parts.append(part)
    assert len(parts) == 2 and all(len(p["subevents"]) for p in parts)
    merged = merge_recordings(parts, [e.window_id for e in m.entries])
    assert sorted(merged) == ["events", "subevents"]
    _assert_same_tables(merged["events"], merged["subevents"], result.events, result.subevents)


STAGES = ("preprocess", "detect", "dissect", "influence", "bin", "report")


def _staged_chain(manifest, out, flags, stages=STAGES):
    for stage in stages:
        assert main([stage, "--manifest", str(manifest), "--out", str(out), *flags]) == 0, stage


def test_staged_chain_equals_run_on_an_interleaved_reversed_partial_manifest(tmp_path):
    manifest = write_demo_corpus(tmp_path / "corpus", CorpusSpec(
        seed=5, n_recordings=3, duration_s=6, window_len=250))
    shuffled = _interleaved(manifest, lambda entries: [
        e for i, e in enumerate(reversed(entries)) if i % 4 != 1])
    entries = json.loads(shuffled.read_text())["entries"]
    assert [e["recording"][-9:] for e in entries[:4]] == ["rec02.csv", "rec00.csv",
                                                          "rec02.csv", "rec01.csv"]
    assert len(entries) == 54 and len({e["recording"] for e in entries}) == 3
    run_out, staged = tmp_path / "run", tmp_path / "staged"
    assert main(["run", "--manifest", str(shuffled), "--out", str(run_out), *W250]) == 0
    _staged_chain(shuffled, staged, W250)
    written = sorted(p.relative_to(run_out) for p in run_out.rglob("*") if p.is_file())
    assert len(written) > 10
    for rel in written:
        if rel.name != "run_log.json":
            assert (staged / rel).read_bytes() == (run_out / rel).read_bytes(), rel


@pytest.fixture(scope="module")
def staged_peaks(tmp_path_factory):
    """The tracemalloc peak of each staged stage after preprocess but
    report on n 20 s recordings in windows of 250, on one usable CPU, so
    that every recording is windowed in this process and traced."""
    root = tmp_path_factory.mktemp("staged_peak")

    def peaks(n):
        manifest = write_demo_corpus(root / str(n), CorpusSpec(
            seed=5, n_recordings=n, duration_s=20, window_len=250))
        out = root / f"out{n}"
        got = {}
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pipeline, "usable_cpus", lambda: 1)
            _staged_chain(manifest, out, W250)  # caches and lazy imports are not counted
            for stage in STAGES[1:-1]:
                tracemalloc.start()
                try:
                    _staged_chain(manifest, out, W250, [stage])
                    got[stage] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
        return got

    return peaks


def test_staged_memory_is_bounded_by_one_recording(staged_peaks):
    """report is left out: it reads influence.csv, a row per window."""
    one, four = staged_peaks(1), staged_peaks(4)
    for stage in one:
        assert four[stage] <= 2.5 * one[stage], (stage, one[stage], four[stage])
