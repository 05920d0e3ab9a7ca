import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gazeconcepts.errors import AlignmentError, DataError, DegenerateDataError
from gazeconcepts.io import (
    AttributionMap,
    GazeRecording,
    load_manifest,
    write_attribution,
    write_gaze_csv,
)
from gazeconcepts.pipeline import (
    RunConfig,
    normalized_windows,
    preprocess_manifest,
    run,
)
from gazeconcepts.preprocess import SavGolParams
from gazeconcepts.synth import (
    CorpusSpec,
    PlannedFixation,
    ScanpathSpec,
    gen_proxy_attributions,
    gen_scanpath,
    positional_noise_sigma,
    random_plan,
    write_demo_corpus,
)

import gazeconcepts
from gazeconcepts import io as gio
from gazeconcepts import pipeline

from conftest import gappy_corpus, pipeline_windows
from reference import whole_stack, windowed_manifest


def _write_manifest(path, entries, base=""):
    doc = {"entries": [
        {"recording": r, "attribution": a, "window_id": w} for r, a, w in entries
    ]}
    path.write_text(json.dumps(doc))
    return load_manifest(path)


def _corpus_from_recording(tmp_path, rec, attr_mode="speed"):
    write_gaze_csv(rec, tmp_path / f"{rec.recording_id}.csv")
    windows, _ = pipeline_windows(rec)
    entries = []
    for row, window_id in enumerate(windows.window_ids):
        attr = gen_proxy_attributions(windows, row, attr_mode, seed=3)
        write_attribution(attr, tmp_path / f"{window_id}.csv")
        entries.append((f"{rec.recording_id}.csv", f"{window_id}.csv", window_id))
    return _write_manifest(tmp_path / "m.json", entries)


def _stacked(manifest, cfg=RunConfig()):
    """The recordings' windows, stacked in manifest order."""
    return whole_stack(windowed_manifest(manifest, cfg),
                       [e.window_id for e in manifest.entries])[0]


def test_binocular_recording_uses_right_eye(tmp_path):
    plan = random_plan(2, 3.0, noise_sigma_deg=0.002)
    mono, _ = gen_scanpath(plan, seed=2, recording_id="bino")
    x, y = mono.x_deg, mono.y_deg
    bino = GazeRecording(
        recording_id="bino",
        t_ms=mono.t_ms,
        eyes={"left": (np.zeros_like(x), np.zeros_like(y)), "right": (x, y)},
        eye="binocular",
    )
    write_gaze_csv(bino, tmp_path / "bino.csv")
    windows, _ = pipeline_windows(mono)
    entries = []
    for row, window_id in enumerate(windows.window_ids):
        attr = gen_proxy_attributions(windows, row, "speed")
        write_attribution(attr, tmp_path / f"{window_id}.csv")
        entries.append(("bino.csv", f"{window_id}.csv", window_id))
    manifest = _write_manifest(tmp_path / "m.json", entries)
    stacked = _stacked(manifest)
    # right-eye data equals the mono source, so windows match exactly
    np.testing.assert_array_equal(stacked.px[0], windows.px[0])
    assert len(stacked) == len(windows)


def test_unresolvable_window_id_is_alignment_error(tmp_path):
    plan = random_plan(4, 2.0)
    rec, _ = gen_scanpath(plan, seed=4, recording_id="r")
    write_gaze_csv(rec, tmp_path / "r.csv")
    manifest = _write_manifest(tmp_path / "m.json", [("r.csv", "a.csv", "r-w9999")])
    with pytest.raises(AlignmentError, match="r-w9999"):
        list(preprocess_manifest(manifest, RunConfig()))


def test_run_counts_skipped_empty_concepts(tmp_path):
    sigma = positional_noise_sigma(0.5, SavGolParams())
    spec = ScanpathSpec(segments=[PlannedFixation(3000.0)], noise_sigma_deg=sigma)
    rec, _ = gen_scanpath(spec, seed=6, recording_id="noiseonly")
    manifest = _corpus_from_recording(tmp_path, rec, attr_mode="uniform_random")
    result = run(manifest, RunConfig(charts=False), tmp_path / "out")
    agg, skipped = result.corpus_results["saccade"]
    assert agg is None and skipped == 3
    fix_agg, fix_skipped = result.corpus_results["fixation"]
    assert fix_agg is not None and fix_skipped == 0
    doc = json.loads((tmp_path / "out" / "report.json").read_text())
    assert doc["concepts"]["saccade"] == {"windows": 0, "windows_skipped": 3}
    assert doc["concepts"]["fixation"]["windows"] == 3
    # no retained saccades, so saccade property bins are empty
    assert doc["bins"]["saccade_duration_ms"] == []


def test_normalized_windows_zscore_valid_samples(tmp_path):
    plan = random_plan(12, 4.0, noise_sigma_deg=0.002)
    rec, _ = gen_scanpath(plan, seed=12, recording_id="z")
    manifest = _corpus_from_recording(tmp_path, rec)
    stacked = _stacked(manifest)
    normed = normalized_windows(stacked)
    assert normed.window_ids == stacked.window_ids
    for channel in ("vx", "vy"):
        values = getattr(normed, channel)[normed.valid]
        assert abs(values.mean()) < 1e-9
        assert abs(values.std() - 1.0) < 1e-9
    assert normed is not stacked


def test_duplicate_window_ids_across_recordings_rejected(tmp_path, monkeypatch):
    """Two files of one stem, so of one recording id: preprocess and run
    at --jobs 1 and 2 refuse them before any file is loaded."""
    plan = random_plan(3, 2.0)
    rec, _ = gen_scanpath(plan, seed=3, recording_id="same")
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    write_gaze_csv(rec, tmp_path / "a" / "same.csv")
    write_gaze_csv(rec, tmp_path / "b" / "same.csv")
    manifest = _write_manifest(
        tmp_path / "m.json",
        [("a/same.csv", "x.csv", "same-w0000"), ("b/same.csv", "y.csv", "same-w0001")],
    )
    loads = tmp_path / "loads"  # a line per load, in any process
    load = gio.load_gaze_csv

    def noted(path):
        with open(loads, "a", encoding="utf-8") as f:
            f.write(f"{path}\n")
        return load(path)

    monkeypatch.setattr(gio, "load_gaze_csv", noted)
    monkeypatch.setattr(pipeline, "usable_cpus", lambda: 2)
    message = (f"{tmp_path / 'a' / 'same.csv'} and {tmp_path / 'b' / 'same.csv'} "
               f"have one recording id 'same'")
    with pytest.raises(DataError) as e:
        list(preprocess_manifest(manifest, RunConfig()))
    assert str(e.value) == message
    for jobs in (1, 2):
        with pytest.raises(DataError) as e:
            run(manifest, RunConfig(jobs=jobs), tmp_path / f"out{jobs}")
        assert str(e.value) == f"[stage preprocess] {message}"
    assert not loads.exists()


def test_sampling_rate_is_derived_from_timestamps(tmp_path):
    """Velocities are in deg/s at any integer-ms rate: a corpus written at
    500 or 250 Hz retains about the saccades it does at 1 kHz, none
    excluded as too fast."""
    retained = {}
    for rate in (1000.0, 500.0, 250.0):
        spec = CorpusSpec(seed=11, n_recordings=1, duration_s=40, sampling_rate_hz=rate)
        manifest = load_manifest(write_demo_corpus(tmp_path / str(rate), spec))
        result = run(manifest, RunConfig(), tmp_path / f"out{rate}")
        windows = _stacked(manifest)
        assert (windows.sampling_rate_hz == rate).all()
        events = result.events  # run's durations come from its windows' rate
        np.testing.assert_array_equal(events.duration_ms,
                                      (events.offset - events.onset + 1) * 1000.0 / rate)
        saccades = result.counts["events"]["saccade"]
        assert not any("max peak velocity" in reason for reason in saccades["excluded"])
        retained[rate] = saccades["retained"]
    for rate in (500.0, 250.0):
        assert abs(retained[rate] - retained[1000.0]) <= 0.05 * retained[1000.0], retained


def test_run_names_the_stage_a_detection_error_comes_from(tmp_path):
    t = np.arange(400)
    x = np.where(t < 200, 0.001 * t, np.nan)  # the second window is all missing
    rec = GazeRecording("gap", t, {"mono": (x, np.where(t < 200, 0.0, np.nan))})
    write_gaze_csv(rec, tmp_path / "gap.csv")
    entries = []
    for i in range(2):
        window_id = f"gap-w{i:04d}"
        write_attribution(AttributionMap(window_id, np.ones((2, 200))), tmp_path / f"{i}.csv")
        entries.append(("gap.csv", f"{i}.csv", window_id))
    manifest = _write_manifest(tmp_path / "m.json", entries)
    cfg = RunConfig(window_len=200, missing_max_frac=1.0, charts=False)
    with pytest.raises(DegenerateDataError,
                       match=r"^\[stage detect\] gap-w0001: need at least 2 valid"):
        run(manifest, cfg, tmp_path / "out")


# Never imported by a gazeconcepts process: np.median's NaN check and
# np.unique load numpy.ma (about 10 ms a process), and xml.sax.saxutils loads
# the urllib/http/ssl/email stack (43 modules, about 7 MB resident).
UNIMPORTED = ("numpy.ma", "ssl", "socket", "http.client", "urllib.request", "email",
              "xml.sax")


def test_entry_points_leave_numpy_ma_and_network_stack_unimported(tmp_path):
    """In one fresh process: import, run and every staged subcommand with
    charts on, and synth; each module of UNIMPORTED is reported against the
    entry point after which it first appears in sys.modules."""
    manifest = gappy_corpus(tmp_path / "corpus", window_len=40)
    staged = ["--manifest", str(manifest), "--out", str(tmp_path / "staged"),
              "--window-len", "40", "--charts"]
    code = f"""
import json, sys
first = {{}}
def entry(name):
    first.update({{m: name for m in {UNIMPORTED!r} if m in sys.modules and m not in first}})
import gazeconcepts
entry("import gazeconcepts")
from gazeconcepts.cli import main
entry("import gazeconcepts.cli")
assert main(["run", "--manifest", {str(manifest)!r}, "--out", {str(tmp_path / "run")!r},
             "--window-len", "40", "--charts"]) == 0
entry("run")
for stage in ("preprocess", "detect", "dissect", "influence", "bin", "report"):
    assert main([stage] + {staged!r}) == 0, stage
    entry(stage)
assert main(["synth", "--out", {str(tmp_path / "synth")!r}, "--recordings", "1",
             "--duration-s", "2", "--window-len", "250"]) == 0
entry("synth")
print(json.dumps(first))
"""
    src = str(Path(gazeconcepts.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    for out in ("run", "staged"):
        assert list((tmp_path / out / "charts").glob("*.svg")), out
    first = json.loads(done.stdout.splitlines()[-1])
    assert first == {}, "; ".join(f"{e} imported {m}" for m, e in first.items())
