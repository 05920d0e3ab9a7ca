"""`run --jobs N`: above 1 a fork pool does each recording's gaze side
(pipeline.gaze_side) while the calling process parses the attributions.
The outputs and the errors equal --jobs 1's, no worker outlives `run`,
a worker that dies fails `run` rather than hanging it, and the pool's
size is bounded without starting one."""

import json
import multiprocessing
import os
import shutil
import signal
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

import numpy as np
import pytest

from gazeconcepts import pipeline
from gazeconcepts.cli import main
from gazeconcepts.io import load_gaze_csv, load_manifest, write_gaze_csv
from gazeconcepts.synth import CorpusSpec, write_demo_corpus

W250 = ["--window-len", "250"]


@pytest.fixture
def two_cpus(monkeypatch):
    """pool_size as on a host of two CPUs: --jobs 2 starts one worker."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Three 6 s recordings of 24 windows of 250."""
    return write_demo_corpus(tmp_path_factory.mktemp("jobs") / "corpus", CorpusSpec(
        seed=5, n_recordings=3, duration_s=6, window_len=250))


def _copy(corpus, root):
    """A copy of the corpus directory in `root`, its manifest returned."""
    shutil.copytree(corpus.parent, root)
    return root / corpus.name


def _edit_manifest(manifest, edit):
    doc = json.loads(manifest.read_text())
    edit(doc["entries"])
    manifest.write_text(json.dumps(doc))
    return manifest


def _binocular_interleaved(corpus, root):
    """The corpus with binocular recordings, whose left eye is the
    recorded one plus noise, under a manifest that takes the recordings'
    windows in turn."""
    manifest = _copy(corpus, root)
    rng = np.random.default_rng(3)
    for path in sorted((root / "recordings").glob("*.csv")):
        mono = load_gaze_csv(path)
        left = tuple(c + rng.normal(0.0, 0.05, len(c)) for c in (mono.x_deg, mono.y_deg))
        write_gaze_csv(replace(mono, eyes={"left": left, "right": (mono.x_deg, mono.y_deg)},
                               eye="binocular"), path)

    def interleave(entries):
        by_recording = {}
        for entry in entries:
            by_recording.setdefault(entry["recording"], []).append(entry)
        entries[:] = [e for turn in zip(*by_recording.values()) for e in turn]

    return _edit_manifest(manifest, interleave)


def _outputs(out) -> dict:
    """Every file under `out` by relative path: its bytes, or for
    run_log.json its document without parameters.jobs."""
    files = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        rel = str(path.relative_to(out))
        files[rel] = path.read_bytes()
        if rel == "run_log.json":
            log = json.loads(files[rel])
            log["parameters"].pop("jobs")
            files[rel] = log
    return files


@pytest.mark.parametrize("which", ["plain", "binocular_interleaved"])
def test_jobs_1_and_2_write_the_same_files(corpus, tmp_path, two_cpus, which):
    manifest = corpus
    flags = W250
    if which == "binocular_interleaved":
        manifest = _binocular_interleaved(corpus, tmp_path / "corpus")
        recordings = [e["recording"] for e in json.loads(manifest.read_text())["entries"]]
        assert recordings[:3] == [f"recordings/rec0{i}.csv" for i in range(3)]
        flags = [*W250, "--eye", "left"]
    assert pipeline.pool_size(2, 3) == 1
    outputs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert main(["run", "--manifest", str(manifest), "--out", str(out), "--jobs", jobs,
                     *flags]) == 0
        outputs.append(_outputs(out))
    assert len(outputs[0]) > 10 and any(name.startswith("charts/") for name in outputs[0])
    assert sorted(outputs[0]) == sorted(outputs[1])
    for name, content in outputs[0].items():
        assert outputs[1][name] == content, name


def _bad_gaze_in_rec01_missing_attribution_in_rec00(manifest):
    path = manifest.parent / "recordings" / "rec01.csv"
    lines = path.read_text().splitlines(keepends=True)
    lines[4] = "x3," + lines[4].split(",", 1)[1]
    path.write_text("".join(lines))
    _edit_manifest(manifest, lambda entries: entries[3].update(attribution="gone.csv"))
    return "[stage influence] attribution file not found: ", "gone.csv", 3


def _bad_gaze_and_missing_attribution_in_rec00(manifest):
    path = manifest.parent / "recordings" / "rec00.csv"
    lines = path.read_text().splitlines(keepends=True)
    lines[4] = "x3," + lines[4].split(",", 1)[1]
    path.write_text("".join(lines))
    _edit_manifest(manifest, lambda entries: entries[3].update(attribution="gone.csv"))
    return "[stage preprocess] ", "rec00.csv: line 5: timestamp 'x3' is not an integer", 2


def _two_files_of_one_recording_id(manifest):
    (manifest.parent / "copy").mkdir()
    shutil.copy(manifest.parent / "recordings" / "rec00.csv", manifest.parent / "copy")

    def split(entries):
        for entry in entries[1:8:2]:
            entry["recording"] = "copy/rec00.csv"

    _edit_manifest(manifest, split)
    return ("[stage preprocess] ", f"recordings/rec00.csv and {manifest.parent / 'copy'}"
            "/rec00.csv have one recording id 'rec00'", 2)


def _unknown_window_id(manifest):
    _edit_manifest(manifest, lambda entries: entries[10].update(window_id="rec01-w9999"))
    return "[stage preprocess] ", "window_id 'rec01-w9999' is not among the windows", 2


@pytest.mark.parametrize("fault", [
    _bad_gaze_in_rec01_missing_attribution_in_rec00,
    _bad_gaze_and_missing_attribution_in_rec00,
    _two_files_of_one_recording_id,
    _unknown_window_id,
])
def test_jobs_1_and_2_report_the_same_error(corpus, tmp_path, capsys, two_cpus, fault):
    """The error of the first failing recording in manifest order, and
    within it of its first failing stage, whichever process met it."""
    manifest = _copy(corpus, tmp_path / "corpus")
    prefix, text, code = fault(manifest)
    errors = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert main(["run", "--manifest", str(manifest), "--out", str(out), "--jobs", jobs,
                     *W250]) == code
        errors.append(capsys.readouterr().err)
        assert not (out / "report.json").exists()
    assert errors[0] == errors[1]
    assert errors[0].startswith(f"error: {prefix}") and text in errors[0], errors[0]


def test_no_worker_outlives_run(corpus, tmp_path, monkeypatch, two_cpus):
    """The pool's one worker is alive while run parses the attributions
    and gone once run returns or raises."""
    alive = []

    def topk_masks(*args):
        alive.append(len(multiprocessing.active_children()))
        return masks(*args)

    masks = pipeline.topk_masks
    monkeypatch.setattr(pipeline, "topk_masks", topk_masks)
    assert main(["run", "--manifest", str(corpus), "--out", str(tmp_path / "ok"),
                 "--jobs", "2", *W250]) == 0
    assert alive == [1, 1, 1] and multiprocessing.active_children() == []

    broken = _copy(corpus, tmp_path / "corpus")
    _unknown_window_id(broken)
    assert main(["run", "--manifest", str(broken), "--out", str(tmp_path / "failed"),
                 "--jobs", "2", *W250]) == 2
    assert multiprocessing.active_children() == []


def _killed(*args):
    """A gaze side whose worker is killed, as by the kernel's OOM killer."""
    os.kill(os.getpid(), signal.SIGKILL)


def test_a_killed_worker_fails_run_instead_of_hanging(corpus, tmp_path, monkeypatch,
                                                      two_cpus):
    def hung(signum, frame):
        raise TimeoutError("run still waits for a killed worker after 60 s")

    monkeypatch.setattr(pipeline, "gaze_side", _killed)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        with pytest.raises(BrokenProcessPool):
            pipeline.run(load_manifest(corpus), pipeline.RunConfig(jobs=2, window_len=250),
                         tmp_path / "out")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert multiprocessing.active_children() == []


def test_pool_size_is_bounded_by_cpus_and_recordings(monkeypatch):
    """Checked without starting a pool: never more workers than CPUs or
    recordings, none for one job or without fork."""
    cpus = os.cpu_count()
    for n_recordings in (1, 4):
        workers = pipeline.pool_size(10**9, n_recordings)
        assert 0 <= workers <= min(cpus, n_recordings)
        assert workers == min(cpus - 1, n_recordings)
        assert pipeline.pool_size(1, n_recordings) == 0
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert [pipeline.pool_size(jobs, 4) for jobs in (1, 2, 3, 5, 6)] == [0, 1, 2, 4, 4]
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: one CPU
    assert pipeline.pool_size(10**9, 4) == 0
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.delattr(os, "fork")
    assert pipeline.pool_size(10**9, 4) == 0
