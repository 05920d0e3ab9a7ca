"""The fork pools. `run --jobs N`: above 1 a fork pool does each
recording's gaze side (pipeline.gaze_side) while the calling process
parses the attributions. The staged subcommands: a fork pool of one
process per usable CPU windows each recording and runs its steps
(pipeline.compute; preprocess_manifest for preprocess). `synth`: a fork
pool writes the recordings (synth.write_recording). The outputs and the
errors equal those of one process, no worker outlives the call, a worker
that dies fails it with one error line rather than hanging it, a worker
holds its tasks from its fork, and the pool's size is bounded without
starting one."""

import errno
import json
import os
import pickle
import re
import shutil
import signal
import struct
import subprocess
import sys
import threading
import zipfile
from contextlib import suppress
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import gazeconcepts
from gazeconcepts import io as gio
from gazeconcepts import pipeline, synth
from gazeconcepts.cli import main
from gazeconcepts.io import load_attribution, load_gaze_csv, load_manifest, write_gaze_csv
from gazeconcepts.synth import ATTRIBUTION_MODES, CorpusSpec, write_demo_corpus

W250 = ["--window-len", "250"]
STAGES = ("preprocess", "detect", "dissect", "influence", "bin", "report")


@pytest.fixture
def two_cpus(monkeypatch):
    """pool_size as on a host of two usable CPUs: --jobs 2 starts one
    worker, a staged subcommand two."""
    monkeypatch.setattr(pipeline, "usable_cpus", lambda: 2)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the processes that os.fork starts during the test."""
    pids = []
    fork = os.fork

    def noted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", noted)
    return pids


def _live(pids) -> int:
    """How many of `pids` still exist, running or unreaped."""
    count = 0
    for pid in pids:
        with suppress(ProcessLookupError):
            os.kill(pid, 0)
            count += 1
    return count


def _no_children():
    """This process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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


def _noting(monkeypatch, module, name, log):
    """module.name, noting in `log` the pid of each process that calls it."""
    fn = getattr(module, name)

    def noted(*args):
        with open(log, "a", encoding="utf-8") as f:
            f.write(f"{os.getpid()}\n")
        return fn(*args)

    monkeypatch.setattr(module, name, noted)


def _chain(chain, manifest, out, flags, processes, monkeypatch) -> int:
    """The exit code of `run --jobs processes`, or of the staged chain on
    `processes` usable CPUs up to its first failing subcommand."""
    if chain == "run":
        return main(["run", "--manifest", str(manifest), "--out", str(out), "--jobs",
                     str(processes), *flags])
    monkeypatch.setattr(pipeline, "usable_cpus", lambda: processes)
    for stage in STAGES:
        code = main([stage, "--manifest", str(manifest), "--out", str(out), *flags])
        if code:
            return code
    return 0


@pytest.mark.parametrize("chain,which", [
    pytest.param("run", "plain", id="plain"),
    pytest.param("run", "binocular_interleaved", id="binocular_interleaved"),
    pytest.param("staged", "plain", id="staged-plain"),
    pytest.param("staged", "binocular_interleaved", id="staged-binocular_interleaved"),
])
def test_jobs_1_and_2_write_the_same_files(corpus, tmp_path, monkeypatch, two_cpus, chain,
                                           which):
    """run --jobs 1 and 2, or the staged chain on 1 and 2 usable CPUs:
    the recordings are windowed in this process, then in the workers, and
    every file is the same."""
    manifest = corpus
    flags = W250
    if which == "binocular_interleaved":
        manifest = _binocular_interleaved(corpus, tmp_path / "corpus")
        recordings = [e["recording"] for e in json.loads(manifest.read_text())["entries"]]
        assert recordings[:3] == [f"recordings/rec0{i}.csv" for i in range(3)]
        flags = [*W250, "--eye", "left"]
    assert pipeline.pool_size(2, 3) == 1
    log = tmp_path / "pids"
    _noting(monkeypatch, pipeline, "windowed", log)
    outputs = []
    for processes in (1, 2):
        out = tmp_path / f"jobs{processes}"
        assert _chain(chain, manifest, out, flags, processes, monkeypatch) == 0
        outputs.append(_outputs(out))
        pids = log.read_text().split()
        log.unlink()
        # influence and report read no windows
        assert len(pids) == (3 if chain == "run" else 3 + 3 * 3)
        assert (set(pids) == {str(os.getpid())}) == (processes == 1), pids
        _no_children()
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
    return (("[stage influence] attribution file not found: ", "gone.csv", 3),
            ("", "rec01.csv: line 5: timestamp 'x3' is not an integer", 2))


def _bad_gaze_and_missing_attribution_in_rec00(manifest):
    path = manifest.parent / "recordings" / "rec00.csv"
    lines = path.read_text().splitlines(keepends=True)
    lines[4] = "x3," + lines[4].split(",", 1)[1]
    path.write_text("".join(lines))
    _edit_manifest(manifest, lambda entries: entries[3].update(attribution="gone.csv"))
    text = "rec00.csv: line 5: timestamp 'x3' is not an integer"
    return ("[stage preprocess] ", text, 2), ("", text, 2)


def _two_files_of_one_recording_id(manifest):
    (manifest.parent / "copy").mkdir()
    shutil.copy(manifest.parent / "recordings" / "rec00.csv", manifest.parent / "copy")

    def split(entries):
        for entry in entries[1:8:2]:
            entry["recording"] = "copy/rec00.csv"

    _edit_manifest(manifest, split)
    text = (f"recordings/rec00.csv and {manifest.parent / 'copy'}/rec00.csv have one "
            "recording id 'rec00'")
    return ("[stage preprocess] ", text, 2), ("", text, 2)


def _unknown_window_id(manifest):
    _edit_manifest(manifest, lambda entries: entries[10].update(window_id="rec01-w9999"))
    text = "window_id 'rec01-w9999' is not among the windows"
    return ("[stage preprocess] ", text, 2), ("", text, 2)


def _missing_attribution_in_rec01_unreadable_attribution_in_rec02(manifest):
    """Both met after preprocess, in influence, which a pool may meet in
    rec02 first."""
    (manifest.parent / "attributions" / "rec02-w0003.csv").write_text("not a map\n")
    _edit_manifest(manifest, lambda entries: entries[30].update(attribution="gone.csv"))
    error = ("[stage influence] attribution file not found: ", "gone.csv", 3)
    return error, error


FAULTS = (_bad_gaze_in_rec01_missing_attribution_in_rec00,
          _bad_gaze_and_missing_attribution_in_rec00, _two_files_of_one_recording_id,
          _unknown_window_id, _missing_attribution_in_rec01_unreadable_attribution_in_rec02)


@pytest.mark.parametrize("fault,chain", [
    *(pytest.param(fault, "run", id=fault.__name__) for fault in FAULTS),
    *(pytest.param(fault, "staged", id=f"staged{fault.__name__}") for fault in FAULTS),
])
def test_jobs_1_and_2_report_the_same_error(corpus, tmp_path, capsys, monkeypatch, two_cpus,
                                            fault, chain):
    """The error of the first failing recording in manifest order, and
    within it of its first failing stage, whichever process met it: run
    at --jobs 1 and 2, the staged chain on 1 and 2 usable CPUs."""
    manifest = _copy(corpus, tmp_path / "corpus")
    prefix, text, code = fault(manifest)[chain == "staged"]
    errors = []
    for processes in (1, 2):
        out = tmp_path / f"jobs{processes}"
        assert _chain(chain, manifest, out, W250, processes, monkeypatch) == code
        errors.append(capsys.readouterr().err)
        assert errors[-1].count("\n") == 1, errors[-1]
        assert not (out / "report.json").exists()
    assert errors[0] == errors[1]
    assert errors[0].startswith(f"error: {prefix}") and text in errors[0], errors[0]


def _windows_file_naming(corpus, out, window_id) -> Path:
    """The corpus's windows file, preprocessed into `out`, with its 41st
    window id replaced by `window_id`."""
    assert main(["preprocess", "--manifest", str(corpus), "--out", str(out), *W250]) == 0
    path = out / "windows.npz"
    with np.load(path) as npz:
        arrays = dict(npz)
    arrays["window_id"][40] = window_id
    np.savez(path, **arrays)
    return path


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_window_of_no_stored_recording_is_refused_at_read(corpus, tmp_path, capsys,
                                                            monkeypatch, forks, cpus):
    """A windows file that names a window of a recording it does not
    store: read_windows's FormatError, before any worker is started."""
    path = _windows_file_naming(corpus, tmp_path / "out", "rec09-w0001")
    capsys.readouterr()
    forks.clear()
    monkeypatch.setattr(pipeline, "usable_cpus", lambda: cpus)
    assert main(["detect", "--out", str(path.parent)]) == 2
    assert capsys.readouterr().err == (f"error: {path}: window_id 'rec09-w0001' names no "
                                       "recording of this file\n")
    assert forks == [] and not (path.parent / "events.csv").exists()
    _no_children()


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_window_its_recording_does_not_produce_is_refused_by_its_worker(
        corpus, tmp_path, capsys, monkeypatch, forks, cpus):
    """A windows file that names a window its recording does not produce:
    the FormatError of that recording's windowing, with its stage and the
    windowing summary, met in a worker on 2 usable CPUs."""
    path = _windows_file_naming(corpus, tmp_path / "out", "rec01-w9999")
    capsys.readouterr()
    forks.clear()
    monkeypatch.setattr(pipeline, "usable_cpus", lambda: cpus)
    assert main(["detect", "--out", str(path.parent)]) == 2
    assert capsys.readouterr().err == (
        f"error: [stage preprocess] {path}: window_id 'rec01-w9999' is not among the windows "
        "of this recording (24 retained, 0 excluded with more than 0.5 of their samples "
        "missing, 147 tail samples)\n")
    assert len(forks) == (cpus if cpus > 1 else 0)
    assert not (path.parent / "events.csv").exists()
    _no_children()


def _flip_payload_byte(path, member):
    """The zip at `path` with one byte of `member`'s .npy payload flipped,
    its .npy header and the zip's directory intact."""
    with zipfile.ZipFile(path) as zf:
        offset = zf.getinfo(member).header_offset
    data = bytearray(path.read_bytes())
    name_len, extra_len = struct.unpack("<HH", data[offset + 26:offset + 30])
    start = offset + 30 + name_len + extra_len  # the member's .npy bytes
    header_len, = struct.unpack("<H", data[start + 8:start + 10])
    data[start + 10 + header_len + 100] ^= 0xFF
    path.write_bytes(bytes(data))


def _cut_payload(path, member):
    """The zip at `path` written anew with `member`'s .npy payload 8
    bytes short of what its header gives."""
    with zipfile.ZipFile(path) as zf:
        members = {name: zf.read(name) for name in zf.namelist()}
    members[member] = members[member][:-8]
    with zipfile.ZipFile(path, "w") as zf:
        for name, data in members.items():
            zf.writestr(name, data)


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("fault,text", [
    (_flip_payload_byte, "Bad CRC-32 for file 'y1.npy'"),
    (_cut_payload, r"EOF: reading array data, expected \d+ bytes got \d+"),
])
def test_a_position_member_that_does_not_load_fails_its_worker_with_one_error_line(
        corpus, tmp_path, capsys, monkeypatch, forks, cpus, fault, text):
    """A y<i> payload corrupted or cut short behind an intact header
    passes read_windows, which reads headers only; the worker that loads
    it (this process on one CPU) fails detect with exit 2 and one line
    naming windows.npz, not a ChildProcessError."""
    out = tmp_path / "out"
    assert main(["preprocess", "--manifest", str(corpus), "--out", str(out), *W250]) == 0
    path = out / "windows.npz"
    fault(path, "y1.npy")
    assert [r.positions for r in gio.read_windows(path)[2]] == [None] * 3
    capsys.readouterr()
    forks.clear()
    monkeypatch.setattr(pipeline, "usable_cpus", lambda: cpus)
    assert main(["detect", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(rf"error: \[stage preprocess\] {re.escape(str(path))}: positions x1, y1 "
                        rf"do not load \({text}\); rerun preprocess\n", err), err
    assert len(forks) == (cpus if cpus > 1 else 0) and not (out / "events.csv").exists()
    _no_children()


def test_only_the_stages_that_read_windows_load_positions(corpus, tmp_path, monkeypatch,
                                                          two_cpus, forks):
    """detect, dissect and bin load each recording's positions in a
    worker; influence loads none, and report, which has no per-recording
    step, starts no pool."""
    log = tmp_path / "pids"
    _noting(monkeypatch, gio, "read_positions", log)
    for stage in STAGES:
        forks.clear()
        assert main([stage, "--manifest", str(corpus), "--out", str(tmp_path / "out"),
                     *W250]) == 0
        loads = log.read_text().split() if log.exists() else []
        log.unlink(missing_ok=True)
        assert len(loads) == (3 if stage in ("detect", "dissect", "bin") else 0), stage
        assert str(os.getpid()) not in loads, stage
        assert len(forks) == (0 if stage == "report" else 2), stage
    _no_children()


def test_no_worker_outlives_run(corpus, tmp_path, monkeypatch, two_cpus, forks):
    """The pool's one worker is alive while run parses the attributions
    and gone once run returns or raises."""
    alive = []

    def attribution_topk(*args):
        alive.append(_live(forks))
        return masks(*args)

    masks = pipeline.attribution_topk
    monkeypatch.setattr(pipeline, "attribution_topk", attribution_topk)
    assert main(["run", "--manifest", str(corpus), "--out", str(tmp_path / "ok"),
                 "--jobs", "2", *W250]) == 0
    assert alive == [1, 1, 1] and len(forks) == 1
    _no_children()

    broken = _copy(corpus, tmp_path / "corpus")
    _unknown_window_id(broken)
    assert main(["run", "--manifest", str(broken), "--out", str(tmp_path / "failed"),
                 "--jobs", "2", *W250]) == 2
    _no_children()


def test_a_fork_that_fails_closes_its_pipe_and_reaps_the_started_workers(
        corpus, tmp_path, monkeypatch, capsys):
    """os.fork refused (EAGAIN) for the second of two workers of run
    --jobs 3: exit 3 with one error line naming the stages, every pipe
    end closed and the first worker reaped."""
    fds, pids = [], []
    pipe, fork = os.pipe, os.fork

    def noted_pipe():
        ends = pipe()
        fds.extend(ends)
        return ends

    def second_refused():
        if pids:
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "pipe", noted_pipe)
    monkeypatch.setattr(os, "fork", second_refused)
    monkeypatch.setattr(pipeline, "usable_cpus", lambda: 3)
    assert main(["run", "--manifest", str(corpus), "--out", str(tmp_path / "out"), "--jobs", "3",
                 *W250]) == 3
    assert capsys.readouterr().err == (
        "error: [stage preprocess, detect or dissect] could not start a worker process: "
        f"[Errno {errno.EAGAIN}] {os.strerror(errno.EAGAIN)}\n")
    assert len(pids) == 1 and len(fds) == 4
    for fd in fds:
        with pytest.raises(OSError):
            os.fstat(fd)
    _no_children()


def _killed(*args):
    """A task whose worker is killed, as by the kernel's OOM killer."""
    os.kill(os.getpid(), signal.SIGKILL)


def test_a_killed_worker_fails_run_instead_of_hanging(corpus, tmp_path, monkeypatch,
                                                      two_cpus):
    def hung(signum, frame):
        raise TimeoutError("run still waits for a killed worker after 60 s")

    monkeypatch.setattr(pipeline, "gaze_side", _killed)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        with pytest.raises(ChildProcessError) as died:
            pipeline.run(load_manifest(corpus), pipeline.RunConfig(jobs=2, window_len=250),
                         tmp_path / "out")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert str(died.value).startswith("[stage preprocess, detect or dissect] a worker process "
                                      "died"), died.value
    _no_children()


@pytest.mark.parametrize("command", ["run", "synth", "influence"])
def test_a_killed_worker_gives_one_error_line_and_exit_3(corpus, tmp_path, monkeypatch,
                                                          capsys, two_cpus, command):
    """Exit 3 (I/O) with one error line that names what the worker did,
    no traceback, nothing of the run's report, the corpus's manifest or
    the staged stage's table."""
    if command == "run":
        monkeypatch.setattr(pipeline, "gaze_side", _killed)
        argv = ["run", "--manifest", str(corpus), "--jobs", "2", *W250]
        prefix, done = "[stage preprocess, detect or dissect] ", "report.json"
    elif command == "influence":
        for stage in STAGES[:3]:
            assert main([stage, "--manifest", str(corpus), "--out", str(tmp_path / "out"),
                         *W250]) == 0
        capsys.readouterr()
        monkeypatch.setattr(pipeline, "attribution_topk", _killed)
        argv = ["influence", "--manifest", str(corpus), *W250]
        prefix, done = "[stage influence] ", "influence.csv"
    else:
        monkeypatch.setattr(synth, "write_recording", _killed)
        argv = ["synth", "--recordings", "3", "--duration-s", "6", *W250]
        prefix, done = "[synth] ", "manifest.json"
    assert main([*argv, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {prefix}a worker process died") and err.count("\n") == 1, err
    assert not (tmp_path / "out" / done).exists()
    _no_children()


def test_a_task_pickles_only_its_item(corpus, tmp_path, two_cpus):
    """The workers hold the function, manifest and config from their fork:
    a manifest that cannot be pickled still runs in the pool, as a lambda
    does."""
    manifest = load_manifest(corpus)
    cfg = pipeline.RunConfig(window_len=250)
    manifest.lock = threading.Lock()
    with pytest.raises(TypeError, match="pickle"):
        pickle.dumps(manifest)
    for jobs in (1, 2):
        pipeline.run(manifest, replace(cfg, jobs=jobs), tmp_path / f"jobs{jobs}")
    assert _outputs(tmp_path / "jobs1") == _outputs(tmp_path / "jobs2")
    with pipeline.recording_map(lambda item: -item, [3, 1, 2], 2, "test") as results:
        assert list(results) == [-3, -1, -2]
    _no_children()


def test_pool_size_is_bounded_by_cpus_and_recordings(monkeypatch):
    """Checked without starting a pool: never more workers than CPUs or
    recordings, none for one job or without fork."""
    cpus = pipeline.usable_cpus()
    for n_recordings in (1, 4):
        workers = pipeline.pool_size(10**9, n_recordings)
        assert 0 <= workers <= min(cpus, n_recordings)
        assert workers == min(cpus - 1, n_recordings)
        assert pipeline.pool_size(1, n_recordings) == 0
    monkeypatch.setattr(pipeline, "usable_cpus", lambda: 64)
    assert [pipeline.pool_size(jobs, 4) for jobs in (1, 2, 3, 5, 6)] == [0, 1, 2, 4, 4]
    monkeypatch.setattr(pipeline, "usable_cpus", lambda: 1)
    assert pipeline.pool_size(10**9, 4) == 0
    monkeypatch.setattr(pipeline, "usable_cpus", lambda: 64)
    monkeypatch.delattr(os, "fork")
    assert pipeline.pool_size(10**9, 4) == 0


def test_usable_cpus_are_those_of_the_affinity_mask(monkeypatch):
    """Checked without starting a pool: a process pinned to one of four
    CPUs starts no worker, for run or for synth and the staged
    subcommands; without an affinity mask the CPU count rules, and an
    unknown count is one CPU."""
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert pipeline.usable_cpus() == 1
    assert pipeline.pool_size(2, 4) == 0 and pipeline.pool_size(4, 4, parent_waits=True) == 0
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1, 3, 5})
    assert pipeline.usable_cpus() == 3
    assert pipeline.pool_size(2, 4) == 1 and pipeline.pool_size(4, 4, parent_waits=True) == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    assert pipeline.usable_cpus() == 4
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert pipeline.usable_cpus() == 1


SYNTH = {"seed": 5, "n_recordings": 3, "duration_s": 6, "window_len": 250}
SYNTH_FLAGS = ["--seed", "5", "--recordings", "3", "--duration-s", "6", *W250]


def _tree(root) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


@pytest.mark.parametrize("mode", ATTRIBUTION_MODES)
def test_pooled_synth_writes_the_bytes_of_one_process(tmp_path, monkeypatch, mode):
    spec = CorpusSpec(**SYNTH, attribution_mode=mode)
    log = tmp_path / "pids"
    _noting(monkeypatch, synth, "write_recording", log)
    trees, writers = [], []
    for cpus in (1, 2):
        monkeypatch.setattr(pipeline, "usable_cpus", lambda: cpus)
        write_demo_corpus(tmp_path / f"cpus{cpus}", spec)
        trees.append(_tree(tmp_path / f"cpus{cpus}"))
        writers.append([int(pid) for pid in log.read_text().split()])
        log.unlink()
        _no_children()
    assert writers[0] == [os.getpid()] * 3
    assert len(writers[1]) == 3 and os.getpid() not in writers[1]
    assert len(trees[0]) == 3 + 72 + 2 and "manifest.json" in trees[0]
    assert sorted(trees[0]) == sorted(trees[1])
    for name, content in trees[0].items():
        assert trees[1][name] == content, name


def test_pooled_attribution_seeds_count_the_windows_of_every_earlier_recording(
        tmp_path, two_cpus):
    """A uniform-random map is default_rng(seed).random((2, L)), and the
    seed of the corpus's j-th window is seed + 7919 + j, as when one
    process wrote the recordings in turn."""
    spec = CorpusSpec(**SYNTH, attribution_mode="uniform_random")
    manifest = load_manifest(write_demo_corpus(tmp_path / "corpus", spec))
    assert len(manifest.entries) == 72
    for j, entry in enumerate(manifest.entries):
        values = load_attribution(manifest.resolve(entry.attribution)).values
        expected = np.random.default_rng(spec.seed + 7919 + j).random((2, 250))
        assert np.array_equal(values, expected), entry.window_id


def test_synth_of_one_recording_starts_no_pool(tmp_path, monkeypatch, two_cpus):
    log = tmp_path / "pids"
    _noting(monkeypatch, synth, "write_recording", log)
    assert pipeline.pool_size(1, 1, parent_waits=True) == 0
    assert pipeline.pool_size(3, 3, parent_waits=True) == 2
    write_demo_corpus(tmp_path / "corpus", CorpusSpec(**{**SYNTH, "n_recordings": 1}))
    assert log.read_text().split() == [str(os.getpid())]


def test_synth_in_one_process_never_imports_the_pool():
    """In one fresh process: synth of one recording, of three on one CPU
    and of three without fork forks no worker; three on two CPUs, the
    control, forks two. None of them imports multiprocessing or
    concurrent.futures, or socket, which they load."""
    code = f"""
import os, sys, tempfile
from gazeconcepts import pipeline
from gazeconcepts.synth import CorpusSpec, write_demo_corpus
POOL = ("multiprocessing", "concurrent.futures", "socket")
spec = {SYNTH!r}
forks = []
fork = os.fork
def counted():
    pid = fork()
    if pid:
        forks.append(pid)
    return pid
os.fork = counted
with tempfile.TemporaryDirectory() as tmp:
    def synth(name, cpus, **fields):
        pipeline.usable_cpus = lambda: cpus
        forks.clear()
        write_demo_corpus(os.path.join(tmp, name), CorpusSpec(**{{**spec, **fields}}))
        return len(forks)
    assert synth("one", 2, n_recordings=1) == 0, "one recording"
    assert synth("one_cpu", 1) == 0, "one CPU"
    del os.fork
    assert synth("no_fork", 2) == 0, "no fork"
    os.fork = counted
    assert synth("pool", 2) == 2, "control"
assert [m for m in POOL if m in sys.modules] == [], "imported the multiprocessing pool"
"""
    src = str(Path(gazeconcepts.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert done.returncode == 0, done.stderr


def test_a_failing_recording_gives_the_first_error_in_order(tmp_path, capsys, monkeypatch):
    """rec01 fails at its fourth attribution and rec02 at its gaze file,
    which a pool may meet first: rec01's error either way, and neither
    gt_events.csv nor manifest.json."""
    out = tmp_path / "corpus"
    (out / "attributions" / "rec01-w0003.csv").mkdir(parents=True)
    (out / "recordings" / "rec02.csv").mkdir(parents=True)
    errors = []
    for cpus in (1, 2):
        monkeypatch.setattr(pipeline, "usable_cpus", lambda: cpus)
        assert main(["synth", "--out", str(out), *SYNTH_FLAGS]) == 3
        errors.append(capsys.readouterr().err)
        assert not (out / "manifest.json").exists() and not (out / "gt_events.csv").exists()
        _no_children()
    assert errors[0] == errors[1]
    assert errors[0].startswith("error: ") and "rec01-w0003.csv" in errors[0], errors[0]
