import json
import os
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from gazeconcepts import io as gio
from gazeconcepts.cli import main
from gazeconcepts.io import write_attribution, write_gaze_csv
from gazeconcepts.preprocess import SavGolParams
from gazeconcepts.synth import (
    CorpusSpec,
    PlannedFixation,
    ScanpathSpec,
    gen_proxy_attributions,
    gen_scanpath,
    positional_noise_sigma,
    write_demo_corpus,
)

from conftest import pipeline_windows


@pytest.fixture(scope="module")
def tiny_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny")
    spec = CorpusSpec(seed=5, n_recordings=2, duration_s=6.0)
    manifest = write_demo_corpus(root / "corpus", spec)
    return manifest


def test_run_happy_path(tiny_corpus, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", "--manifest", str(tiny_corpus), "--out", str(out)])
    assert code == 0
    assert (out / "report.json").exists()
    assert (out / "events.csv").exists()
    assert (out / "run_log.json").exists()
    assert "run complete" in capsys.readouterr().out
    doc = json.loads((out / "report.json").read_text())
    assert "saccade" in doc["concepts"]
    log = json.loads((out / "run_log.json").read_text())
    # every effective parameter echoed, defaults included
    for key in ("sg_window", "sacc_lambda", "top_frac", "jobs", "peak_ratio"):
        assert key in log["parameters"]


def test_run_deterministic_across_jobs(tiny_corpus, tmp_path):
    outs = []
    for name, jobs in (("a", "1"), ("b", "1"), ("c", "4")):
        out = tmp_path / name
        assert main(["run", "--manifest", str(tiny_corpus), "--out", str(out),
                     "--jobs", jobs]) == 0
        outs.append((out / "report.json").read_bytes())
    assert outs[0] == outs[1] == outs[2]


def _relocated_manifest(tiny_corpus, root, **extra):
    """A copy of the tiny manifest in `root`, with absolute data paths and
    the given top-level keys."""
    doc = json.loads(Path(tiny_corpus).read_text())
    for e in doc["entries"]:
        e["recording"] = str(Path(tiny_corpus).parent / e["recording"])
        e["attribution"] = str(Path(tiny_corpus).parent / e["attribution"])
    doc.update(extra)
    root.mkdir()
    manifest = root / "manifest.json"
    manifest.write_text(json.dumps(doc))
    return manifest


def test_missing_attribution_names_stage_and_path(tiny_corpus, tmp_path, capsys):
    broken = _relocated_manifest(tiny_corpus, tmp_path / "m")
    manifest_doc = json.loads(broken.read_text())
    manifest_doc["entries"][3]["attribution"] = "attributions/gone.csv"
    broken.write_text(json.dumps(manifest_doc))
    out = tmp_path / "out"
    code = main(["run", "--manifest", str(broken), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 3
    assert "stage influence" in err
    assert "gone.csv" in err
    assert not (out / "report.json").exists()


def test_malformed_sparse_attribution_exits_2(tiny_corpus, tmp_path, capsys):
    broken = _relocated_manifest(tiny_corpus, tmp_path / "m")
    manifest_doc = json.loads(broken.read_text())
    bad = tmp_path / "m" / "bad.csv"
    bad.write_text("channel,index,value\n0,0,x\n")
    manifest_doc["entries"][3]["attribution"] = str(bad)
    broken.write_text(json.dumps(manifest_doc))
    assert main(["run", "--manifest", str(broken), "--out", str(tmp_path / "out")]) == 2
    assert "bad.csv: line 2: value 'x' is not a number" in capsys.readouterr().err


def test_usage_errors_exit_1(capsys, tmp_path):
    assert main(["run"]) == 1  # missing --manifest
    assert main(["nonsense"]) == 1
    assert main([]) == 1


def test_config_file_and_flag_precedence(tiny_corpus, tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[detect]\nsacc_lambda = 8\n[influence]\ntop_frac = 0.01\n")
    out = tmp_path / "out"
    assert main(["run", "--manifest", str(tiny_corpus), "--out", str(out),
                 "--config", str(cfg), "--sacc-lambda", "10"]) == 0
    log = json.loads((out / "run_log.json").read_text())
    assert log["parameters"]["sacc_lambda"] == 10.0  # flag wins
    assert log["parameters"]["top_frac"] == 0.01  # config beats default


def test_unknown_config_key_rejected(tiny_corpus, tmp_path, capsys):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[detect]\nsacc_lambdla = 8\n")
    assert main(["run", "--manifest", str(tiny_corpus), "--out", str(tmp_path / "o"),
                 "--config", str(cfg)]) == 1


def test_env_var_default_out(tiny_corpus, tmp_path, monkeypatch):
    out = tmp_path / "env_out"
    monkeypatch.setenv("GAZECONCEPTS_OUT", str(out))
    assert main(["run", "--manifest", str(tiny_corpus)]) == 0
    assert (out / "report.json").exists()


STAGES = (("preprocess", True), ("detect", False), ("dissect", False),
          ("influence", True), ("bin", True), ("report", False))


def _run_and_staged(manifest, tmp_path, flags=(), manifest_everywhere=False):
    """Output directories of `run` and of the six staged subcommands. By
    default only the stages that require --manifest get it."""
    run_out = tmp_path / "direct"
    m = str(manifest)
    assert main(["run", "--manifest", m, "--out", str(run_out), *flags]) == 0
    staged = tmp_path / "staged"
    for sub, needs_manifest in STAGES:
        argv = [sub, "--out", str(staged), *flags]
        with_manifest = needs_manifest or manifest_everywhere
        assert main(argv + (["--manifest", m] if with_manifest else [])) == 0, sub
    return run_out, staged


def _run_artifacts(run_out):
    return sorted(
        p.relative_to(run_out) for p in run_out.rglob("*")
        if p.is_file() and p.name != "run_log.json"
    )


def test_staged_pipeline_matches_run(tiny_corpus, tmp_path):
    run_out, staged = _run_and_staged(tiny_corpus, tmp_path)
    assert (staged / "windows.npz").exists()
    written = _run_artifacts(run_out)
    assert Path("charts", "by_saccade_amplitude_deg.svg") in written
    for rel in written:
        assert (staged / rel).read_bytes() == (run_out / rel).read_bytes(), rel


def test_staged_matches_run_with_absent_concepts(tmp_path):
    # pure fixation noise: no saccade concept, empty saccade bins
    sigma = positional_noise_sigma(0.5, SavGolParams())
    spec = ScanpathSpec(segments=[PlannedFixation(3000.0)], noise_sigma_deg=sigma)
    rec, _ = gen_scanpath(spec, seed=6, recording_id="noiseonly")
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    write_gaze_csv(rec, corpus / "noiseonly.csv")
    entries = []
    windows, _ = pipeline_windows(rec)
    for row, window_id in enumerate(windows.window_ids):
        write_attribution(gen_proxy_attributions(windows, row, "uniform_random", seed=3),
                          corpus / f"{window_id}.csv")
        entries.append({"recording": "noiseonly.csv",
                        "attribution": f"{window_id}.csv", "window_id": window_id})
    manifest = corpus / "manifest.json"
    manifest.write_text(json.dumps({"entries": entries}))

    run_out, staged = _run_and_staged(manifest, tmp_path, ["--format", "json"])
    doc = json.loads((run_out / "report.json").read_text())
    assert doc["concepts"]["saccade"] == {"windows": 0, "windows_skipped": 3}
    assert doc["bins"]["saccade_duration_ms"] == []
    for rel in _run_artifacts(run_out):
        assert (staged / rel).read_bytes() == (run_out / rel).read_bytes(), rel


def test_empty_manifest_is_a_data_error_for_run(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    manifest.write_text('{"entries": []}')
    assert main(["run", "--manifest", str(manifest), "--out", str(tmp_path / "run")]) == 2
    assert "manifest yields no evaluation windows" in capsys.readouterr().err
    out = tmp_path / "staged"
    assert main(["preprocess", "--manifest", str(manifest), "--out", str(out)]) == 0
    windows = gio.read_windows(out / "windows.npz")
    assert len(windows) == 0 and windows.length == 1000 and windows.valid.dtype == bool


def test_synth_subcommand(tmp_path, capsys):
    out = tmp_path / "corpus"
    assert main(["synth", "--out", str(out), "--seed", "9", "--recordings", "1",
                 "--duration-s", "4"]) == 0
    assert (out / "manifest.json").exists()
    assert (out / "gt_events.csv").exists()
    assert any((out / "recordings").iterdir())
    assert any((out / "attributions").iterdir())


def test_run_rerun_from_logged_parameters(tiny_corpus, tmp_path):
    out1 = tmp_path / "o1"
    assert main(["run", "--manifest", str(tiny_corpus), "--out", str(out1),
                 "--sacc-lambda", "7", "--bins", "10"]) == 0
    log = json.loads((out1 / "run_log.json").read_text())
    cfg = tmp_path / "replay.ini"
    lines = ["[run]"]
    for key, value in log["parameters"].items():
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        lines.append(f"{key} = {value}")
    cfg.write_text("\n".join(lines) + "\n")
    out2 = tmp_path / "o2"
    assert main(["run", "--manifest", str(tiny_corpus), "--out", str(out2),
                 "--config", str(cfg)]) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


def test_manifest_config_resolves_next_to_manifest_for_every_stage(
    tiny_corpus, tmp_path, monkeypatch
):
    manifest = _relocated_manifest(tiny_corpus, tmp_path / "m", config="cfg.ini")
    (tmp_path / "m" / "cfg.ini").write_text("[detect]\nsacc_lambda = 9\n")
    (tmp_path / "elsewhere").mkdir()
    monkeypatch.chdir(tmp_path / "elsewhere")
    run_out, staged = _run_and_staged(manifest, tmp_path, manifest_everywhere=True)
    for rel in _run_artifacts(run_out):
        assert (staged / rel).read_bytes() == (run_out / rel).read_bytes(), rel
    for out in (run_out, staged):
        doc = json.loads((out / "report.json").read_text())
        assert doc["parameters"]["sacc_lambda"] == 9.0
    log = json.loads((run_out / "run_log.json").read_text())
    assert log["parameters"]["sacc_lambda"] == 9.0


def test_staged_chain_writes_to_manifest_output_dir(tiny_corpus, tmp_path, monkeypatch):
    manifest = _relocated_manifest(tiny_corpus, tmp_path / "m", output_dir="results")
    (tmp_path / "elsewhere").mkdir()
    monkeypatch.chdir(tmp_path / "elsewhere")
    monkeypatch.delenv("GAZECONCEPTS_OUT", raising=False)
    for sub, _ in STAGES:
        assert main([sub, "--manifest", str(manifest)]) == 0, sub
    written = {p.name for p in (tmp_path / "m" / "results").iterdir()}
    assert {"windows.npz", "preprocess_stats.json", "events.csv", "subevents.csv",
            "dissect_stats.json", "topk.npz", "influence.csv", "binned.csv",
            "report.json"} <= written
    assert not any((tmp_path / "elsewhere").iterdir())


def test_flag_and_config_values_mean_the_same(tiny_corpus, tmp_path):
    flags = ["--bin-mode", "explicit", "--bin-edges", "9, 20,50",
             "--property", "saccade_duration_ms", "--property", "saccade_amplitude_deg",
             "--sacc-lambda", "7", "--bins", "5", "--no-charts", "--eye", "left"]
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[binning]\nbin_mode = explicit\nbin_edges = 9, 20,50\n"
                   "properties = saccade_duration_ms,saccade_amplitude_deg\nbins = 5\n"
                   "[run]\nsacc_lambda = 7\ncharts = no\neye = left\n")
    logs = []
    for name, argv in (("flags", flags), ("ini", ["--config", str(cfg)])):
        out = tmp_path / name
        assert main(["run", "--manifest", str(tiny_corpus), "--out", str(out), *argv]) == 0
        logs.append(json.loads((out / "run_log.json").read_text())["parameters"])
    assert logs[0] == logs[1]
    assert logs[0]["bin_edges"] == [9.0, 20.0, 50.0]
    assert logs[0]["properties"] == ["saccade_duration_ms", "saccade_amplitude_deg"]


@pytest.mark.parametrize("flag,key,value", [
    ("--eye", "eye", "up"),
    ("--bin-mode", "bin_mode", "bogus"),
    ("--sg-window", "sg_window", "x"),
    ("--sg-window", "sg_window", "4"),
    ("--peak-ratio", "peak_ratio", "5"),
    ("--flank-ratio", "flank_ratio", "0"),
    ("--missing-max-frac", "missing_max_frac", "-1"),
    ("--missing-max-frac", "missing_max_frac", "7"),
    ("--top-frac", "top_frac", "0"),
    ("--bins", "bins", "0"),
    ("--clamp", "clamp", "0"),
    ("--window-len", "window_len", "0"),
])
def test_bad_parameter_value_exits_1(tiny_corpus, tmp_path, capsys, flag, key, value):
    base = ["run", "--manifest", str(tiny_corpus), "--out", str(tmp_path / "o")]
    assert main(base + [flag, value]) == 1
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(f"[run]\n{key} = {value}\n")
    assert main(base + ["--config", str(cfg)]) == 1
    assert key in capsys.readouterr().err.splitlines()[-1]
    assert not (tmp_path / "o").exists()
    # a stage rejects the value before it reads any stage file
    staged = ["report", "--out", str(tmp_path / "o")]
    assert main(staged + [flag, value]) == 1
    assert main(staged + ["--config", str(cfg)]) == 1
    assert key in capsys.readouterr().err.splitlines()[-1]


@pytest.fixture(scope="module")
def staged_out(tiny_corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("staged") / "out"
    for sub, needs_manifest in STAGES:
        argv = [sub, "--out", str(out)]
        assert main(argv + (["--manifest", str(tiny_corpus)] if needs_manifest else [])) == 0
    return out


def _truncate_events(text):
    return text[: text.index("\n", len(text) // 2) + 12]


def _set_cell(column, value, predicate=lambda fields: True):
    """Damage: `column` set to `value` in the first data row that
    satisfies `predicate` (a dict of the row's cells)."""
    def damage(text):
        lines = text.split("\n")
        header = lines[0].split(",")
        for i, line in enumerate(lines[1:], start=1):
            fields = line.split(",")
            if predicate(dict(zip(header, fields))):
                fields[header.index(column)] = value
                lines[i] = ",".join(fields)
                return "\n".join(lines)
        raise AssertionError(f"no row to damage in {header}")
    return damage


@pytest.mark.parametrize("stage,name,damage,message", [
    ("dissect", "events.csv", _truncate_events, r"events\.csv: line \d+: \d+ fields"),
    ("report", "binned.csv", lambda t: t.replace("label", "kind", 1), r"binned\.csv: header"),
    ("report", "influence.csv", lambda t: t.replace(",corpus,", ",corpus", 1),
     r"influence\.csv: line \d+: 10 fields"),
    ("influence", "subevents.csv", lambda t: t.replace(",peak,", ",peak,x", 1),
     r"subevents\.csv: line \d+: cannot parse onset"),
    ("influence", "subevents.csv", lambda t: t.replace(",peak,", ",peek,", 1),
     r"subevents\.csv: line \d+: cannot parse phase 'peek'"),
    ("influence", "subevents.csv", lambda t: t.replace(":sac000,", ":sac999,", 1),
     r"subevents\.csv: line \d+: sub-event parent '[^']+:sac999' is not a retained saccade"),
    ("dissect", "events.csv", _set_cell("offset", "5000"),
     r"events\.csv: line 2: interval \[\d+, 5000\] outside window '[^']+' of length 1000"),
    ("influence", "events.csv", _set_cell("onset", "-1"),
     r"events\.csv: line 2: interval \[-1, \d+\] outside window '[^']+' of length 1000"),
    ("influence", "subevents.csv", _set_cell("offset", "5000", lambda r: r["phase"] == "pre"),
     r"subevents\.csv: line \d+: interval \[\d+, 5000\] outside window '[^']+' of length 1000"),
    ("influence", "subevents.csv", _set_cell("window_id", "rec00-w9999"),
     r"subevents\.csv: line 2: window_id 'rec00-w9999' is not '[^']+', the window of its parent"),
    ("report", "preprocess_stats.json", lambda t: '{"windows": 1}',
     r"preprocess_stats\.json: no 'windows\.evaluated'"),
    ("report", "preprocess_stats.json", lambda t: t[:-5], r"preprocess_stats\.json: not valid"),
    ("report", "dissect_stats.json", lambda t: "{}", r"dissect_stats\.json: no"),
    ("report", "influence.csv", lambda t: t + "bogus,corpus,,1000,10,20,5,25,25,1,0\n",
     r"influence\.csv: line \d+: cannot parse concept 'bogus'"),
    ("report", "binned.csv", lambda t: t.replace("\nsaccade_duration_ms,", "\nbogus,", 1),
     r"binned\.csv: line \d+: cannot parse property 'bogus'"),
])
def test_malformed_stage_file_exits_2(tiny_corpus, staged_out, tmp_path, capsys,
                                      stage, name, damage, message):
    out = tmp_path / "out"
    shutil.copytree(staged_out, out)
    (out / name).write_text(damage((out / name).read_text()))
    argv = [stage, "--out", str(out)]
    assert main(argv + ["--manifest", str(tiny_corpus)]) == 2
    assert re.search(message, capsys.readouterr().err.splitlines()[-1])


def _bin(manifest, staged_out, tmp_path, *flags):
    """Exit code of `bin` on a copy of the staged outputs, and the copy."""
    out = tmp_path / "out"
    shutil.copytree(staged_out, out)
    return main(["bin", "--out", str(out), "--manifest", str(manifest), *flags]), out


def test_bin_reads_topk_not_attributions(tiny_corpus, staged_out, tmp_path, monkeypatch):
    def parse(*args, **kwargs):
        raise AssertionError("bin parsed an attribution file")
    monkeypatch.setattr(gio, "load_attribution", parse)
    code, out = _bin(tiny_corpus, staged_out, tmp_path)
    assert code == 0
    assert (out / "binned.csv").read_bytes() == (staged_out / "binned.csv").read_bytes()


@pytest.mark.parametrize("flags,message", [
    (["--top-frac", "0.05"], r"topk\.npz: k=20, but top_frac 0\.05 of 1000 steps gives k=50"),
    (["--squash", "abs"], r"topk\.npz: squash 'signed', but this run uses 'abs'"),
])
def test_bin_rejects_stale_topk(tiny_corpus, staged_out, tmp_path, capsys, flags, message):
    assert _bin(tiny_corpus, staged_out, tmp_path, *flags)[0] == 2
    err = capsys.readouterr().err.splitlines()[-1]
    assert re.search(message, err) and err.endswith("rerun influence")


def test_bin_rejects_topk_of_other_windows(tiny_corpus, staged_out, tmp_path, capsys):
    manifest = _relocated_manifest(tiny_corpus, tmp_path / "m")
    doc = json.loads(manifest.read_text())
    doc["entries"].reverse()
    manifest.write_text(json.dumps(doc))
    assert _bin(manifest, staged_out, tmp_path)[0] == 2
    assert re.search(r"topk\.npz: window ids differ", capsys.readouterr().err)


def test_influence_in_another_window_order_writes_the_same_table(tiny_corpus, staged_out,
                                                                  tmp_path):
    """Staged influence takes the windows file's rows in manifest order;
    influence.csv is sorted, so only topk.npz's row order changes."""
    manifest = _relocated_manifest(tiny_corpus, tmp_path / "m")
    doc = json.loads(manifest.read_text())
    doc["entries"].reverse()
    manifest.write_text(json.dumps(doc))
    out = tmp_path / "out"
    shutil.copytree(staged_out, out)
    assert main(["influence", "--out", str(out), "--manifest", str(manifest)]) == 0
    assert (out / "influence.csv").read_bytes() == (staged_out / "influence.csv").read_bytes()
    ids, masks, _, _ = gio.read_topk(out / "topk.npz", 1000)
    want_ids, want, _, _ = gio.read_topk(staged_out / "topk.npz", 1000)
    assert ids == want_ids[::-1] and (masks == want[::-1]).all()


def test_bin_rejects_foreign_topk_file(tiny_corpus, staged_out, tmp_path, capsys):
    foreign = tmp_path / "foreign"
    shutil.copytree(staged_out, foreign)
    with (foreign / "topk.npz").open("wb") as fh:
        np.savez(fh, indices=np.zeros((2, 20), dtype=np.int32))
    assert _bin(tiny_corpus, foreign, tmp_path)[0] == 2
    assert re.search(r"topk\.npz: not a top-k file", capsys.readouterr().err)
