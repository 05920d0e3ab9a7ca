import argparse
import json
import re
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gazeconcepts import io as gio
from gazeconcepts.cli import build_parser, main
from gazeconcepts.errors import ConfigError
from gazeconcepts.influence import ALL_CONCEPTS
from gazeconcepts.io import write_attribution, write_gaze_csv
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

from conftest import gappy_corpus, pipeline_windows
from reference import stored_windows, whole_stack


@pytest.fixture(scope="module")
def tiny_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny")
    spec = CorpusSpec(seed=5, n_recordings=2, duration_s=6.0)
    manifest = write_demo_corpus(root / "corpus", spec)
    return manifest


@pytest.fixture(scope="module")
def noisy_corpus(tmp_path_factory):
    """Enough velocity noise that peak phases have gaps: its dissections
    disregard samples."""
    spec = CorpusSpec(seed=4, n_recordings=2, duration_s=20, window_len=250,
                      noise_velocity_sigma_dps=20)
    return write_demo_corpus(tmp_path_factory.mktemp("noisy") / "corpus", spec)


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


def test_run_prints_each_present_concept(tiny_corpus, tmp_path, capsys):
    """After its summary line `run` prints one row per concept present:
    c_pooled, c_mean, top-k hits and |S|/L, as report.json has them."""
    out = tmp_path / "out"
    assert main(["run", "--manifest", str(tiny_corpus), "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("run complete: 12 windows")
    assert lines[1].split() == ["concept", "c_pooled", "c_mean", "top-k", "hits", "|S|/L"]
    concepts = json.loads((out / "report.json").read_text())["concepts"]
    rows = [line.split() for line in lines[2:]]
    assert [row[0] for row in rows] == sorted(ALL_CONCEPTS) == sorted(concepts)
    for concept, c_pooled, c_mean, hits, relative in rows:
        doc = concepts[concept]
        assert c_pooled == f"{doc['c_pooled']:.3f}" and c_mean == f"{doc['c_mean']:.3f}"
        assert int(hits) == doc["top_k_intersection"]
        assert relative == f"{doc['relative_size']:.3f}"


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


@pytest.mark.parametrize("text,message", [
    ("[DEFAULT]\nbogus_key = 1\nsg_window = 4\n", "unknown config key 'bogus_key'"),
    ("[DEFAULT]\nsg_window = 4\n", "sg_window/sg_order: window_length must be"),
    ("sg_window = 9\n", "cfg.ini: File contains no section headers"),
    ("[detect]\nsacc_lambda = 8\n[detect]\nbins = 5\n", "cfg.ini: .*section 'detect' already"),
    ("[run]\nbins = 5\nbins = 6\n", "cfg.ini: .*option 'bins' in section 'run' already"),
    ("[run]\nformat = %(x)s\n", "cfg.ini: .*interpolation"),
    ("[run]\nformat = \xe9\n", "cfg.ini: .*can't decode"),
    ("[run]\nbin_mode = explicit\nbin_edges = nan,1\n",
     r"bin_edges must be finite, got \[nan, 1\.0\]"),
    ("[run]\nbin_mode = explicit\nbin_edges = 0,inf\n",
     r"bin_edges must be finite, got \[0\.0, inf\]"),
])
def test_bad_config_file_exits_1(tiny_corpus, tmp_path, capsys, text, message):
    cfg = tmp_path / "cfg.ini"
    cfg.write_bytes(text.encode("latin-1"))
    assert main(["run", "--manifest", str(tiny_corpus), "--out", str(tmp_path / "o"),
                 "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert re.search(message, err.splitlines()[-1]) and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_default_section_keys_are_read(tiny_corpus, tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[DEFAULT]\nsg_window = 9\nbins = 7\n[binning]\nbins = 5\n")
    out = tmp_path / "out"
    assert main(["run", "--manifest", str(tiny_corpus), "--out", str(out),
                 "--config", str(cfg), "--no-charts"]) == 0
    log = json.loads((out / "run_log.json").read_text())
    assert (log["parameters"]["sg_window"], log["parameters"]["bins"]) == (9, 5)


def test_config_file_with_byte_order_mark_is_read(tiny_corpus, tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("\ufeff[detect]\nsacc_lambda = 8\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--manifest", str(tiny_corpus), "--out", str(out),
                 "--config", str(cfg), "--no-charts"]) == 0
    assert json.loads((out / "run_log.json").read_text())["parameters"]["sacc_lambda"] == 8.0


def test_env_var_default_out(tiny_corpus, tmp_path, monkeypatch):
    out = tmp_path / "env_out"
    monkeypatch.setenv("GAZECONCEPTS_OUT", str(out))
    assert main(["run", "--manifest", str(tiny_corpus)]) == 0
    assert (out / "report.json").exists()


STAGES = (("preprocess", True), ("detect", False), ("dissect", False),
          ("influence", True), ("bin", False), ("report", False))


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


def test_staged_pipeline_matches_run(tiny_corpus, noisy_corpus, tmp_path):
    run_out, staged = _run_and_staged(tiny_corpus, tmp_path)
    assert (staged / "windows.npz").exists()
    written = _run_artifacts(run_out)
    assert Path("charts", "by_saccade_amplitude_deg.svg") in written
    for rel in written:
        assert (staged / rel).read_bytes() == (run_out / rel).read_bytes(), rel
    # staged report counts the disregarded samples from subevents.csv
    run_out, staged = _run_and_staged(noisy_corpus, tmp_path / "noisy", ["--window-len", "250"])
    dissection = json.loads((run_out / "report.json").read_text())["counts"]["dissection"]
    assert dissection["saccades_dissected"] > 0 and dissection["disregarded_samples"] > 0
    _assert_staged_matches(run_out, staged)


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

    run_out, staged = _run_and_staged(manifest, tmp_path)
    doc = json.loads((run_out / "report.json").read_text())
    assert doc["concepts"]["saccade"] == {"windows": 0, "windows_skipped": 3}
    assert doc["bins"]["saccade_duration_ms"] == []
    for rel in _run_artifacts(run_out):
        assert (staged / rel).read_bytes() == (run_out / rel).read_bytes(), rel


def test_staged_matches_run_with_missing_samples(tmp_path):
    """Runs of missing samples, written as empty cells, reach the edges
    and the interiors of windows of 40 samples; the windows file rebuilds
    their velocities and valid flags exactly."""
    manifest = gappy_corpus(tmp_path / "corpus", window_len=40)
    assert ",,\n" in (tmp_path / "corpus" / "rec00.csv").read_text()
    run_out, staged = _run_and_staged(manifest, tmp_path, ["--window-len", "40"])
    window_ids, _, recordings = stored_windows(staged / "windows.npz")
    assert not whole_stack(recordings, window_ids)[0].valid.all()
    counts = json.loads((run_out / "report.json").read_text())["counts"]["windows"]
    assert counts["excluded_missing"] > 0
    for rel in _run_artifacts(run_out):
        assert (staged / rel).read_bytes() == (run_out / rel).read_bytes(), rel


def _assert_staged_matches(run_out, staged):
    written = _run_artifacts(run_out)
    assert written
    for rel in written:
        assert (staged / rel).read_bytes() == (run_out / rel).read_bytes(), rel


def test_staged_matches_run_on_every_other_window_in_reverse(tiny_corpus, tmp_path):
    """The windows file stores every sample of both recordings; the
    manifest asks for half their windows, last first."""
    manifest = _relocated_manifest(tiny_corpus, tmp_path / "m")
    doc = json.loads(manifest.read_text())
    doc["entries"] = doc["entries"][::-2]
    assert len({e["recording"] for e in doc["entries"]}) == 2
    manifest.write_text(json.dumps(doc))
    run_out, staged = _run_and_staged(manifest, tmp_path)
    window_ids, _, recordings = stored_windows(staged / "windows.npz")
    assert whole_stack(recordings, window_ids)[0].window_ids == window_ids == [
        e["window_id"] for e in doc["entries"]]
    _assert_staged_matches(run_out, staged)


def test_staged_matches_run_on_the_left_eye_of_binocular_recordings(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    rng = np.random.default_rng(8)
    sigma = positional_noise_sigma(0.5, SavGolParams())
    entries = []
    for i in range(2):
        mono, _ = gen_scanpath(random_plan(20 + i, 3.0, noise_sigma_deg=sigma), 20 + i,
                               recording_id=f"bino{i}")
        right = tuple(c + rng.normal(0.0, 0.05, len(c)) for c in (mono.x_deg, mono.y_deg))
        write_gaze_csv(replace(mono, eyes={"left": (mono.x_deg, mono.y_deg), "right": right},
                               eye="binocular"), corpus / f"bino{i}.csv")
        windows, _ = pipeline_windows(mono)
        for row, window_id in enumerate(windows.window_ids):
            write_attribution(gen_proxy_attributions(windows, row, "speed"),
                              corpus / f"{window_id}.csv")
            entries.append({"recording": f"bino{i}.csv",
                            "attribution": f"{window_id}.csv", "window_id": window_id})
    manifest = corpus / "manifest.json"
    manifest.write_text(json.dumps({"entries": entries}))
    run_out, staged = _run_and_staged(manifest, tmp_path, ["--eye", "left"])
    _assert_staged_matches(run_out, staged)
    assert main(["run", "--manifest", str(manifest), "--out", str(tmp_path / "right")]) == 0
    right_events = (tmp_path / "right" / "events.csv").read_bytes()
    assert right_events != (run_out / "events.csv").read_bytes()


def test_failed_preprocess_leaves_no_windows_file(tiny_corpus, tmp_path, capsys):
    """A manifest window that windowing does not produce leaves no
    windows file."""
    manifest = _relocated_manifest(tiny_corpus, tmp_path / "m")
    doc = json.loads(manifest.read_text())
    doc["entries"][-1]["window_id"] = "rec01-w9999"
    manifest.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["preprocess", "--manifest", str(manifest), "--out", str(out)]) == 2
    assert "window_id 'rec01-w9999' is not among the windows" in capsys.readouterr().err
    assert out.is_dir() and not (out / "windows.npz").exists()


def test_failed_preprocess_leaves_no_earlier_stage_files(tiny_corpus, staged_out, tmp_path,
                                                         capsys):
    """A failed preprocess over a finished staged chain removes every
    stage file and the charts, so `report` cannot build from them."""
    out = tmp_path / "out"
    shutil.copytree(staged_out, out)
    assert (out / "charts").is_dir() and (out / "report.json").exists()
    manifest = _relocated_manifest(tiny_corpus, tmp_path / "m")
    doc = json.loads(manifest.read_text())
    doc["entries"][-1]["window_id"] = "rec01-w9999"
    manifest.write_text(json.dumps(doc))
    assert main(["preprocess", "--manifest", str(manifest), "--out", str(out)]) == 2
    assert not any(out.iterdir())
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) != 0
    err = capsys.readouterr().err.splitlines()[-1]
    assert err.startswith("error: ") and str(out / "windows.npz") in err, err
    assert not (out / "report.json").exists()


@pytest.fixture(scope="module")
def short_windows(tmp_path_factory):
    """Two 6 s recordings in windows of 250 samples (run with W250)."""
    spec = CorpusSpec(seed=5, n_recordings=2, duration_s=6, window_len=250)
    return write_demo_corpus(tmp_path_factory.mktemp("short") / "corpus", spec)


W250 = ["--window-len", "250"]


def _blocked_charts(out):
    """An output directory holding a regular file named charts, so that
    the first chart written into it fails."""
    out.mkdir()
    (out / "charts").write_text("not a directory\n")
    return out


def test_failed_staged_stage_leaves_none_of_its_files(short_windows, tmp_path, capsys):
    """influence writes topk.npz and influence.csv before its charts fail;
    it removes both, so bin cannot go on from them."""
    out = _blocked_charts(tmp_path / "out")
    m = ["--manifest", str(short_windows)]
    for stage in ("preprocess", "detect", "dissect"):
        assert main([stage, "--out", str(out), *W250, *m]) == 0, stage
    capsys.readouterr()
    assert main(["influence", "--out", str(out), *W250, *m]) == 3
    assert str(out / "charts") in capsys.readouterr().err
    assert not (out / "topk.npz").exists() and not (out / "influence.csv").exists()
    assert main(["bin", "--out", str(out), *W250, "--no-charts"]) != 0
    err = capsys.readouterr().err.splitlines()[-1]
    assert str(out / "topk.npz") in err, err
    assert not (out / "binned.csv").exists()


def test_failed_run_write_leaves_only_an_incomplete_marker(short_windows, tmp_path, capsys):
    out = _blocked_charts(tmp_path / "out")
    assert main(["run", "--manifest", str(short_windows), "--out", str(out), *W250]) == 3
    err = capsys.readouterr().err.splitlines()[-1]
    assert err.startswith("error: [stage report] "), err
    assert sorted(p.name for p in out.iterdir()) == ["INCOMPLETE", "charts"]
    assert (out / "INCOMPLETE").read_text() == err.removeprefix("error: ") + "\n"


def test_run_removes_the_marker_of_an_earlier_failed_run(short_windows, tmp_path):
    out = _blocked_charts(tmp_path / "out")
    argv = ["run", "--manifest", str(short_windows), "--out", str(out), *W250]
    assert main(argv) == 3 and (out / "INCOMPLETE").exists()
    (out / "charts").unlink()
    assert main(argv) == 0
    assert not (out / "INCOMPLETE").exists() and (out / "run_log.json").exists()


def test_preprocess_removes_the_run_log_of_an_earlier_run(short_windows, tmp_path):
    out, m = tmp_path / "out", ["--manifest", str(short_windows)]
    assert main(["run", "--out", str(out), *W250, *m, "--sacc-lambda", "9"]) == 0
    assert main(["preprocess", "--out", str(out), *W250, *m]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["windows.npz"]


def test_bin_cannot_mix_an_earlier_chain_with_a_later_run(short_windows, tmp_path, capsys):
    """`run` removes the stage files of a staged chain through influence,
    so a later bin fails instead of binning run's events against the
    chain's top-k masks."""
    out, m = tmp_path / "out", ["--manifest", str(short_windows)]
    for stage in ("preprocess", "detect", "dissect", "influence"):
        assert main([stage, "--out", str(out), *W250, *m]) == 0, stage
    assert main(["run", "--out", str(out), *W250, *m, "--top-frac", "0.04"]) == 0
    binned = (out / "binned.csv").read_bytes()
    assert not (out / "topk.npz").exists() and not (out / "windows.npz").exists()
    capsys.readouterr()
    assert main(["bin", "--out", str(out), *W250]) != 0
    assert str(out / "windows.npz") in capsys.readouterr().err.splitlines()[-1]
    assert (out / "binned.csv").read_bytes() == binned


def test_run_artifacts_do_not_depend_on_manifest_order(tmp_path):
    manifest = write_demo_corpus(tmp_path / "corpus",
                                 CorpusSpec(seed=3, n_recordings=2, duration_s=30))
    doc = json.loads(manifest.read_text())
    doc["entries"].reverse()
    reversed_manifest = manifest.with_name("reversed.json")
    reversed_manifest.write_text(json.dumps(doc))
    outs = [tmp_path / "forward", tmp_path / "reversed"]
    for m, out in zip((manifest, reversed_manifest), outs):
        assert main(["run", "--manifest", str(m), "--out", str(out)]) == 0
    written = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*") if p.is_file())
    assert Path("run_log.json") in written
    assert written == sorted(p.relative_to(outs[1]) for p in outs[1].rglob("*") if p.is_file())
    for rel in written:
        assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes(), rel


def test_removed_norm_scope_option_exits_1(tiny_corpus, tmp_path, capsys):
    base = ["run", "--manifest", str(tiny_corpus), "--out", str(tmp_path / "o")]
    assert main(base + ["--norm-scope", "corpus"]) == 1
    assert "--norm-scope" in capsys.readouterr().err
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[preprocess]\nnorm_scope = corpus\n")
    assert main(base + ["--config", str(cfg)]) == 1
    assert "unknown config key 'norm_scope'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag,key,value", [
    ("--format", "format", "json"),
    ("--aggregate", "aggregate", "mean"),
])
def test_removed_chart_and_table_options_exit_1(tiny_corpus, tmp_path, capsys, flag, key,
                                                 value):
    base = ["run", "--manifest", str(tiny_corpus), "--out", str(tmp_path / "o")]
    assert main(base + [flag, value]) == 1
    assert flag in capsys.readouterr().err
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(f"[report]\n{key} = {value}\n")
    assert main(base + ["--config", str(cfg)]) == 1
    assert f"unknown config key {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_readme_flag_table_lists_every_run_flag():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("The flags, by stage")[1].split("\n\n")[1]
    listed = {flag for cell in re.findall(r"`(--[^`]*)`", table)
              for flag in cell.split()[0].split("/")}
    (subparsers,) = [a for a in build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    flags = {s for a in subparsers.choices["run"]._actions for s in a.option_strings}
    assert listed == flags - {"-h", "--help", "--manifest", "--out", "--config"}


def test_empty_manifest_is_a_data_error_for_run(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    manifest.write_text('{"entries": []}')
    assert main(["run", "--manifest", str(manifest), "--out", str(tmp_path / "run")]) == 2
    assert "manifest yields no evaluation windows" in capsys.readouterr().err
    out = tmp_path / "staged"
    assert main(["preprocess", "--manifest", str(manifest), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: manifest yields no evaluation windows"]
    assert out.is_dir() and not any(out.iterdir())


def test_synth_subcommand(tmp_path, capsys):
    out = tmp_path / "corpus"
    assert main(["synth", "--out", str(out), "--seed", "9", "--recordings", "1",
                 "--duration-s", "4"]) == 0
    assert (out / "manifest.json").exists()
    assert (out / "gt_events.csv").exists()
    assert any((out / "recordings").iterdir())
    assert any((out / "attributions").iterdir())


@pytest.mark.parametrize("flags,field", [
    (["--saccade-ms", "60", "20"], "saccade_ms"),
    (["--fixation-ms", "100", "50"], "fixation_ms"),
    (["--peak-dps", "400", "100"], "peak_velocity_dps"),
    (["--peak-dps", "0", "100"], "peak_velocity_dps"),
    (["--seed", "-1"], "seed"),
    (["--window-len", "0"], "window_len"),
    (["--recordings", "0"], "n_recordings"),
    (["--recordings", "-1"], "n_recordings"),
    (["--noise-vel-sigma", "-1"], "noise_velocity_sigma_dps"),
    (["--duration-s", "0"], "duration_s"),
    (["--duration-s", "nan"], "duration_s"),
])
def test_synth_rejects_bad_arguments(tmp_path, capsys, flags, field):
    """Each argument out of range is a configuration error naming its
    CorpusSpec field, before anything is written."""
    out = tmp_path / "corpus"
    argv = ["synth", "--out", str(out), "--recordings", "1", "--duration-s", "3", *flags]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (line,) = err.splitlines()
    assert line.startswith(f"error: {field} must be "), line
    assert not out.exists()


def test_synth_refuses_a_corpus_without_evaluation_windows(tmp_path, capsys):
    out = tmp_path / "corpus"
    argv = ["synth", "--out", str(out), "--recordings", "1", "--duration-s", "0.5"]
    assert main(argv) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert re.fullmatch(r"error: duration_s 0\.5 gives rec00 \d+ samples, fewer than "
                        r"window_len 1000: no evaluation window", line), line
    assert not out.exists()


def test_synth_refuses_a_corpus_over_the_sample_cap(tmp_path, capsys):
    """Checked on the spec before synth runs: at a version without the cap
    this synth call would not return."""
    with pytest.raises(ConfigError, match=r"must be at most 2500000 samples, got 4e\+12"):
        CorpusSpec(duration_s=1e9).validate()
    out = tmp_path / "corpus"
    assert main(["synth", "--out", str(out), "--duration-s", "1e9"]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line == ("error: n_recordings x duration_s x sampling_rate_hz must be at most "
                    "2500000 samples, got 4e+12")
    assert not out.exists()


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
    assert {"windows.npz", "events.csv", "subevents.csv", "topk.npz", "influence.csv",
            "binned.csv", "report.json"} <= written
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


def _drop_parent(event_id):
    """Damage: every sub-event row of the saccade `event_id` deleted."""
    def damage(text):
        lines = text.split("\n")
        kept = [line for line in lines if not line.startswith(f"{event_id},")]
        assert len(lines) - len(kept) == 5
        return "\n".join(kept)
    return damage


NO_PEAK = (r"subevents\.csv: retained saccade 'rec00-w0000:sac000' has no peak segment; "
           "rerun dissect")


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
    ("report", "subevents.csv", lambda t: t.replace(",peak,", ",peek,", 1),
     r"subevents\.csv: line \d+: cannot parse phase 'peek'"),
    ("influence", "subevents.csv", _drop_parent("rec00-w0000:sac000"), NO_PEAK),
    ("report", "subevents.csv", _drop_parent("rec00-w0000:sac000"), NO_PEAK),
    ("report", "events.csv", _set_cell("offset", "5000"),
     r"events\.csv: line 2: interval \[\d+, 5000\] outside window '[^']+' of length 1000"),
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


NOT_UTF8 = b"\xff\xfe not UTF-8\n"


def _entry(**fields):
    return {"recording": "r.csv", "attribution": "a.csv", "window_id": "r-w0000", **fields}


@pytest.mark.parametrize("doc,message", [
    ({"entries": 5}, "manifest must be an object with an 'entries' list"),
    ([], "manifest must be an object with an 'entries' list"),
    ({"entries": [5]}, "entry 0 is not an object"),
    ({"entries": [_entry(window_id=["r-w0000"])]}, "entry 0: window_id missing or not a string"),
    ({"entries": [_entry(recording=3)]}, "entry 0: recording missing or not a string"),
    ({"entries": [_entry(attribution=None)]}, "entry 0: attribution missing or not a string"),
    ({"entries": [], "config": ["cfg.ini"]}, "'config' must be a string"),
    ({"entries": [], "output_dir": 1}, "'output_dir' must be a string"),
    (NOT_UTF8, "not UTF-8 text"),
])
def test_malformed_manifest_exits_2(tmp_path, capsys, doc, message):
    manifest = tmp_path / "manifest.json"
    if isinstance(doc, bytes):
        manifest.write_bytes(doc)
    else:
        manifest.write_text(json.dumps(doc))
    for argv in (["run"], ["preprocess"], ["report"]):
        assert main([*argv, "--manifest", str(manifest), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith(f"error: {manifest}: {message}"), err
        assert "Traceback" not in err


@pytest.mark.parametrize("which", ["recording", "attribution"])
def test_undecodable_input_exits_2(tiny_corpus, tmp_path, capsys, which):
    manifest = _relocated_manifest(tiny_corpus, tmp_path / "m")
    doc = json.loads(manifest.read_text())
    bad = tmp_path / "m" / "bad.csv"
    bad.write_bytes(NOT_UTF8 if which == "recording" else b"D=2\nL=1000\n" + NOT_UTF8)
    doc["entries"][0][which] = str(bad)
    if which == "recording":
        doc["entries"] = doc["entries"][:1]
    manifest.write_text(json.dumps(doc))
    assert main(["run", "--manifest", str(manifest), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"{bad}: not UTF-8 text" in err.splitlines()[-1] and "Traceback" not in err


@pytest.mark.parametrize("which,text,message", [
    ("recording", "t_ms,x_deg,y_deg\n", "need at least 7 samples, got 0"),
    ("recording", "t_ms,x_deg,y_deg\n0,1,2\n1,1,2\n2,1,2\n", "need at least 7 samples, got 3"),
    ("attribution", "D=2\nL=99999999999999999999\n1,2\n3,4\n",
     "channel 0 has 2 values, declared L=99999999999999999999"),
    ("attribution", "D=2\nL=9999999999\n1,2\n3,4\n",
     "channel 0 has 2 values, declared L=9999999999"),
])
def test_unusable_input_error_names_the_file(tiny_corpus, tmp_path, capsys, which, text,
                                            message):
    manifest = _relocated_manifest(tiny_corpus, tmp_path / "m")
    doc = json.loads(manifest.read_text())
    bad = tmp_path / "m" / "bad.csv"
    bad.write_text(text)
    doc["entries"][0][which] = str(bad)
    manifest.write_text(json.dumps(doc))
    assert main(["run", "--manifest", str(manifest), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"{bad}: {message}" in err.splitlines()[-1] and "Traceback" not in err


def _bin(manifest, staged_out, tmp_path, *flags):
    """Exit code of `bin` on a copy of the staged outputs, and the copy;
    `bin` is given `manifest` unless it is None."""
    out = tmp_path / "out"
    shutil.copytree(staged_out, out)
    flags += ("--manifest", str(manifest)) if manifest is not None else ()
    return main(["bin", "--out", str(out), *flags]), out


def test_bin_reads_topk_not_attributions(staged_out, tmp_path, monkeypatch):
    """`bin` reads no manifest: without one it rewrites binned.csv."""
    def parse(*args, **kwargs):
        raise AssertionError("bin parsed an attribution file")
    monkeypatch.setattr(gio, "load_attribution", parse)
    code, out = _bin(None, staged_out, tmp_path)
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


def test_bin_rejects_topk_of_other_windows(staged_out, tmp_path, capsys):
    """A topk.npz whose window ids are windows.npz's in another order."""
    other = tmp_path / "other"
    shutil.copytree(staged_out, other)
    ids, masks, _, squash = gio.read_topk(other / "topk.npz", 1000)
    gio.write_topk(ids[::-1], masks[::-1], other / "topk.npz", squash)
    assert _bin(None, other, tmp_path)[0] == 2
    err = capsys.readouterr().err.splitlines()[-1]
    assert re.search(r"topk\.npz: window ids differ from the windows file's", err)
    assert err.endswith("rerun influence")


def _snapshot(out):
    return {p: (p.stat().st_mtime_ns, p.read_bytes()) for p in out.rglob("*") if p.is_file()}


@pytest.mark.parametrize("variant", ["reversed", "renamed"])
@pytest.mark.parametrize("stage", ["detect", "dissect", "influence", "bin", "report"])
def test_stage_rejects_a_manifest_other_than_the_windows_file(tiny_corpus, staged_out,
                                                              tmp_path, capsys, stage,
                                                              variant):
    """A manifest given to a stage must name windows.npz's windows in the
    file's order: the reversed manifest, and one with a window renamed,
    make each stage exit 2 before it writes anything."""
    manifest = _relocated_manifest(tiny_corpus, tmp_path / "m")
    doc = json.loads(manifest.read_text())
    if variant == "reversed":
        doc["entries"].reverse()
    else:
        doc["entries"][0]["window_id"] = "rec00-w9999"
    manifest.write_text(json.dumps(doc))
    out = tmp_path / "out"
    shutil.copytree(staged_out, out)
    before = _snapshot(out)
    assert main([stage, "--out", str(out), "--manifest", str(manifest)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {out / 'windows.npz'}: window ids differ from the manifest's; "
                   "rerun preprocess"]
    assert _snapshot(out) == before


@pytest.mark.parametrize("stage", ["detect", "dissect", "influence", "bin", "report"])
def test_stage_rejects_a_windows_file_without_eye(tiny_corpus, staged_out, tmp_path, capsys,
                                                  stage):
    """A windows file of the format before `eye` was stored is refused by
    every stage that reads it, asking for preprocess to be rerun."""
    out = tmp_path / "out"
    shutil.copytree(staged_out, out)
    with np.load(out / "windows.npz") as npz:
        arrays = {name: npz[name] for name in npz.files if name != "eye"}
    with (out / "windows.npz").open("wb") as fh:
        np.savez(fh, **arrays)
    assert main([stage, "--out", str(out), "--manifest", str(tiny_corpus)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {out / 'windows.npz'}: not a windows file this version writes; "
        "rerun preprocess"]


def test_staged_report_echoes_the_window_parameters_of_the_windows_file(tmp_path):
    """Window flags given to preprocess alone reach every staged artifact,
    report.json's parameter echo included, as `run` given them writes it."""
    spec = CorpusSpec(seed=5, n_recordings=2, duration_s=6, window_len=250)
    manifest = str(write_demo_corpus(tmp_path / "corpus", spec))
    flags = ["--window-len", "250", "--sg-window", "11"]
    run_out, staged = tmp_path / "direct", tmp_path / "staged"
    assert main(["run", "--manifest", manifest, "--out", str(run_out), *flags]) == 0
    for sub, needs_manifest in STAGES:
        argv = [sub, "--out", str(staged)] + (flags if sub == "preprocess" else [])
        assert main(argv + (["--manifest", manifest] if needs_manifest else [])) == 0, sub
    echo = json.loads((staged / "report.json").read_text())["parameters"]
    assert (echo["sg_window"], echo["window_len"]) == (11, 250)
    _assert_staged_matches(run_out, staged)


def test_bin_rejects_foreign_topk_file(tiny_corpus, staged_out, tmp_path, capsys):
    foreign = tmp_path / "foreign"
    shutil.copytree(staged_out, foreign)
    with (foreign / "topk.npz").open("wb") as fh:
        np.savez(fh, indices=np.zeros((2, 20), dtype=np.int32))
    assert _bin(tiny_corpus, foreign, tmp_path)[0] == 2
    assert re.search(r"topk\.npz: not a top-k file", capsys.readouterr().err)


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    """One 4 s recording in 16 windows of 250 samples."""
    spec = CorpusSpec(seed=7, n_recordings=1, duration_s=4.0, window_len=250)
    return write_demo_corpus(tmp_path_factory.mktemp("small") / "corpus", spec).parent


def _cells(*changes):
    """Gaze text with (data row, column) set to a token, per change."""
    def edit(text):
        lines = text.split("\n")
        for row, column, token in changes:
            fields = lines[row].split(",")
            fields[column] = token
            lines[row] = ",".join(fields)
        return "\n".join(lines)
    return edit


def _each_row(make, header=None):
    """Gaze text with every data row's fields replaced by make(fields),
    and the header line by `header` if given."""
    def edit(text):
        lines = text.rstrip("\n").split("\n")
        rows = [",".join(make(line.split(","))) for line in lines[1:]]
        return "\n".join([header or lines[0], *rows]) + "\n"
    return edit


def _gaze(edit):
    def mutate(root, doc):
        path = root / doc["entries"][0]["recording"]
        path.write_text(edit(path.read_text()))
        return [path]
    return mutate


def _attribution(text):
    def mutate(root, doc):
        path = root / doc["entries"][0]["attribution"]
        path.write_text(text)
        return [path]
    return mutate


def _recording(*spellings):
    """The first entries' recordings spelled as given; a spelling under
    other/ is a copy of the recording there."""
    def mutate(root, doc):
        named = []
        for entry, spelling in zip(doc["entries"], spellings):
            if spelling.startswith("other/"):
                (root / "other").mkdir(exist_ok=True)
                shutil.copy(root / entry["recording"], root / spelling)
            entry["recording"] = spelling
            named.append(root / spelling)
        return named
    return mutate


def _dense(values):
    return "D=2\nL=250\n" + "\n".join(",".join([values] * 250) for _ in range(2)) + "\n"


@pytest.mark.parametrize("mutate,want_code,want_text", [
    (_gaze(_cells((100, 1, "1e308"))), None, None),
    (_gaze(_cells((100, 1, "1e308"), (101, 1, "-1e308"), (102, 2, "-1e308"))), None, None),
    (_gaze(_cells((100, 1, "inf"))), None, None),
    (_gaze(_each_row(lambda f: [f[0], "", ""])), 2,
     "window_id 'rec00-w0000' is not among the windows of this recording (0 retained, "
     "16 excluded with more than 0.5 of their samples missing, 44 tail samples)"),
    (_gaze(_cells((100, 0, '"99"'))), None, None),
    (_gaze(_cells((100, 1, "1.0\x00"))), None, None),
    (_gaze(_each_row(lambda f: [*f, f[1]], header="t_ms,x_deg,y_deg,x_deg")), 0, None),
    (_gaze(_each_row(lambda f: [f[0], "1.5", "-2.0"])), None, None),
    (_attribution("D=2\nL=2.5\n1,2\n3,4\n"), None, None),
    (_attribution("D=-1\nL=250\n"), None, None),
    (_attribution("D=2\nL=250\ntarget=\n"), None, None),
    (_attribution("channel,index,value\n0,99999999999999999999,1.0\n"), None, None),
    (_attribution("channel,index,value\n0,-3,1.0\n"), None, None),
    (_attribution("channel,index,value\n"), None, None),
    (_attribution(_dense("1e308")), None, None),
    (_recording("recordings"), None, None),
    (_recording("recordings/rec00.csv", "other/rec00.csv"), None, None),
    (_recording("recordings/rec00.csv", "./recordings/rec00.csv"), 0, None),
    (_recording("other/rec01.csv"), 2,
     "window_id 'rec00-w0000' is not among the windows of this recording (16 retained"),
], ids=["1e308", "pm1e308", "inf", "all-missing", "quoted-time", "nul", "repeated-column",
        "constant", "L=2.5", "D=-1", "target-only", "huge-index", "negative-index",
        "empty-sparse", "1e308-values", "directory", "same-stem", "two-spellings",
        "other-recordings-window"])
def test_malformed_inputs_exit_cleanly(small_corpus, tmp_path, capsys, mutate, want_code,
                                      want_text):
    """Nothing escapes main: the exit code is one of 0-3 (want_code, if
    given), and a non-zero exit prints one error line that names the
    offending path(s) (and holds want_text, if given)."""
    root = tmp_path / "corpus"
    shutil.copytree(small_corpus, root)
    doc = json.loads((root / "manifest.json").read_text())
    named = mutate(root, doc)
    (root / "manifest.json").write_text(json.dumps(doc))
    code = main(["run", "--manifest", str(root / "manifest.json"), "--out",
                 str(tmp_path / "out"), "--window-len", "250"])
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3) and "Traceback" not in err
    if want_code is not None:
        assert code == want_code, err
    if code:
        (line,) = [ln for ln in err.splitlines() if ln.startswith("error:")]
        assert all(str(path) in line for path in named), line
        assert want_text is None or want_text in line, line
