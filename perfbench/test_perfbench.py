"""Self-tests for the benchmark: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import re
import shutil
import sys
from pathlib import Path

import pytest

import checks
import spans

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def span(span_id, parent, name, start_s, end_s, thread=1, counts=None):
    return [span_id, parent, 0, name, thread, round(start_s * 1e9), round(end_s * 1e9), counts]


def test_self_time_of_nested_spans():
    trace = [
        span(1, None, "pipeline.run", 0, 10),
        span(2, 1, "io.load_gaze_csv", 1, 4),
        span(3, 2, "preprocess.savgol_derivative", 2, 3),
        span(4, 1, "detect.detect_saccades_ek", 5, 9),
    ]
    share = spans.wall_share(trace)
    assert share == pytest.approx({1: 3.0, 2: 2.0, 3: 1.0, 4: 4.0})


def test_overlapping_threads_split_their_common_time():
    trace = [
        span(1, None, "pipeline.run", 0, 10),
        span(2, 1, "pipeline.process_window", 2, 6, thread=2),
        span(3, 1, "pipeline.process_window", 4, 8, thread=3),
    ]
    share = spans.wall_share(trace)
    # run is busy only outside the union [2, 8]; [4, 6] is shared.
    assert share == pytest.approx({1: 4.0, 2: 3.0, 3: 3.0})
    assert sum(share.values()) == pytest.approx(10.0)


def test_layer_metrics_on_a_hand_built_trace():
    trace = [
        span(1, None, "pipeline.run", 0, 10),
        span(2, 1, "io.load_gaze_csv", 0, 2, counts={"samples": 1000}),
        span(3, 1, "pipeline.process_window", 2, 5),
        span(4, 3, "io.load_attribution", 2, 3, counts={"values": 10, "window": "w0"}),
        span(5, 3, "detect.detect_saccades_ek", 3, 4, counts={"events": 4, "retained": 3}),
        span(6, 1, "pipeline.process_window", 5, 6),
        span(7, 6, "io.load_attribution", 5, 5.5, counts={"values": 10, "window": "w0"}),
        span(8, 1, "influence.concept_segmentation", 6, 7, counts={"empty": 1}),
        span(9, 1, "influence.concept_segmentation", 7, 8, counts={"empty": 0}),
    ]
    m = spans.layer_metrics(trace, pass_wall_s=10.0)
    assert m["io.load_gaze_csv.busy_s"] == pytest.approx(2.0)
    assert m["io.load_gaze_csv.ns_per_sample"] == pytest.approx(2e6)
    assert m["io.load_attribution.busy_s"] == pytest.approx(1.5)
    assert m["io.load_attribution.calls"] == 2
    assert m["io.attr_useful_ratio"] == pytest.approx(0.5)
    assert m["io.busy_s"] == pytest.approx(3.5)
    assert m["detect.busy_s"] == pytest.approx(1.0)
    assert m["detect.retained_ratio"] == pytest.approx(0.75)
    assert m["influence.skipped_ratio"] == pytest.approx(0.5)
    # run: 10 - 8 covered = 2; windows: (3 - 2) + (1 - 0.5)
    assert m["pipeline.self_s"] == pytest.approx(3.5)
    assert m["pipeline.process_window.p50_ms"] == pytest.approx(1000.0)
    assert m["pipeline.process_window.p99_ms"] == pytest.approx(3000.0)
    layers = ("io", "preprocess", "detect", "dissect", "influence", "binning", "report")
    accounted = sum(m[f"{layer}.busy_s"] for layer in layers) + m["pipeline.self_s"]
    assert accounted == pytest.approx(10.0)
    assert m["trace.accounted_frac"] == pytest.approx(1.0)


def test_metric_names_units_and_limits():
    e2e, layers = BENCH["end_to_end"], BENCH["per_layer"]
    assert 1 <= len(e2e) <= 16 and 1 <= len(layers) <= 128
    names = [m["name"] for m in e2e + layers]
    assert len(names) == len(set(names))
    for m in e2e + layers:
        assert NAME.fullmatch(m["name"]), m["name"]
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]), m["unit"]
        assert m["better"] in ("lower", "higher")
    for m in e2e:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in e2e if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in e2e)


def test_declared_per_layer_metrics_are_the_computed_ones():
    computed = set(spans.layer_metrics([], 1.0)) | {
        "trace.overhead_frac", "staged_divergent_artifacts"
    }
    assert computed == {m["name"] for m in BENCH["per_layer"]}


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    from gazeconcepts import io as gio
    from gazeconcepts import pipeline
    from gazeconcepts.synth import CorpusSpec, write_demo_corpus

    base = tmp_path_factory.mktemp("bench")
    manifest = write_demo_corpus(base / "corpus", CorpusSpec(seed=5, n_recordings=2, duration_s=20.0))
    pipeline.run(gio.load_manifest(manifest), pipeline.RunConfig(), base / "out")
    return base / "corpus", base / "out"


def test_checks_accept_real_output(small_run):
    corpus, out = small_run
    assert checks.check_speed_proxy(out, corpus, window_len=1000) == []
    assert checks.divergent_artifacts(out, out) == []


def _corrupt_copy(out: Path, dest: Path) -> Path:
    shutil.copytree(out, dest)
    return dest


def test_corrupted_outputs_fail_the_pass_check(small_run, tmp_path):
    corpus, out = small_run

    bad = _corrupt_copy(out, tmp_path / "report")
    doc = json.loads((bad / "report.json").read_text())
    doc["concepts"]["saccade"]["c_pooled"] = 0.5
    (bad / "report.json").write_text(json.dumps(doc))
    assert any("saccade c=" in p for p in checks.check_speed_proxy(bad, corpus, 1000))

    bad = _corrupt_copy(out, tmp_path / "events")
    lines = (bad / "events.csv").read_text().splitlines(keepends=True)
    shifted = [line.replace(",saccade,", ",saccade_x,") for line in lines]
    (bad / "events.csv").write_text("".join(shifted))
    assert any("saccade recall" in p for p in checks.check_speed_proxy(bad, corpus, 1000))
    diverged = checks.divergent_artifacts(bad, out)
    assert diverged == ["events.csv"]
    assert checks.check_staged(diverged) == ["events.csv differs from the run output"]

    # speed-proxy output is far from the uniform-random calibration
    assert checks.check_uniform_calibration(out)


def test_traced_run_writes_the_same_artifacts(small_run, tmp_path):
    from gazeconcepts import io as gio
    from gazeconcepts import pipeline

    corpus, out = small_run
    original = pipeline.process_window
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        assert pipeline.process_window is not original
        pipeline.run(
            gio.load_manifest(corpus / "manifest.json"),
            pipeline.RunConfig(jobs=2),
            tmp_path / "traced",
        )
    assert pipeline.process_window is original
    for name in ("events.csv", "influence.csv", "report.json"):
        assert (tmp_path / "traced" / name).read_bytes() == (out / name).read_bytes()

    by_id = {s[0]: s for s in tracer.spans}
    (root,) = [s for s in tracer.spans if s[3] == "pipeline.run"]
    windows = [s for s in tracer.spans if s[3] == "pipeline.process_window"]
    assert len(windows) == 40 and all(s[1] == root[0] for s in windows)
    assert all(s[1] is None or s[1] in by_id for s in tracer.spans)
    wall_ns = max(s[6] for s in tracer.spans) - min(s[5] for s in tracer.spans)
    m = spans.layer_metrics(tracer.spans, wall_ns / 1e9)
    # only the test's own statements between the two root spans are missing
    assert m["trace.accounted_frac"] == pytest.approx(1.0, abs=1e-3)
    assert m["io.load_attribution.calls"] == 40 and m["io.attr_useful_ratio"] == 1.0
    assert m["report.charts"] > 0 and m["io.bytes_written"] > 0
