import json

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
from gazeconcepts.preprocess import SavGolParams, zscore_normalize
from gazeconcepts.synth import (
    PlannedFixation,
    ScanpathSpec,
    gen_proxy_attributions,
    gen_scanpath,
    positional_noise_sigma,
    random_plan,
)

from conftest import pipeline_windows


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
    pre = preprocess_manifest(manifest, RunConfig())
    # right-eye data equals the mono source, so windows match exactly
    np.testing.assert_array_equal(pre.windows.px[0], windows.px[0])
    assert len(pre.windows) == len(windows)


def test_unresolvable_window_id_is_alignment_error(tmp_path):
    plan = random_plan(4, 2.0)
    rec, _ = gen_scanpath(plan, seed=4, recording_id="r")
    write_gaze_csv(rec, tmp_path / "r.csv")
    manifest = _write_manifest(tmp_path / "m.json", [("r.csv", "a.csv", "r-w9999")])
    with pytest.raises(AlignmentError, match="r-w9999"):
        preprocess_manifest(manifest, RunConfig())


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


def test_norm_scope_recording_stats_per_recording(tmp_path):
    recs = []
    for i in range(2):
        plan = random_plan(10 + i, 2.0, noise_sigma_deg=0.002)
        rec, _ = gen_scanpath(plan, seed=10 + i, recording_id=f"r{i}")
        recs.append(rec)
    entries = []
    for rec in recs:
        write_gaze_csv(rec, tmp_path / f"{rec.recording_id}.csv")
        windows, _ = pipeline_windows(rec)
        for row, window_id in enumerate(windows.window_ids):
            write_attribution(
                gen_proxy_attributions(windows, row, "speed"), tmp_path / f"{window_id}.csv"
            )
            entries.append(
                (f"{rec.recording_id}.csv", f"{window_id}.csv", window_id)
            )
    manifest = _write_manifest(tmp_path / "m.json", entries)
    pre = preprocess_manifest(manifest, RunConfig(norm_scope="recording"))
    assert set(pre.channel_stats) == {"r0", "r1"}
    pre_corpus = preprocess_manifest(manifest, RunConfig(norm_scope="corpus"))
    assert set(pre_corpus.channel_stats) == {"corpus"}
    pre_none = preprocess_manifest(manifest, RunConfig(norm_scope="none"))
    assert pre_none.channel_stats == {}
    normed = normalized_windows(pre, RunConfig(norm_scope="recording"))
    for row, rec_id in enumerate(pre.windows.recording_ids):
        alone = zscore_normalize(pre.windows.take([row]), [pre.channel_stats[rec_id]])
        np.testing.assert_array_equal(normed.vx[row], alone.vx[0])


def test_normalized_windows_zscore_valid_samples(tmp_path):
    plan = random_plan(12, 4.0, noise_sigma_deg=0.002)
    rec, _ = gen_scanpath(plan, seed=12, recording_id="z")
    manifest = _corpus_from_recording(tmp_path, rec)
    cfg = RunConfig(norm_scope="corpus")
    pre = preprocess_manifest(manifest, cfg)
    normed = normalized_windows(pre, cfg)
    assert normed.window_ids == pre.windows.window_ids
    for channel in ("vx", "vy"):
        values = getattr(normed, channel)[normed.valid]
        assert abs(values.mean()) < 1e-9
        assert abs(values.std() - 1.0) < 1e-9
    assert normed is not pre.windows

    cfg_none = RunConfig(norm_scope="none")
    pre_none = preprocess_manifest(manifest, cfg_none)
    assert normalized_windows(pre_none, cfg_none) is pre_none.windows


def test_duplicate_window_ids_across_recordings_rejected(tmp_path):
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
    with pytest.raises(DataError, match="produced twice"):
        preprocess_manifest(manifest, RunConfig())


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
    with pytest.raises(DegenerateDataError, match=r"^\[stage detect\] need at least 2 valid"):
        run(manifest, cfg, tmp_path / "out")
