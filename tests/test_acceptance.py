"""Acceptance suite: one test per exit criterion.

Each test prints an ``ACCEPTANCE n: PASS`` line on success (visible with
``pytest -s``); a failing criterion shows up as a failing test.
"""

import json
import time

import numpy as np
import pytest

from gazeconcepts.cli import main
import reference as ref
from gazeconcepts.detect import (
    SACCADE,
    DetectionParams,
    detect_events,
    detect_fixations_ivt,
    detect_saccades_ek,
    retained,
)
from gazeconcepts.dissect import dissect_all, dissect_saccades
from gazeconcepts.influence import (
    aggregate_influence,
    concept_influence,
    concept_segmentation,
    default_k,
    topk_segmentation,
)
from gazeconcepts.pipeline import window_segmentations
from gazeconcepts.preprocess import SavGolParams, savgol_derivative, savgol_weights
from gazeconcepts.binning import BinSpec, bin_events, binned_influence, resolve_edges
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

from conftest import (
    build_window,
    ground_truth_in_window,
    match_events,
    pipeline_windows,
    raised_cosine_speeds,
)

PARAMS = DetectionParams()
GazeEvent = ref.GazeEvent
NOISE_VEL_SIGMA = 0.5  # deg/s


@pytest.fixture(scope="module")
def demo_corpus(tmp_path_factory):
    """The bundled corpus at its default size: >=.500 windows of L=1000."""
    root = tmp_path_factory.mktemp("demo")
    manifest = write_demo_corpus(root, CorpusSpec())
    return manifest


def _evaluate(recordings, attr_mode, attr_seed=0, cfg_params=PARAMS):
    """Detect, dissect, and score every window of the given recordings."""
    per_concept = {}
    window_count = 0
    for rec in recordings:
        windows, _ = pipeline_windows(rec)
        for row, window_id in enumerate(windows.window_ids):
            w = windows.take([row])
            window_count += 1
            events = detect_events(w, cfg_params)
            subs = dissect_all(events.take(events.is_kind(SACCADE)), w)
            attr = gen_proxy_attributions(windows, row, attr_mode, seed=attr_seed + window_count)
            topk = topk_segmentation(
                attr.values.max(axis=0), default_k(w.length), window_id
            )
            for concept, seg in window_segmentations(w, events, subs).items():
                if seg.size:
                    per_concept.setdefault(concept, []).append(
                        concept_influence(seg, topk)
                    )
    return {c: aggregate_influence(rs) for c, rs in per_concept.items()}, window_count


def test_criterion_1_savgol_exactness():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    dt = 1e-3
    params = SavGolParams(7, 2, dt)
    for _ in range(100):
        a, b, c = rng.uniform(-5, 5, 3)
        n = int(rng.integers(20, 200))
        t = np.arange(n) * dt
        v = savgol_derivative(a * t**2 + b * t + c, params)
        expected = 2 * a * t + b
        scale = max(np.abs(expected).max(), 1e-3)
        np.testing.assert_allclose(v[3:-3], expected[3:-3], rtol=1e-9, atol=1e-9 * scale)
    np.testing.assert_allclose(
        savgol_weights(7, 2, 3), np.arange(-3, 4) / 28.0, rtol=0, atol=1e-12
    )
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f} s"
    print(f"\nACCEPTANCE 1: PASS - SG exact on 100 quadratics, weights closed-form, {elapsed:.2f} s")


def test_criterion_2_detector_fidelity():
    sigma_pos = positional_noise_sigma(NOISE_VEL_SIGMA, SavGolParams())
    recovered = {"fixation": 0, "saccade": 0}
    total = {"fixation": 0, "saccade": 0}
    for seed in range(100):
        plan = random_plan(
            seed,
            3.0,
            saccade_ms=(20.0, 30.0),
            peak_velocity_dps=(100.0, 400.0),
            noise_sigma_deg=sigma_pos,
        )
        rec, truth = gen_scanpath(plan, seed, recording_id=f"sp{seed:03d}")
        windows, _ = pipeline_windows(rec)
        for row, window_id in enumerate(windows.window_ids):
            w = windows.take([row])
            start = int(window_id.rsplit("-w", 1)[1]) * w.length
            gt = ground_truth_in_window(truth, start, w.length)
            detected = {
                "fixation": ref.event_rows(detect_fixations_ivt(w, PARAMS)),
                "saccade": ref.event_rows(detect_saccades_ek(w, PARAMS)),
            }
            for kind in ("fixation", "saccade"):
                kind_gt = [t for t in gt if t.kind == kind]
                total[kind] += len(kind_gt)
                recovered[kind] += match_events(kind_gt, detected[kind], tol=2)
    rates = {k: recovered[k] / total[k] for k in total}
    assert total["saccade"] > 1000 and total["fixation"] > 1000
    assert rates["saccade"] >= 0.95, rates
    assert rates["fixation"] >= 0.95, rates

    # pure-noise windows: no retained saccades
    noise_plan = ScanpathSpec(
        segments=[PlannedFixation(100_000.0)], noise_sigma_deg=sigma_pos
    )
    rec, _ = gen_scanpath(noise_plan, seed=424242, recording_id="noise")
    windows, _ = pipeline_windows(rec)
    assert len(windows) == 100
    noise_saccades = sum(
        len(retained(detect_saccades_ek(windows.take([row]), PARAMS)))
        for row in range(len(windows))
    )
    assert noise_saccades == 0

    # Table-2 style validity filters on injected bursts
    rng = np.random.default_rng(7)
    for n_burst, reason in ((4, "min duration"), (120, "max duration")):
        vx = rng.normal(0, NOISE_VEL_SIGMA, 1000)
        vx[300 : 300 + n_burst] = 200.0
        events = ref.event_rows(
            detect_saccades_ek(build_window(vx, rng.normal(0, 0.5, 1000)), PARAMS)
        )
        burst = [e for e in events if e.onset <= 300 <= e.offset]
        assert len(burst) == 1 and burst[0].excluded
        assert reason in burst[0].exclusion_reason
    print(
        f"\nACCEPTANCE 2: PASS - recovery fixation {rates['fixation']:.3f}, "
        f"saccade {rates['saccade']:.3f}, 0 noise saccades, burst filters correct"
    )


def test_criterion_3_equation_correctness():
    rng = np.random.default_rng(20230403)
    for _ in range(1000):
        L = int(rng.integers(10, 500))
        k = int(rng.integers(1, L + 1))
        s_mask = rng.random(L) < rng.uniform(0.02, 0.95)
        if not s_mask.any():
            s_mask[int(rng.integers(0, L))] = True
        t = topk_segmentation(rng.normal(0, 1, L), k)
        from gazeconcepts.influence import ConceptSegmentation

        r = concept_influence(ConceptSegmentation("w", "c", s_mask), t)
        inter = sum(1 for i in range(L) if s_mask[i] and t.mask[i])
        size = int(s_mask.sum())
        assert r.intersection == inter
        assert r.c == (L * inter) / (size * k)
        assert 0.0 <= r.c <= L * min(size, k) / (size * k)
        assert (r.c == 0.0) == (inter == 0)

    s_mask = np.zeros(1000, dtype=bool)
    s_mask[:250] = True
    t_mask = np.zeros(1000, dtype=bool)
    t_mask[240:260] = True
    from gazeconcepts.influence import ConceptSegmentation, TopKSegmentation

    worked = concept_influence(
        ConceptSegmentation("w", "c", s_mask), TopKSegmentation("w", 20, t_mask)
    )
    assert worked.intersection == 10
    assert worked.c == 2.0
    print("\nACCEPTANCE 3: PASS - 1000 oracle pairs exact, bounds hold, worked case c=2.0")


def test_criterion_4_dissection_partition():
    rng = np.random.default_rng(11)
    total_samples = 0
    total_disregarded = 0
    for i in range(10_000):
        n = int(rng.integers(9, 101))
        peak = float(rng.uniform(50.0, 800.0))
        theta = rng.uniform(0, 2 * np.pi)
        profile = raised_cosine_speeds(n, peak)
        margin = 8
        vx = rng.normal(0, NOISE_VEL_SIGMA, n + 2 * margin)
        vy = rng.normal(0, NOISE_VEL_SIGMA, n + 2 * margin)
        vx[margin : margin + n] += profile * np.cos(theta)
        vy[margin : margin + n] += profile * np.sin(theta)
        w = build_window(vx, vy)
        sacc = GazeEvent(f"s{i}", "saccade", "w0000", margin, margin + n - 1)
        d = ref.dissections(dissect_saccades(ref.event_table([sacc]), w))[0][0]
        counted = sum(d.phase_samples(p) for p in ("rise", "peak", "fall"))
        assert counted + d.disregarded == n, f"saccade {i}: partition broken"
        total_samples += n
        total_disregarded += d.disregarded
    frac = total_disregarded / total_samples
    assert frac < 0.01, f"disregarded fraction {frac:.4f}"
    print(f"\nACCEPTANCE 4: PASS - partition exact on 10000 saccades, disregarded {frac:.5f}")


def test_criterion_5_qualitative_replication():
    sigma_pos = positional_noise_sigma(NOISE_VEL_SIGMA, SavGolParams())
    sacc_cs, peak_cs = [], []
    for seed in range(10):
        recordings = []
        for r in range(2):
            plan = random_plan(
                1000 + seed * 10 + r,
                13.0,
                saccade_ms=(20.0, 60.0),
                peak_velocity_dps=(100.0, 400.0),
                noise_sigma_deg=sigma_pos,
            )
            rec, _ = gen_scanpath(plan, 1000 + seed * 10 + r, recording_id=f"q{seed}{r}")
            recordings.append(rec)
        results, _ = _evaluate(recordings, "speed")
        c_sacc = results["saccade"].c
        c_fix = results["fixation"].c
        c_peak = results["saccade_peak"].c
        c_rise = results["saccade_rise"].c
        c_fall = results["saccade_fall"].c
        assert c_sacc > 1.0, f"seed {seed}: saccade c={c_sacc}"
        assert c_fix < 0.1, f"seed {seed}: fixation c={c_fix}"
        assert c_peak > c_rise and c_peak > c_fall, f"seed {seed}"
        sacc_cs.append(c_sacc)
        peak_cs.append(c_peak)
    assert max(sacc_cs) / min(sacc_cs) <= 2.0
    assert max(peak_cs) / min(peak_cs) <= 2.0
    print(
        f"\nACCEPTANCE 5: PASS - saccade c in [{min(sacc_cs):.2f}, {max(sacc_cs):.2f}], "
        f"fixation c < 0.1, peak > rise/fall on 10 seeds"
    )


def test_criterion_6_random_attribution_calibration():
    sigma_pos = positional_noise_sigma(NOISE_VEL_SIGMA, SavGolParams())
    recordings = []
    for r in range(4):
        plan = random_plan(600 + r, 252.0, noise_sigma_deg=sigma_pos)
        rec, _ = gen_scanpath(plan, 600 + r, recording_id=f"cal{r}")
        recordings.append(rec)
    results, n_windows = _evaluate(recordings, "uniform_random", attr_seed=31337)
    assert n_windows >= 1000
    checked = []
    for concept, agg in results.items():
        rel_size = agg.S_total / agg.L_total
        if rel_size >= 0.05:
            assert 0.9 <= agg.c_mean <= 1.1, f"{concept}: mean c={agg.c_mean:.3f}"
            checked.append((concept, agg.c_mean))
    assert {"fixation", "saccade"} <= {c for c, _ in checked}
    summary = ", ".join(f"{c}={m:.3f}" for c, m in checked)
    print(f"\nACCEPTANCE 6: PASS - mean c on {n_windows} windows: {summary}")


def test_criterion_7_binning_consistency():
    rng = np.random.default_rng(23)
    # disjoint per-window bin segmentations: per-bin intersections sum to
    # the union intersection
    for trial in range(20):
        L = 400
        k = 8
        topk = topk_segmentation(rng.normal(0, 1, L), k, "w0")
        events = []
        cursor = 0
        while cursor + 30 < L:
            width = int(rng.integers(5, 25))
            events.append(
                GazeEvent(
                    f"s{cursor}", "saccade", "w0", cursor, cursor + width - 1,
                    duration_ms=float(width),
                    peak_velocity=100.0,
                    amplitude_deg=float(rng.uniform(0.5, 20.0)),
                )
            )
            cursor += width + int(rng.integers(2, 20))
        spec = BinSpec("saccade_duration_ms", mode="explicit", edges=(4.0, 10.0, 16.0, 25.0))
        out = binned_influence(bin_events(ref.event_table(events), spec), spec, topk.mask[None], topk.k)
        union = concept_influence(
            concept_segmentation(ref.event_table(events), "saccade", L, "w0"), topk
        )
        assert sum(b.influence.intersection for b in out if b.influence) == union.intersection

    # quantile bins: 100 events, n=4 -> 25 +/- 1 per bin
    durations = rng.uniform(9.0, 100.0, 100)
    events = [
        GazeEvent(f"e{i}", "saccade", "w0", i, i, duration_ms=float(d))
        for i, d in enumerate(durations)
    ]
    spec = BinSpec("saccade_duration_ms", mode="quantile", n_bins=4)
    events = ref.event_table(events)
    bins = bin_events(events, spec, edges=resolve_edges(spec, events))
    for b in bins:
        if b.label == "bin":
            assert abs(b.event_count - 25) <= 1
    print("\nACCEPTANCE 7: PASS - bin intersections additive, quantile bins 25 +/- 1")


def test_criterion_8_end_to_end_determinism_and_throughput(demo_corpus, tmp_path):
    m = str(demo_corpus)
    reports = []
    durations = []
    for name, jobs in (("r1", "1"), ("r2", "1"), ("r4", "4")):
        out = tmp_path / name
        start = time.perf_counter()
        assert main(["run", "--manifest", m, "--out", str(out), "--jobs", jobs]) == 0
        durations.append(time.perf_counter() - start)
        reports.append((out / "report.json").read_bytes())
    doc = json.loads(reports[0])
    windows = doc["counts"]["windows"]["evaluated"]
    assert windows >= 500
    assert reports[0] == reports[1], "reruns differ"
    assert reports[0] == reports[2], "--jobs 1 vs --jobs 4 differ"
    assert max(durations) < 10.0, f"run took {max(durations):.1f} s"
    print(
        f"\nACCEPTANCE 8: PASS - {windows} windows, byte-identical reports, "
        f"max run {max(durations):.1f} s"
    )
