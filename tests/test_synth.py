import csv

import numpy as np
import pytest

from gazeconcepts.errors import ConfigError
from gazeconcepts.io import load_gaze_csv
from gazeconcepts.preprocess import SavGolParams, savgol_derivative
from gazeconcepts.synth import (
    CorpusSpec,
    PlannedFixation,
    PlannedSaccade,
    ScanpathSpec,
    gen_proxy_attributions,
    gen_scanpath,
    positional_noise_sigma,
    raised_cosine_peak,
    random_plan,
    write_demo_corpus,
)

from conftest import build_window, ground_truth_in_window, pipeline_windows


def simpson(y, dx):
    """Composite Simpson's rule (even number of intervals)."""
    n = len(y) - 1
    assert n % 2 == 0
    return dx / 3.0 * (y[0] + y[-1] + 4 * y[1:-1:2].sum() + 2 * y[2:-1:2].sum())


def test_profile_peak_closed_form():
    assert raised_cosine_peak(10.0, 0.040) == pytest.approx(392.6990817, rel=1e-9)


def test_profile_integral_recovers_amplitude():
    # quadrature over the 1000 Hz profile samples; Simpson's h^4 error
    # bounds shorter profiles less tightly than the 40 ms reference case
    for a, d_ms, rel in ((10.0, 40.0, 1e-6), (20.0, 80.0, 1e-6), (2.5, 20.0, 1e-5)):
        n = int(d_ms)  # 1 kHz
        t = np.arange(n + 1) / 1000.0
        d = n / 1000.0
        v = raised_cosine_peak(a, d) * np.sin(np.pi * t / d)
        assert simpson(v, 1e-3) == pytest.approx(a, rel=rel)


def test_zero_amplitude_saccade_flat():
    spec = ScanpathSpec(
        segments=[PlannedFixation(50.0), PlannedSaccade(30.0, 0.0), PlannedFixation(50.0)]
    )
    rec, truth = gen_scanpath(spec, seed=1)
    assert np.ptp(rec.x_deg) == 0.0 and np.ptp(rec.y_deg) == 0.0


def test_same_seed_identical_recordings():
    plan = random_plan(3, 2.0, noise_sigma_deg=0.001)
    rec1, t1 = gen_scanpath(plan, seed=44)
    rec2, t2 = gen_scanpath(plan, seed=44)
    np.testing.assert_array_equal(rec1.x_deg, rec2.x_deg)
    np.testing.assert_array_equal(rec1.y_deg, rec2.y_deg)
    assert t1 == t2
    rec3, _ = gen_scanpath(plan, seed=45)
    assert not np.array_equal(rec1.x_deg, rec3.x_deg)


def test_ground_truth_layout_and_boundary_sharing():
    spec = ScanpathSpec(
        segments=[PlannedFixation(100.0), PlannedSaccade(20.0, 5.0, 0.0), PlannedFixation(80.0)]
    )
    rec, truth = gen_scanpath(spec, seed=0)
    f1, s, f2 = truth
    assert (f1.onset, f1.offset) == (0, 100)
    assert (s.onset, s.offset) == (100, 120)
    assert (f2.onset, f2.offset) == (120, 199)  # clipped at the end
    assert rec.x_deg[100] == rec.x_deg[0]  # saccade onset sample still at rest
    assert rec.x_deg[120] == pytest.approx(rec.x_deg[0] + 5.0, abs=1e-12)
    assert s.peak_velocity == pytest.approx(raised_cosine_peak(5.0, 0.020))


def test_ground_truth_in_window_keeps_contained_only():
    spec = ScanpathSpec(
        segments=[PlannedFixation(600.0), PlannedSaccade(20.0, 3.0, 0.0), PlannedFixation(600.0)]
    )
    _, truth = gen_scanpath(spec, seed=0)
    inside = ground_truth_in_window(truth, 0, 1000)
    kinds = [e.kind for e in inside]
    assert kinds == ["fixation", "saccade"]  # trailing fixation crosses the cut
    assert inside[1].onset == 600 and inside[1].offset == 620


def test_infeasible_plans_rejected():
    with pytest.raises(ConfigError):
        gen_scanpath(ScanpathSpec(segments=[PlannedFixation(-5.0)]), 0)
    with pytest.raises(ConfigError):
        gen_scanpath(
            ScanpathSpec(segments=[PlannedSaccade(20.0, 100.0, 0.0)], bounds_deg=30.0), 0
        )
    with pytest.raises(ConfigError):
        gen_scanpath(ScanpathSpec(segments=[PlannedSaccade(20.0, -1.0)]), 0)


def test_positional_noise_sigma_calibration():
    target = 0.5
    params = SavGolParams()
    sigma_pos = positional_noise_sigma(target, params)
    rng = np.random.default_rng(123)
    x = rng.normal(0.0, sigma_pos, 200_000)
    v = savgol_derivative(x, params)
    measured = float(np.std(v[3:-3]))
    assert measured == pytest.approx(target, rel=0.02)


def test_speed_attribution_argmax_in_topk():
    rng = np.random.default_rng(6)
    vx = rng.normal(0, 0.5, 1000)
    vx[300:330] += 200.0
    w = build_window(vx, rng.normal(0, 0.5, 1000))
    attr = gen_proxy_attributions(w, 0, "speed")
    assert attr.channels == 2 and attr.length == 1000
    speed = np.hypot(w.vx[0], w.vy[0])
    top1 = np.argsort(-attr.values.max(axis=0), kind="stable")[0]
    assert top1 == np.argmax(speed)


def test_fixation_biased_inverts_ranking():
    rng = np.random.default_rng(7)
    vx = rng.normal(0, 0.5, 100)
    vx[40:60] += 150.0
    w = build_window(vx, rng.normal(0, 0.5, 100))
    speed_attr = gen_proxy_attributions(w, 0, "speed")
    biased = gen_proxy_attributions(w, 0, "fixation_biased")
    order_speed = np.argsort(-speed_attr.values[0], kind="stable")
    order_biased = np.argsort(biased.values[0], kind="stable")
    # inverted ranking: ascending biased order equals descending speed order
    np.testing.assert_array_equal(order_speed, order_biased)
    assert biased.values.min() >= 0.0


def test_fixation_biased_flips_concept_influence():
    from gazeconcepts.detect import (
        DetectionParams,
        detect_fixations_ivt,
        detect_saccades_ek,
        retained,
    )
    from gazeconcepts.influence import (
        concept_influence,
        concept_segmentation,
        default_k,
        topk_segmentation,
    )

    params = DetectionParams()
    sigma = positional_noise_sigma(0.5, SavGolParams())
    plan = random_plan(77, 10.0, noise_sigma_deg=sigma)
    rec, _ = gen_scanpath(plan, 77, recording_id="fb")
    windows, _ = pipeline_windows(rec)
    c_fix, c_sacc = [], []
    for row, window_id in enumerate(windows.window_ids):
        w = windows.take([row])
        fx = retained(detect_fixations_ivt(w, params))
        sc = retained(detect_saccades_ek(w, params))
        attr = gen_proxy_attributions(windows, row, "fixation_biased", seed=1)
        topk = topk_segmentation(attr.values.max(axis=0), default_k(w.length), window_id)
        if fx:
            c_fix.append(
                concept_influence(
                    concept_segmentation(fx, "fixation", w.length, window_id), topk
                ).c
            )
        if sc:
            c_sacc.append(
                concept_influence(
                    concept_segmentation(sc, "saccade", w.length, window_id), topk
                ).c
            )
    assert np.mean(c_fix) > np.mean(c_sacc)


def test_uniform_random_deterministic_and_in_range():
    w = build_window(np.zeros(50), np.zeros(50))
    a1 = gen_proxy_attributions(w, 0, "uniform_random", seed=9)
    a2 = gen_proxy_attributions(w, 0, "uniform_random", seed=9)
    a3 = gen_proxy_attributions(w, 0, "uniform_random", seed=10)
    np.testing.assert_array_equal(a1.values, a2.values)
    assert not np.array_equal(a1.values, a3.values)
    assert (a1.values >= 0).all() and (a1.values < 1).all()


def test_missing_samples_get_zero_attribution():
    vx = np.zeros(30)
    vx[5] = np.nan
    w = build_window(vx + 10.0 * (np.arange(30) % 3), np.zeros(30))
    w.vx[0, 5] = np.nan
    w.valid[0, 5] = False
    for mode in ("speed", "fixation_biased"):
        attr = gen_proxy_attributions(w, 0, mode)
        assert attr.values[0, 5] == 0.0 and attr.values[1, 5] == 0.0
        assert np.isfinite(attr.values).all()


def test_unknown_attribution_mode():
    w = build_window(np.zeros(10), np.zeros(10))
    with pytest.raises(ConfigError):
        gen_proxy_attributions(w, 0, "nope")


def test_random_plan_peaks_in_requested_range():
    plan = random_plan(5, 10.0, saccade_ms=(20.0, 60.0), peak_velocity_dps=(100.0, 400.0))
    saccades = [s for s in plan.segments if isinstance(s, PlannedSaccade)]
    assert saccades
    for s in saccades:
        peak = raised_cosine_peak(s.amplitude_deg, s.duration_ms / 1000.0)
        assert 100.0 - 1e-9 <= peak <= 400.0 + 1e-9


def test_generated_peak_speed_near_planned():
    spec = ScanpathSpec(
        segments=[PlannedFixation(300.0), PlannedSaccade(40.0, 10.0, 30.0), PlannedFixation(660.0)]
    )
    rec, truth = gen_scanpath(spec, seed=2)
    windows, _ = pipeline_windows(rec)
    speed = windows.speed[0]
    planned = truth[1].peak_velocity
    assert np.nanmax(speed) == pytest.approx(planned, rel=0.01)


@pytest.mark.parametrize("rate", [1000.0, 500.0, 250.0])
def test_demo_corpus_velocity_noise_at_its_sampling_rate(tmp_path, rate):
    """The SG velocity noise inside the fixations of a demo recording is
    the requested sigma per component, whatever the sampling rate."""
    spec = CorpusSpec(seed=11, n_recordings=1, duration_s=20.0, sampling_rate_hz=rate)
    write_demo_corpus(tmp_path, spec)
    rec = load_gaze_csv(tmp_path / "recordings" / "rec00.csv")
    sg = SavGolParams(dt_s=1 / rate)
    half = sg.window_length // 2
    velocities = [savgol_derivative(c, sg) for c in (rec.x_deg, rec.y_deg)]
    with open(tmp_path / "gt_events.csv", newline="") as f:
        fixations = [r for r in csv.DictReader(f) if r["kind"] == "fixation"]
    # samples whose filter window lies inside one fixation
    inner = np.concatenate([np.arange(int(r["onset"]) + half, int(r["offset"]) - half)
                            for r in fixations])
    assert len(inner) > 2000
    for v in velocities:
        assert np.std(v[inner]) == pytest.approx(spec.noise_velocity_sigma_dps, rel=0.1)


@pytest.mark.parametrize("rate", [0.0, -250.0])
def test_demo_corpus_rejects_a_non_positive_rate(tmp_path, rate):
    with pytest.raises(ConfigError, match="sampling_rate_hz must be positive"):
        write_demo_corpus(tmp_path, CorpusSpec(n_recordings=1, duration_s=1.0,
                                               sampling_rate_hz=rate))
