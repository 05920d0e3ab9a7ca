import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from gazeconcepts.detect import (
    DetectionParams,
    detect_fixations_ivt,
    detect_saccades_ek,
    event_properties,
    retained,
)
from gazeconcepts.errors import DegenerateDataError
from gazeconcepts.synth import (
    PlannedFixation,
    PlannedSaccade,
    ScanpathSpec,
    gen_scanpath,
    positional_noise_sigma,
)
from gazeconcepts.preprocess import SavGolParams

from conftest import (
    build_window,
    ek_thresholds,
    match_events,
    pipeline_windows,
    raised_cosine_speeds,
)

PARAMS = DetectionParams()
GazeEvent = ref.GazeEvent


def saccades(window, params, kept=False):
    """The detected saccades of one window as rows (only the retained
    ones with kept=True)."""
    events = detect_saccades_ek(window, params)
    return ref.event_rows(retained(events) if kept else events)


def fixations(window, params, kept=False):
    events = detect_fixations_ivt(window, params)
    return ref.event_rows(retained(events) if kept else events)


def compute_event_properties(event, window):
    """One event's properties, recomputed as a table of one."""
    return ref.event_rows(event_properties(ref.event_table([event]), window))[0]


def median_oracle(values):
    """Sort-based median, independent of numpy."""
    s = sorted(values)
    n = len(s)
    mid = n // 2
    return s[mid] if n % 2 else 0.5 * (s[mid - 1] + s[mid])


def ek_sigma_oracle(v):
    m2 = median_oracle([x * x for x in v])
    m1 = median_oracle(list(v))
    return math.sqrt(max(m2 - m1 * m1, 0.0))


def test_ek_threshold_constant_hits_floor():
    v = np.full(100, 7.5)
    eta_x, eta_y = ek_thresholds(v, v, 6.0, eta_floor=1e-6)
    assert eta_x == 1e-6 and eta_y == 1e-6


def test_ek_threshold_alternating_hand_case():
    v = np.tile([-1.0, 1.0], 50)
    eta_x, eta_y = ek_thresholds(v, v, 6.0)
    # median(v^2)=1, median(v)=0 -> sigma = 1 -> eta = 6
    assert eta_x == pytest.approx(6.0, abs=1e-12)
    assert eta_y == pytest.approx(6.0, abs=1e-12)


def test_ek_threshold_gaussian_matches_median_oracle():
    rng = np.random.default_rng(99)
    vx = rng.normal(0, 2.0, 501)
    vy = rng.normal(0, 0.7, 501)
    eta_x, eta_y = ek_thresholds(vx, vy, 6.0)
    assert eta_x == pytest.approx(6.0 * ek_sigma_oracle(vx), rel=1e-12)
    assert eta_y == pytest.approx(6.0 * ek_sigma_oracle(vy), rel=1e-12)


def test_ek_threshold_all_missing_errors():
    v = np.full(10, np.nan)
    with pytest.raises(DegenerateDataError):
        ek_thresholds(v, v, 6.0)


def test_no_saccades_on_pure_noise():
    rng = np.random.default_rng(5)
    w = build_window(rng.normal(0, 0.5, 1000), rng.normal(0, 0.5, 1000))
    assert saccades(w, PARAMS, kept=True) == []


def test_single_injected_saccade_recovered():
    spec = ScanpathSpec(
        segments=[
            PlannedFixation(300.0),
            PlannedSaccade(20.0, amplitude_deg=2.0 * 0.020 * 200.0 / math.pi),
            PlannedFixation(680.0),
        ],
        noise_sigma_deg=positional_noise_sigma(0.5, SavGolParams()),
    )
    rec, truth = gen_scanpath(spec, seed=21)
    windows, _ = pipeline_windows(rec)
    events = saccades(windows.take([0]), PARAMS, kept=True)
    assert len(events) == 1
    gt = [t for t in truth if t.kind == "saccade"]
    assert abs(events[0].onset - gt[0].onset) <= 2
    assert abs(events[0].offset - gt[0].offset) <= 2


def _burst_window(n_burst, level, n=1000, seed=2):
    rng = np.random.default_rng(seed)
    vx = rng.normal(0, 0.5, n)
    vy = rng.normal(0, 0.5, n)
    lo = 400
    vx[lo : lo + n_burst] = level
    return build_window(vx, vy)


def test_short_burst_excluded_min_duration():
    events = saccades(_burst_window(4, 200.0), PARAMS)
    burst = [e for e in events if e.onset <= 400 <= e.offset]
    assert len(burst) == 1
    assert burst[0].excluded
    assert "min duration" in burst[0].exclusion_reason
    assert saccades(_burst_window(4, 200.0), PARAMS, kept=True) == []


def test_long_burst_excluded_max_duration():
    events = saccades(_burst_window(120, 200.0), PARAMS)
    burst = [e for e in events if e.onset <= 400 <= e.offset]
    assert len(burst) == 1
    assert burst[0].excluded
    assert "max duration" in burst[0].exclusion_reason


def test_peak_velocity_bounds_excluded():
    slow = saccades(_burst_window(20, 30.0), PARAMS)
    ev = [e for e in slow if e.onset <= 400 <= e.offset][0]
    assert ev.excluded and "min peak velocity" in ev.exclusion_reason
    fast = saccades(_burst_window(20, 1500.0), PARAMS)
    ev = [e for e in fast if e.onset <= 400 <= e.offset][0]
    assert ev.excluded and "max peak velocity" in ev.exclusion_reason


def test_missing_samples_break_runs():
    vx = np.zeros(100)
    vx[40:60] = 300.0
    vx[50] = np.nan
    w = build_window(vx, np.zeros(100))
    events = saccades(w, DetectionParams(sacc_min_duration_ms=1.0))
    intervals = [(e.onset, e.offset) for e in events]
    assert (40, 49) in intervals and (51, 59) in intervals


def test_fixation_single_run():
    vx = np.full(100, 5.0)
    px = np.zeros(100)
    px[50:] = 0.1
    w = build_window(vx, np.zeros(100), px=px)
    events = fixations(w, PARAMS)
    assert len(events) == 1
    e = events[0]
    assert not e.excluded
    assert (e.onset, e.offset) == (0, 99)
    assert e.duration_ms == pytest.approx(100.0)
    assert e.dispersion_deg == pytest.approx(0.1)


def test_alternating_speed_all_excluded():
    vx = np.tile([5.0, 30.0], 50)
    w = build_window(vx, np.zeros(100))
    events = fixations(w, PARAMS)
    assert len(events) == 50
    assert fixations(w, PARAMS, kept=True) == []
    assert all("min duration" in e.exclusion_reason for e in events)


def test_fixation_dispersion_exclusion():
    px = np.linspace(0, 3.0, 200)  # 3 deg of drift > 2.7
    w = build_window(np.full(200, 5.0), np.zeros(200), px=px)
    events = fixations(w, PARAMS)
    assert len(events) == 1
    assert events[0].excluded
    assert "max dispersion" in events[0].exclusion_reason


def test_scanpath_fixations_recovered():
    spec = ScanpathSpec(
        segments=[
            PlannedFixation(250.0),
            PlannedSaccade(24.0, 3.0),
            PlannedFixation(300.0),
            PlannedSaccade(30.0, 4.0),
            PlannedFixation(396.0),
        ],
        noise_sigma_deg=positional_noise_sigma(0.5, SavGolParams()),
    )
    rec, truth = gen_scanpath(spec, seed=8)
    windows, _ = pipeline_windows(rec)
    events = fixations(windows.take([0]), PARAMS)
    gt = [t for t in truth if t.kind == "fixation"]
    assert match_events(gt, events, tol=2) >= math.ceil(0.95 * len(gt))


def test_saccade_amplitude_345():
    vx = np.full(10, 100.0)
    px = np.linspace(0, 3, 10)
    py = np.linspace(0, 4, 10)
    w = build_window(vx, np.zeros(10), px=px, py=py)
    e = GazeEvent("e", "saccade", "w0000", 0, 9)
    e = compute_event_properties(e, w)
    assert e.amplitude_deg == pytest.approx(5.0, rel=1e-12)


def test_constant_fixation_properties():
    w = build_window(np.full(50, 3.0), np.full(50, 4.0), px=np.full(50, 1.0), py=np.full(50, 2.0))
    e = compute_event_properties(GazeEvent("e", "fixation", "w0000", 0, 49), w)
    assert e.dispersion_deg == 0.0
    assert e.velocity_std == 0.0
    assert e.peak_velocity == pytest.approx(5.0, rel=1e-12)


def test_properties_match_recompute_oracle():
    rng = np.random.default_rng(17)
    vx, vy = rng.normal(0, 10, 80), rng.normal(0, 10, 80)
    px, py = rng.normal(0, 1, 80), rng.normal(0, 1, 80)
    w = build_window(vx, vy, px=px, py=py)
    fix = compute_event_properties(GazeEvent("f", "fixation", "w0000", 10, 39), w)
    sac = compute_event_properties(GazeEvent("s", "saccade", "w0000", 50, 70), w)
    speed = np.sqrt(vx**2 + vy**2)
    assert fix.peak_velocity == pytest.approx(speed[10:40].max(), rel=1e-12)
    assert fix.dispersion_deg == pytest.approx(
        (px[10:40].max() - px[10:40].min()) + (py[10:40].max() - py[10:40].min()), rel=1e-12
    )
    assert fix.velocity_std == pytest.approx(np.std(speed[10:40]), rel=1e-12)
    assert sac.amplitude_deg == pytest.approx(
        math.hypot(px[70] - px[50], py[70] - py[50]), rel=1e-12
    )
    assert sac.duration_ms == pytest.approx(21.0)


def test_all_missing_event_properties_unavailable():
    vx = np.full(30, np.nan)
    w = build_window(vx, vx.copy())
    e = compute_event_properties(GazeEvent("e", "fixation", "w0000", 5, 10), w)
    assert math.isnan(e.peak_velocity) and math.isnan(e.dispersion_deg)
    assert e.duration_ms == pytest.approx(6.0)


@given(gamma=st.sampled_from([0.25, 0.5, 2.0, 17.0]), seed=st.integers(0, 50))
@settings(max_examples=25, deadline=None)
def test_ek_scale_invariance(gamma, seed):
    rng = np.random.default_rng(seed)
    vx = rng.normal(0, 1.0, 500)
    vy = rng.normal(0, 1.0, 500)
    vx[100:130] += raised_cosine_speeds(30, 80.0)
    w1 = build_window(vx, vy)
    w2 = build_window(vx * gamma, vy * gamma)
    runs1 = [(e.onset, e.offset) for e in saccades(w1, PARAMS)]
    runs2 = [(e.onset, e.offset) for e in saccades(w2, PARAMS)]
    assert runs1 == runs2


@given(seed=st.integers(0, 100))
@settings(max_examples=30, deadline=None)
def test_events_sorted_disjoint_and_within_threshold(seed):
    rng = np.random.default_rng(seed)
    vx = rng.normal(0, 1.0, 400)
    vy = rng.normal(0, 1.0, 400)
    for lo in rng.integers(0, 360, 3):
        vx[lo : lo + 25] += raised_cosine_speeds(25, rng.uniform(50, 300))
    w = build_window(vx, vy)
    speed = np.sqrt(vx**2 + vy**2)

    for events in (fixations(w, PARAMS), saccades(w, PARAMS)):
        for a, b in zip(events, events[1:]):
            assert a.offset < b.onset
    for e in fixations(w, PARAMS, kept=True):
        assert (speed[e.onset : e.offset + 1] <= PARAMS.fix_max_velocity).all()
    eta_x, eta_y = ek_thresholds(vx, vy, PARAMS.sacc_lambda, PARAMS.eta_floor)
    for e in saccades(w, PARAMS, kept=True):
        crit = (vx[e.onset : e.offset + 1] / eta_x) ** 2 + (
            vy[e.onset : e.offset + 1] / eta_y
        ) ** 2
        assert (crit > 1).all()


def test_exclusion_monotone_in_min_duration():
    rng = np.random.default_rng(4)
    vx = rng.normal(0, 1.0, 600)
    for lo, n in ((50, 12), (200, 25), (400, 40)):
        vx[lo : lo + n] += raised_cosine_speeds(n, 150.0)
    w = build_window(vx, rng.normal(0, 1.0, 600))
    loose = {(e.onset, e.offset) for e in saccades(w, PARAMS, kept=True)}
    tight_params = DetectionParams(sacc_min_duration_ms=30.0)
    tight = {(e.onset, e.offset) for e in saccades(w, tight_params, kept=True)}
    assert tight <= loose
