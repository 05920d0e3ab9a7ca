import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gazeconcepts.errors import ConfigError, DegenerateDataError, SizeError
from gazeconcepts.preprocess import (
    SavGolParams,
    clamp_velocities,
    compute_channel_stats,
    recording_of,
    savgol_derivative,
    savgol_weights,
    window_sequence,
    zscore_normalize,
)

from conftest import build_window

PARAMS = SavGolParams(window_length=7, poly_order=2, dt_s=1e-3)


def polyfit_derivative_oracle(x, params):
    """Brute-force per-point least-squares fit, degree poly_order.

    Independent of the production weight path: np.polyfit at every
    output position, derivative of the fitted polynomial at that
    position.
    """
    w, p, dt = params.window_length, params.poly_order, params.dt_s
    half = w // 2
    n = len(x)
    out = np.empty(n)
    for i in range(n):
        if i < half:
            lo, pos = 0, i
        elif i >= n - half:
            lo, pos = n - w, i - (n - w)
        else:
            lo, pos = i - half, half
        offsets = np.arange(w) - pos
        coeffs = np.polyfit(offsets, x[lo : lo + w], p)
        out[i] = coeffs[-2] / dt  # slope of the fitted polynomial at 0
    return out


def test_central_weights_closed_form():
    w = savgol_weights(7, 2, 3)
    np.testing.assert_allclose(w, np.arange(-3, 4) / 28.0, rtol=0, atol=1e-12)


def test_constant_position_velocity_zero():
    v = savgol_derivative(np.full(30, 5.0), PARAMS)
    np.testing.assert_allclose(v, 0.0, atol=1e-9)


def test_linear_position_exact():
    t = np.arange(50)
    v = savgol_derivative(0.002 * t, PARAMS)
    np.testing.assert_allclose(v, 2.0, rtol=1e-9)


def test_quadratic_exactness_seeded():
    rng = np.random.default_rng(7)
    t = np.arange(60)
    for _ in range(20):
        a, b, c = rng.uniform(-1, 1, 3)
        x = a * (t * 1e-3) ** 2 + b * (t * 1e-3) + c
        v = savgol_derivative(x, PARAMS)
        expected = 2 * a * (t * 1e-3) + b
        np.testing.assert_allclose(v, expected, rtol=1e-9, atol=1e-9 * np.abs(expected).max())


def test_random_sequence_matches_polyfit_oracle():
    rng = np.random.default_rng(42)
    x = rng.normal(0, 1, 50).cumsum()
    v = savgol_derivative(x, PARAMS)
    oracle = polyfit_derivative_oracle(x, PARAMS)
    np.testing.assert_allclose(v, oracle, rtol=1e-9, atol=1e-9)


def test_missing_sample_invalidates_covering_windows():
    n, half, miss = 40, 3, 20
    x = np.arange(n, dtype=float)
    x[miss] = np.nan
    v = savgol_derivative(x, PARAMS)

    def window_of(i):
        if i < half:
            return range(0, 7)
        if i >= n - half:
            return range(n - 7, n)
        return range(i - half, i + half + 1)

    for i in range(n):
        assert np.isnan(v[i]) == (miss in window_of(i)), f"index {i}"
    assert np.isnan(v).sum() == 7


def test_savgol_size_and_param_errors():
    with pytest.raises(SizeError):
        savgol_derivative(np.zeros(5), PARAMS)
    with pytest.raises(ConfigError):
        savgol_derivative(np.zeros(20), SavGolParams(window_length=6))
    with pytest.raises(ConfigError):
        savgol_derivative(np.zeros(20), SavGolParams(window_length=5, poly_order=5))
    with pytest.raises(ConfigError):
        savgol_derivative(np.zeros(20), SavGolParams(dt_s=0.0))


def test_clamp_paper_limits():
    v = clamp_velocities(np.array([1500.0, -1500.0, 999.9]))
    np.testing.assert_array_equal(v, [1000.0, -1000.0, 999.9])


def test_clamp_scalar_oracle_and_nan():
    rng = np.random.default_rng(3)
    v = rng.uniform(-3000, 3000, 200)
    v[::17] = np.nan
    out = clamp_velocities(v, 1000.0)
    for a, b in zip(v, out):
        if math.isnan(a):
            assert math.isnan(b)
        else:
            assert b == max(-1000.0, min(1000.0, a))


@given(st.lists(st.floats(-5000, 5000), min_size=1, max_size=50))
def test_clamp_idempotent(values):
    once = clamp_velocities(values)
    np.testing.assert_array_equal(clamp_velocities(once), once)


def test_window_counts_5500():
    v = np.zeros(5500)
    windows, summary = window_sequence(v, v, v, v, 1000, recording_id="r")
    assert len(windows) == 5
    assert summary.retained == 5
    assert summary.tail_samples == 500
    assert windows.window_ids == [f"r-w{i:04d}" for i in range(5)]


def test_window_missing_exclusion_boundary():
    v = np.zeros(2000)
    v[:501] = np.nan  # window 0: 501 missing -> excluded
    v2 = np.zeros(2000)
    v2[1000:1500] = np.nan  # window 1: exactly 500 missing -> retained
    windows, summary = window_sequence(v, np.zeros(2000), v, v, 1000)
    assert summary.excluded == 1 and summary.retained == 1
    windows2, summary2 = window_sequence(v2, np.zeros(2000), v2, v2, 1000)
    assert summary2.excluded == 0 and summary2.retained == 2
    assert int((~windows2.valid[1]).sum()) == 500


@given(
    n=st.integers(0, 5000),
    window_len=st.integers(1, 700),
    missing_frac=st.floats(0.0, 1.0),
)
@settings(max_examples=40, deadline=None)
def test_window_partition_property(n, window_len, missing_frac):
    rng = np.random.default_rng(n * 31 + window_len)
    v = rng.normal(0, 1, n)
    v[rng.random(n) < missing_frac] = np.nan
    windows, s = window_sequence(v, v, v, v, window_len)
    assert s.retained * window_len + s.excluded * window_len + s.tail_samples == n
    assert len(windows) == s.retained
    assert ((~windows.valid).sum(axis=1) <= 0.5 * window_len).all()


@given(st.text(st.sampled_from("-w0123456789a_."), min_size=1, max_size=12),
       st.sampled_from([1, 12, 10_003]))
@example("rec-w0001", 10_003)
@example("7-w-w", 12)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_recording_of_inverts_window_sequence_ids(recording_id, n):
    """Every id window_sequence gives a recording's windows, slots past
    9999 included, names that recording; a slot it never writes names
    none."""
    traces = (np.zeros(n),) * 4
    stack, _ = window_sequence(*traces, window_len=1, recording_id=recording_id)
    assert len(stack) == n
    assert {recording_of(window_id) for window_id in stack.window_ids} == {recording_id}
    for not_a_slot in ("", "-w", "-w12", "-w00012", "-w-001", "-w+123", "-w 0123",
                       "-w\u0661\u0662\u0663\u0664"):
        assert recording_of(recording_id + not_a_slot) != recording_id


def test_take_reorders_rows_into_a_copy():
    v = np.arange(3000, dtype=float)
    windows, _ = window_sequence(v, -v, v, v, 1000, recording_id="r", sampling_rate_hz=500.0)
    taken = windows.take([2, 0])
    assert taken.window_ids == ["r-w0002", "r-w0000"]
    starts = [int(window_id.rsplit("-w", 1)[1]) * 1000 for window_id in taken.window_ids]
    assert taken.px[:, 0].tolist() == [v[start] for start in starts] == [2000.0, 0.0]
    for name in ("vx", "vy", "px", "py", "valid", "sampling_rate_hz"):
        np.testing.assert_array_equal(getattr(taken, name), getattr(windows, name)[[2, 0]])
    taken.vx[0, 0] = -1.0
    assert windows.vx[2, 0] == 2000.0
    empty = windows.take([])
    assert len(empty) == 0 and empty.length == 1000 and empty.valid.dtype == bool


def test_zscore_identity_stats_and_missing_zero():
    vx = np.array([1.0, np.nan, -2.0, 3.0])
    w = build_window(vx, vx.copy())
    stats = compute_channel_stats(w)
    stats.mean_x = stats.mean_y = 0.0
    stats.std_x = stats.std_y = 1.0
    normed = zscore_normalize(w, [stats])
    assert normed is not w and np.isnan(w.vx[0, 1])  # a copy; the input is kept
    np.testing.assert_array_equal(normed.vx[0, [0, 2, 3]], vx[[0, 2, 3]])
    assert normed.vx[0, 1] == 0.0 and normed.vy[0, 1] == 0.0


def test_zscore_moments_oracle():
    rng = np.random.default_rng(11)
    vx = rng.normal(3.0, 2.5, 500)
    vy = rng.normal(-1.0, 0.5, 500)
    vx[::13] = np.nan
    w = build_window(vx, vy)
    stats = compute_channel_stats(w)
    normed = zscore_normalize(w, [stats])
    valid = normed.valid
    assert abs(np.mean(normed.vx[valid])) < 1e-9
    assert abs(np.std(normed.vx[valid]) - 1.0) < 1e-9
    assert abs(np.mean(normed.vy[valid])) < 1e-9
    assert abs(np.std(normed.vy[valid]) - 1.0) < 1e-9
    # invertible on valid samples
    np.testing.assert_allclose(
        normed.vx[valid] * stats.std_x + stats.mean_x, vx[valid[0]], rtol=1e-9
    )


def test_zscore_zero_variance_errors():
    w = build_window(np.full(10, 2.0), np.arange(10, dtype=float))
    stats = compute_channel_stats(w)
    with pytest.raises(DegenerateDataError, match="channel x"):
        zscore_normalize(w, [stats])


def test_stats_cover_valid_samples_only():
    vx = np.array([1.0, np.nan, 3.0])
    w = build_window(vx, np.array([2.0, np.nan, 4.0]))
    stats = compute_channel_stats(w)
    assert stats.n == 2
    assert stats.mean_x == 2.0
    assert stats.mean_y == 3.0
