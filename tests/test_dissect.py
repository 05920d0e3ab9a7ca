import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from gazeconcepts.dissect import dissect_saccades, round_half_away

from conftest import build_window, raised_cosine_speeds


def _saccade(onset, offset, window_id="w0000"):
    return ref.GazeEvent("w0000:sac000", "saccade", window_id, onset, offset)


def dissect_saccade(saccade, window, **kw):
    """The dissection of one saccade, as a table of one."""
    return ref.dissections(dissect_saccades(ref.event_table([saccade]), window, **kw))[0][0]


def _dissect_speeds(speeds, onset, offset, n=None, **kw):
    speeds = np.asarray(speeds, dtype=float)
    n = n or len(speeds)
    vx = np.zeros(n)
    vx[: len(speeds)] = speeds
    return dissect_saccade(_saccade(onset, offset), build_window(vx), **kw)


def phase_sets(dissection):
    out = {}
    for s in dissection.sub_events:
        out.setdefault(s.phase, set()).update(range(s.onset, s.offset + 1))
    return out


def test_worked_profile():
    # 8-sample saccade at indices 6..13 inside a 20-sample window
    speeds = np.zeros(20)
    speeds[6:14] = [40, 120, 200, 240, 300, 260, 180, 60]
    d = _dissect_speeds(speeds, 6, 13)
    phases = phase_sets(d)
    assert phases["peak"] == {9, 10, 11}
    assert phases["rise"] == {6, 7, 8}
    assert phases["fall"] == {12, 13}
    assert phases["pre"] == {3, 4, 5}
    assert phases["post"] == {14, 15, 16}
    assert d.disregarded == 0


def test_symmetric_triangle_single_peak():
    speeds = np.concatenate([np.arange(1, 8), [10.0], np.arange(7, 0, -1)]) * 30
    d = _dissect_speeds(speeds, 0, len(speeds) - 1, n=40)
    phases = phase_sets(d)
    assert phases["peak"] == {7}
    assert len(phases["rise"]) == len(phases["fall"]) == 7


def test_interior_gap_disregarded():
    # supra segments {3,4} and {6}; sample 5 dips below 0.8 * 300 = 240
    speeds = np.zeros(20)
    speeds[0:8] = [40, 120, 200, 240, 300, 230, 245, 60]
    d = _dissect_speeds(speeds, 0, 7)
    phases = phase_sets(d)
    assert phases["peak"] == {3, 4, 6}
    assert 5 not in set().union(*phases.values())
    assert d.disregarded == 1
    assert phases["fall"] == {7}


def test_pre_clipped_at_window_start():
    speeds = np.zeros(20)
    speeds[1:9] = [40, 120, 200, 240, 300, 260, 180, 60]
    d = _dissect_speeds(speeds, 1, 8)
    phases = phase_sets(d)
    assert phases["pre"] == {0}


def test_pre_omitted_at_index_zero():
    speeds = np.zeros(20)
    speeds[0:8] = [40, 120, 200, 240, 300, 260, 180, 60]
    d = _dissect_speeds(speeds, 0, 7)
    assert "pre" not in phase_sets(d)


def test_post_clipped_at_window_end():
    speeds = np.zeros(10)
    speeds[2:10] = [40, 120, 200, 240, 300, 260, 180, 60]
    d = _dissect_speeds(speeds, 2, 9, n=10)
    phases = phase_sets(d)
    assert "post" not in phases  # nothing after the last window sample


def test_flank_length_rounding_and_floor():
    assert round_half_away(8 / 3) == 3
    assert round_half_away(2.5) == 3
    assert round_half_away(1 / 3) == 0
    # 1-sample saccade: flank floored at 1
    speeds = np.zeros(9)
    speeds[4] = 100.0
    d = _dissect_speeds(speeds, 4, 4)
    phases = phase_sets(d)
    assert phases["pre"] == {3}
    assert phases["post"] == {5}
    assert phases["peak"] == {4}


def test_single_peak_sample_always_present():
    speeds = np.zeros(12)
    speeds[3:9] = [10, 20, 30, 29, 22, 9]
    d = _dissect_speeds(speeds, 3, 8)
    assert "peak" in phase_sets(d)
    assert 5 in phase_sets(d)["peak"]  # the argmax reaches 100% >= 80%


@given(
    n=st.integers(2, 80),
    peak=st.floats(30.0, 900.0),
    seed=st.integers(0, 1000),
)
@settings(max_examples=80, deadline=None)
def test_partition_property(n, peak, seed):
    rng = np.random.default_rng(seed)
    speeds = raised_cosine_speeds(n, peak) + rng.normal(0, 0.5, n)
    speeds = np.abs(speeds)
    margin = 10
    full = np.zeros(n + 2 * margin)
    full[margin : margin + n] = speeds
    d = _dissect_speeds(full, margin, margin + n - 1)
    counts = {p: d.phase_samples(p) for p in ("rise", "peak", "fall")}
    assert counts["rise"] + counts["peak"] + counts["fall"] + d.disregarded == n
    flank = max(1, round_half_away(n / 3))
    for s in d.sub_events:
        if s.phase in ("pre", "post"):
            assert s.n_samples <= flank
            assert s.offset < margin or s.onset > margin + n - 1
        else:
            assert margin <= s.onset and s.offset <= margin + n - 1


@given(n=st.integers(4, 60), seed=st.integers(0, 200))
@settings(max_examples=40, deadline=None)
def test_peak_membership_and_ratio_antimonotone(n, seed):
    rng = np.random.default_rng(seed)
    speeds = np.abs(raised_cosine_speeds(n, 200.0) + rng.normal(0, 5.0, n))
    margin = 5
    full = np.zeros(n + 2 * margin)
    full[margin : margin + n] = speeds
    v = speeds.max()
    low = _dissect_speeds(full, margin, margin + n - 1, peak_ratio=0.7)
    high = _dissect_speeds(full, margin, margin + n - 1, peak_ratio=0.9)
    low_peak = phase_sets(low)["peak"]
    high_peak = phase_sets(high).get("peak", set())
    assert high_peak <= low_peak
    for i in phase_sets(high).get("peak", set()):
        assert speeds[i - margin] / v >= 0.9


def test_exact_ratio_boundary_is_inclusive():
    # speed exactly 80% of peak must belong to the peak phase
    speeds = np.zeros(12)
    speeds[3:8] = [100.0, 240.0, 300.0, 240.0, 100.0]
    d = _dissect_speeds(speeds, 3, 7)
    assert phase_sets(d)["peak"] == {4, 5, 6}
