"""The batched window kernels against the per-window reference loops in
tests/reference.py: every GazeEvent, SubEvent, SaccadeDissection,
InfluenceResult and BinnedInfluence field must be equal bit for bit
(NaN equals NaN), and a failing input must raise the same exception type
with the same message. The kernels compute on a WindowStack, the
reference loops on its rows (reference.window_rows). The kernels'
EventTable and SubEventTable are turned into those rows (and rows into
tables) by tests/reference.py, and the cells of an InfluenceTable into
per-window InfluenceResults here."""

import math
import struct
from dataclasses import fields, is_dataclass
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from gazeconcepts.binning import PROPERTIES, BinSpec, bin_events, binned_influence
from gazeconcepts.detect import (
    FIXATION,
    SACCADE,
    DetectionParams,
    detect_events,
    event_properties,
)
from gazeconcepts.dissect import dissect_saccades
from gazeconcepts.errors import ConfigError, DegenerateDataError, FormatError
from gazeconcepts.influence import (
    ALL_CONCEPTS,
    InfluenceResult,
    TopKSegmentation,
    concept_segmentation,
    influence_table,
    topk_masks,
)
from gazeconcepts.io import REPORT_COLUMNS, read_events, write_events
from gazeconcepts.pipeline import concept_masks

from conftest import build_window, ek_thresholds, join_windows

MISSING = ("none", "mid", "start", "end", "two_valid")
GazeEvent = ref.GazeEvent


def windows_influence(stack, events, subs, topk, k):
    """The InfluenceTable of a stack as run and staged influence compute
    it: concept masks in one batched pass, scored against the (n, L)
    top-k masks of k steps all at once."""
    masks = concept_masks(events, subs, stack.length)
    return influence_table(ALL_CONCEPTS, masks, topk, k, stack.window_ids)


def table_rows(table) -> list:
    """Per window, concept -> InfluenceResult or None (absent concept),
    each field read from the table's cells."""
    c, sizes, inter = table.c.tolist(), table.sizes.tolist(), table.intersections.tolist()
    return [
        {
            concept: InfluenceResult(
                concept, "window", inter[i][j], c[i][j], table.length, sizes[i][j],
                table.k, window_id,
            ) if sizes[i][j] else None
            for j, concept in enumerate(table.concepts)
        }
        for i, window_id in enumerate(table.window_ids)
    ]


def assert_table_matches(want, table):
    """An InfluenceTable against the reference's per-window results: every
    cell, the corpus results (reference.reduce_concepts) and the rows
    influence.csv is written from, field by field, c and c_mean by bits."""
    assert same(want, table_rows(table))
    assert np.isnan(table.c[~table.present]).all()
    corpus = ref.reduce_concepts(want)
    assert same(corpus, table.pooled())
    rows = [r for per_window in want for r in per_window.values() if r is not None]
    rows += [r for r, _ in corpus.values() if r is not None]
    rows.sort(key=attrgetter("concept", "scope", "window_id"))
    got = table.rows()
    assert sorted(got) == sorted(REPORT_COLUMNS)
    keys = list(zip(got["concept"], got["scope"], got["window_id"]))
    order = sorted(range(len(keys)), key=keys.__getitem__)
    assert same({name: [getattr(r, name) for r in rows] for name in REPORT_COLUMNS},
                {name: [got[name][i] for i in order] for name in REPORT_COLUMNS})


def table(events_by_row, stack):
    """Per-window GazeEvent lists as one table over the windows of a stack."""
    return ref.event_table([e for row in events_by_row for e in row], stack.window_ids)


def same(a, b) -> bool:
    """Equal types, and bitwise equality of floats (any NaN equals any
    NaN) or == otherwise, recursing into dataclasses, lists and dicts."""
    if is_dataclass(a):
        return type(a) is type(b) and all(
            same(getattr(a, f.name), getattr(b, f.name)) for f in fields(a)
        )
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, dict):
        return list(a) == list(b) and all(same(a[k], b[k]) for k in a)
    if isinstance(a, float):
        if type(a) is not type(b):
            return False
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return struct.pack("<d", a) == struct.pack("<d", b)
    return type(a) is type(b) and a == b


def outcome(fn, *args):
    """("ok", result) or ("raised", exception type, message)."""
    try:
        return ("ok", fn(*args))
    except Exception as e:  # the comparison is the point
        return ("raised", type(e), str(e))


def assert_same_outcome(want, got):
    if want[0] == "raised" or got[0] == "raised":
        assert want == got
    else:
        assert same(want[1], got[1])


def scanpath(rng, length, rate):
    """Velocity and position traces: noise, with saccade-like bumps."""
    vx = rng.normal(0, 3, length)
    vy = rng.normal(0, 3, length)
    t = 0
    while True:
        t += int(rng.integers(3, 40))
        dur = int(rng.integers(3, 25))
        if t + dur > length:
            break
        peak = rng.uniform(40, 700)
        angle = rng.uniform(0, 2 * np.pi)
        profile = peak * np.sin(np.pi * np.arange(dur) / dur)
        if rng.random() < 0.4:  # a dip below the peak phase level mid-saccade
            profile[dur // 3 : dur // 3 + 1 + dur // 4] *= 0.5
        vx[t : t + dur] += profile * np.cos(angle)
        vy[t : t + dur] += profile * np.sin(angle)
        t += dur
    px = np.cumsum(vx) / rate + rng.uniform(-10, 10)
    py = np.cumsum(vy) / rate + rng.uniform(-10, 10)
    return vx, vy, px, py


def make_windows(seed, length, missing, rates):
    """A stack of scanpath windows, one per entry of `missing`."""
    rng = np.random.default_rng(seed)
    windows = []
    for i, (kind, rate) in enumerate(zip(missing, rates)):
        vx, vy, px, py = scanpath(rng, length, rate)
        gap = int(rng.integers(1, length // 3))
        if kind == "mid":
            lo = int(rng.integers(1, length - gap - 1))
            vx[lo : lo + gap] = np.nan
        elif kind == "start":
            vx[:gap] = np.nan
        elif kind == "end":
            vy[length - gap :] = np.nan
        elif kind == "two_valid":
            keep = rng.choice(length, 2, replace=False)
            drop = np.ones(length, dtype=bool)
            drop[keep] = False
            vx[drop] = np.nan
        # ids out of row order, so that window id order matters
        window_id = f"r{(i * 7) % len(missing)}-w{i:04d}"
        windows.append(build_window(vx, vy, px, py, window_id=window_id,
                                    sampling_rate_hz=rate))
    return join_windows(*windows)


def reference_detect(windows, params):
    out = []
    for w in windows:
        out.append((ref.detect_fixations_ivt(w, params), ref.detect_saccades_ek(w, params)))
    return out


def nan_px_at_saccade_ends(windows, detected, rng):
    """NaN position at some saccade endpoints (velocities untouched)."""
    for w, (_, saccades) in zip(windows, detected):
        for s in saccades:
            if rng.random() < 0.5:
                w.px[s.onset if rng.random() < 0.5 else s.offset] = np.nan


params_strategy = st.builds(
    DetectionParams,
    fix_min_duration_ms=st.sampled_from([5.0, 12.0, 40.0]),
    fix_max_dispersion_deg=st.sampled_from([0.05, 0.5, 2.7]),
    sacc_min_duration_ms=st.sampled_from([3.0, 9.0]),
    sacc_max_duration_ms=st.sampled_from([20.0, 100.0]),
    sacc_min_peak_velocity=st.sampled_from([35.0, 200.0]),
    sacc_max_peak_velocity=st.sampled_from([400.0, 1000.0]),
)


@given(
    seed=st.integers(0, 2**32 - 1),
    length=st.integers(12, 90),
    missing=st.lists(st.sampled_from(MISSING), min_size=1, max_size=4),
    rate=st.sampled_from([250.0, 500.0, 1000.0]),
    params=params_strategy,
    nan_px=st.booleans(),
    top_frac=st.sampled_from([0.02, 0.1, 0.3]),
)
@settings(max_examples=150, deadline=None)
def test_batched_kernels_match_reference(seed, length, missing, rate, params, nan_px, top_frac):
    rng = np.random.default_rng(seed + 1)
    rates = [rate if i % 2 == 0 else 1000.0 for i in range(len(missing))]
    stack = make_windows(seed, length, missing, rates)
    windows = ref.window_rows(stack)
    want = outcome(reference_detect, windows, params)
    if nan_px and want[0] == "ok":
        nan_px_at_saccade_ends(windows, want[1], rng)
        want = outcome(reference_detect, windows, params)
    for w in windows:
        args = (w.vx, w.vy, params.sacc_lambda, params.eta_floor, w.valid_mask)
        assert_same_outcome(outcome(ref.ek_noise_threshold, *args),
                            outcome(ek_thresholds, *args))
    got = outcome(lambda: ref.events_by_row(detect_events(stack, params)))
    assert_same_outcome(("ok", [f + s for f, s in want[1]]) if want[0] == "ok" else want, got)
    if want[0] == "raised":
        return
    detected = want[1]

    # properties of events, detected or arbitrary, with values to keep
    events = [fixations + saccades for fixations, saccades in detected]
    arbitrary = [list(row) for row in events]
    for i in range(5):
        row = int(rng.integers(len(windows)))
        onset = int(rng.integers(length))
        offset = int(rng.integers(onset, length))
        arbitrary[row].append(GazeEvent(
            f"x{i}", str(rng.choice([FIXATION, SACCADE])), windows[row].window_id,
            onset, offset, peak_velocity=1.5, amplitude_deg=2.5, dispersion_deg=3.5,
            velocity_std=4.5, excluded=True, exclusion_reason="min duration",
        ))
    assert same(
        [[ref.compute_event_properties(e, w) for e in row] for row, w in zip(arbitrary, windows)],
        ref.events_by_row(event_properties(table(arbitrary, stack), stack)),
    )

    # dissection of every retained saccade
    want_d = [ref.dissect_all(s, w) for w, (_, s) in zip(windows, detected)]
    subs = dissect_saccades(
        table([[s for s in sacs if not s.excluded] for _, sacs in detected], stack), stack
    )
    assert same(want_d, ref.dissections(subs))

    # influence: ties in the squashed maps exercise the lower-index rule
    squashed = rng.integers(0, 4, (len(windows), length)).astype(float)
    k = max(1, round(top_frac * length))
    ref_topk = [ref.topk_segmentation(row, k, w.window_id) for row, w in zip(squashed, windows)]
    topk = topk_masks(squashed, k)
    assert same(ref_topk, [TopKSegmentation(w.window_id, k, m) for w, m in zip(windows, topk)])
    subs_by_row = [[sub for d in row for sub in d.sub_events] for row in want_d]
    want_i = [ref.window_influence(w, e, s, t)
              for w, e, s, t in zip(windows, events, subs_by_row, ref_topk)]
    assert_table_matches(want_i, windows_influence(stack, table(events, stack), subs, topk, k))

    # binned influence per property, over the retained detected events,
    # against the reference's top-k segmentations by window id
    topk_by_window = {t.window_id: t for t in ref_topk}
    for prop, (kind, attr) in PROPERTIES.items():
        pool = [e for row in events for e in row if e.kind == kind and not e.excluded
                and math.isfinite(getattr(e, attr))]
        if not pool:
            continue
        spec = BinSpec(prop, "width", n_bins=1 + seed % 5)
        bins = bin_events(ref.event_table(pool, stack.window_ids), spec)
        assert same(ref.binned_influence(bins, spec, topk_by_window),
                    binned_influence(bins, spec, topk, k))


def test_absent_concepts_and_cutoff_ties_match_reference():
    """A concept absent from a window is skipped there, one absent from
    every window (here the pre phase) has no corpus result and no row,
    and ties at the top-k cutoff go to the lower index, as in the
    reference; binning scores the same stacked masks."""
    stack = make_windows(6, 40, ["none"] * 3, [1000.0] * 3)
    windows, ids = ref.window_rows(stack), stack.window_ids
    events = [
        [GazeEvent("a:fix000", FIXATION, ids[0], 0, 9, dispersion_deg=0.5),
         GazeEvent("a:sac000", SACCADE, ids[0], 10, 17, duration_ms=8.0)],
        [GazeEvent("b:fix000", FIXATION, ids[1], 20, 39, dispersion_deg=1.5)],
        [GazeEvent("c:sac000", SACCADE, ids[2], 5, 8, duration_ms=4.0, excluded=True,
                   exclusion_reason="min duration")],
    ]
    subs = [ref.SubEvent("a:sac000", phase, lo, hi)
            for phase, lo, hi in (("rise", 10, 11), ("peak", 12, 14), ("fall", 15, 17),
                                  ("post", 18, 20))]
    squashed = np.zeros((3, 40))
    squashed[:, 8:16] = 1.0  # eight tied maxima for five top-k steps
    ref_topk = [ref.topk_segmentation(row, 5, w) for row, w in zip(squashed, ids)]
    topk = topk_masks(squashed, 5)
    assert same([t.mask for t in ref_topk], list(topk))
    assert topk[0].nonzero()[0].tolist() == [8, 9, 10, 11, 12]
    want = [ref.window_influence(w, e, s, t)
            for w, e, s, t in zip(windows, events, [subs, [], []], ref_topk)]
    event_tab = table(events, stack)
    got = windows_influence(stack, event_tab, ref.subevent_table(subs, event_tab), topk, 5)
    assert_table_matches(want, got)
    pooled = got.pooled()
    assert pooled["saccade_pre"] == (None, 3)
    assert pooled["fixation"][1] == 1 and pooled["saccade"][1] == 2
    assert "saccade_pre" not in got.rows()["concept"]

    topk_by_window = dict(zip(ids, ref_topk))
    kept = [e for row in events for e in row if not e.excluded]
    for prop in ("fixation_dispersion_deg", "saccade_duration_ms"):
        kind = PROPERTIES[prop][0]
        spec = BinSpec(prop, "explicit", edges=(0.0, 1.0, 10.0))
        bins = bin_events(ref.event_table([e for e in kept if e.kind == kind], ids), spec)
        assert same(ref.binned_influence(bins, spec, topk_by_window),
                    binned_influence(bins, spec, topk, 5))


def test_properties_of_many_intervals_match_reference():
    """Thousands of arbitrary intervals, so that the rare inputs where
    np.hypot and math.hypot round differently (about 0.5% of pairs), or
    where a segmented sum would differ from np.std, are certain to occur."""
    rng = np.random.default_rng(8)
    stack = make_windows(8, 120, ["none", "mid", "end"], [1000.0, 500.0, 1000.0])
    windows = ref.window_rows(stack)
    by_row = [[] for _ in windows]
    for i in range(3000):
        row = int(rng.integers(len(windows)))
        onset = int(rng.integers(120))
        offset = int(rng.integers(onset, min(120, onset + 60)))
        by_row[row].append(GazeEvent(f"e{i}", (FIXATION, SACCADE)[i % 2],
                                     windows[row].window_id, onset, offset))
    want = [[ref.compute_event_properties(e, w) for e in row] for row, w in zip(by_row, windows)]
    assert same(want, ref.events_by_row(event_properties(table(by_row, stack), stack)))


def test_degenerate_window_in_a_stack_raises_as_reference():
    stack = make_windows(3, 40, ["none", "none", "none"], [1000.0] * 3)
    windows = ref.window_rows(stack)
    windows[1].vx[1:] = np.nan
    windows[1].valid_mask[1:] = False
    params = DetectionParams()
    want = outcome(reference_detect, windows, params)
    assert want[:2] == ("raised", DegenerateDataError)
    assert_same_outcome(want, outcome(detect_events, stack, params))


INT64 = range(-(2**63), 2**63)


@pytest.mark.parametrize("onset, offset", [(20, 30), (-1, 3), (5, 4), (2**70, 2**70 + 3),
                                           (-(2**70), 3), (3, 2**64)])
def test_interval_outside_window_raises_as_reference(tmp_path, onset, offset):
    """Indices beyond int64 cannot enter a table: the reference rejects
    them as outside the window, and the event table reader as unparseable,
    naming the line."""
    stack = make_windows(4, 30, ["none", "mid"], [1000.0, 500.0])
    windows, ids = ref.window_rows(stack), stack.window_ids
    outside = GazeEvent("w:fix000", FIXATION, windows[1].window_id, onset, offset)
    inside = GazeEvent("w:fix001", FIXATION, windows[0].window_id, 0, 4)
    want = outcome(lambda: [ref.compute_event_properties(e, windows[r])
                            for e, r in ((inside, 0), (outside, 1))])
    assert want[:2] == ("raised", ConfigError)
    if onset not in INT64 or offset not in INT64:
        path = tmp_path / "events.csv"
        write_events(ref.event_table([inside], ids), path)
        text = path.read_text().replace(",0,4,", f",{onset},{offset},")
        path.write_text(text)
        with pytest.raises(FormatError, match="events.csv: line 2: cannot parse (onset|offset)"):
            read_events(path, stack.window_ids, stack.length)
        return
    assert_same_outcome(want, outcome(event_properties, ref.event_table([inside, outside], ids),
                                      stack))
    assert_same_outcome(
        outcome(lambda: [ref.compute_event_properties(outside, windows[1])]),
        outcome(lambda: ref.event_rows(event_properties(ref.event_table([outside]),
                                                        stack.take([1])))),
    )
    sub = ref.SubEvent("w:sac000", "post", onset, offset)
    parent = ref.event_table([GazeEvent("w:sac000", SACCADE, windows[1].window_id, 0, 4)], ids)
    assert_same_outcome(
        outcome(ref.concept_segmentation, [sub], "saccade_post", 30, "w"),
        outcome(concept_segmentation, ref.subevent_table([sub], parent), "saccade_post", 30, "w"),
    )
    topk = topk_masks(np.ones((2, 30)), 3)
    topks = [TopKSegmentation(w.window_id, 3, m) for w, m in zip(windows, topk)]
    assert_same_outcome(
        outcome(ref.window_influence, windows[1], [], [sub], topks[1]),
        outcome(lambda: table_rows(windows_influence(
            stack, ref.event_table([inside], ids), ref.subevent_table([sub], parent), topk, 3
        ))[1]),
    )
    spec = BinSpec("fixation_dispersion_deg", "explicit", edges=(0.0, 1.0))
    inside.dispersion_deg = outside.dispersion_deg = 0.5
    bins = bin_events(ref.event_table([inside, outside], ids), spec)
    topk_by_window = {t.window_id: t for t in topks}
    assert_same_outcome(
        outcome(ref.binned_influence, bins, spec, topk_by_window),
        outcome(binned_influence, bins, spec, topk, 3),
    )
    saccade = GazeEvent("w:sac000", SACCADE, windows[0].window_id, onset, offset)
    assert_same_outcome(
        outcome(ref.dissect_saccade, saccade, windows[0]),
        outcome(lambda: ref.dissections(dissect_saccades(ref.event_table([saccade], ids),
                                                         stack))[0][0]),
    )


def test_saccade_without_valid_samples_raises_as_reference():
    stack = make_windows(5, 30, ["none", "none"], [1000.0] * 2)
    windows = ref.window_rows(stack)
    windows[1].vx[5:12] = np.nan
    windows[1].valid_mask[5:12] = False
    good = GazeEvent("a:sac000", SACCADE, windows[0].window_id, 2, 6)
    blind = GazeEvent("b:sac000", SACCADE, windows[1].window_id, 6, 10)
    want = outcome(lambda: [ref.dissect_saccade(good, windows[0]),
                            ref.dissect_saccade(blind, windows[1])])
    assert want[:2] == ("raised", ConfigError)
    assert_same_outcome(want, outcome(dissect_saccades, table([[good], [blind]], stack), stack))


def test_bounds_are_checked_before_samples_or_masks():
    """The one order that differs from the reference loops, when two
    faults meet: dissect_saccades checks every saccade's interval before
    it reads a sample, and binned_influence that every window has a top-k
    mask before it builds a mask."""
    stack = make_windows(5, 30, ["none", "none"], [1000.0] * 2)
    windows = ref.window_rows(stack)
    windows[0].vx[5:12] = np.nan
    windows[0].valid_mask[5:12] = False
    blind = GazeEvent("a:sac000", SACCADE, windows[0].window_id, 6, 10)
    outside = GazeEvent("b:sac000", SACCADE, windows[1].window_id, 20, 30)
    want = outcome(ref.dissect_saccade, blind, windows[0])
    assert want[2] == "saccade a:sac000 has no valid samples"
    assert outcome(dissect_saccades, table([[blind], [outside]], stack), stack) == (
        "raised", ConfigError, "saccade interval outside window"
    )

    spec = BinSpec("fixation_dispersion_deg", "explicit", edges=(0.0, 1.0))
    beyond = GazeEvent("a:fix000", FIXATION, "a", 20, 30, dispersion_deg=0.5)
    unscored = GazeEvent("b:fix000", FIXATION, "b", 0, 4, dispersion_deg=0.5)
    topk = topk_masks(np.ones((1, 30)), 3)  # for window "a" only
    topk_by_window = {"a": TopKSegmentation("a", 3, topk[0])}
    bins = bin_events(ref.event_table([beyond, unscored]), spec)
    assert outcome(ref.binned_influence, bins, spec, topk_by_window)[2].startswith("interval")
    assert outcome(binned_influence, bins, spec, topk, 3) == (
        "raised", ConfigError, "1 top-k masks for 2 windows"
    )


@pytest.mark.parametrize("values", [[1.0, 2.0, 3.0], [np.nan, 0.0, -0.0, np.inf, -1e-300]])
def test_same_is_bitwise(values):
    """The comparison itself: -0.0 and 0.0 differ, NaN equals NaN."""
    assert same(list(values), [float(v) for v in values])
    assert not same([0.0], [-0.0])
    assert not same([1], [1.0])
    assert not same([1.0], [np.float64(1.0)])
