import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gazeconcepts.errors import ConfigError, EmptyConceptError
from gazeconcepts.influence import (
    ConceptSegmentation,
    TopKSegmentation,
    aggregate_influence,
    concept_influence,
    concept_segmentation,
    default_k,
    squash_channels,
    topk_segmentation,
)
from gazeconcepts.io import AttributionMap
from reference import GazeEvent
from reference import event_table as table


def seg(mask, window_id="w", concept="c"):
    return ConceptSegmentation(window_id, concept, np.asarray(mask, dtype=bool))


def topk_mask(mask, k, window_id="w"):
    return TopKSegmentation(window_id, k, np.asarray(mask, dtype=bool))


def brute_force_influence(s_mask, t_mask, k):
    """Index-by-index counting, then the defining formula."""
    L = len(s_mask)
    inter = 0
    size = 0
    for i in range(L):
        size += 1 if s_mask[i] else 0
        if s_mask[i] and t_mask[i]:
            inter += 1
    return inter, (L * inter) / (size * k)


def test_squash_signed_two_steps():
    attr = AttributionMap("w", np.array([[1.0, 3.0], [-2.0, 0.0]]))
    np.testing.assert_array_equal(squash_channels(attr), [1.0, 3.0])


def test_squash_single_channel_identity():
    attr = AttributionMap("w", np.array([[0.5, -1.0, 2.0]]))
    np.testing.assert_array_equal(squash_channels(attr), [0.5, -1.0, 2.0])


def test_squash_matches_elementwise_oracle():
    rng = np.random.default_rng(1)
    values = rng.normal(0, 1, (2, 1000))
    out = squash_channels(AttributionMap("w", values))
    for i in range(1000):
        assert out[i] == max(values[0, i], values[1, i])
    out_abs = squash_channels(AttributionMap("w", values), mode="abs")
    for i in range(1000):
        assert out_abs[i] == max(abs(values[0, i]), abs(values[1, i]))


def test_default_k_paper_anchors():
    assert default_k(1000) == 20
    assert default_k(5000) == 100
    assert default_k(10) == 1  # floored at 1


def test_topk_small_case():
    t = topk_segmentation([0.1, 0.9, 0.5, 0.2], 2)
    assert set(np.flatnonzero(t.mask)) == {1, 2}


def test_topk_tie_break_lower_index():
    t = topk_segmentation(np.ones(1000), 20)
    assert list(np.flatnonzero(t.mask)) == list(range(20))


def test_topk_matches_sort_oracle():
    rng = np.random.default_rng(2)
    v = rng.normal(0, 1, 500)
    v[100:110] = v[200]  # inject ties
    k = 37
    t = topk_segmentation(v, k)
    oracle = sorted(range(500), key=lambda i: (-v[i], i))[:k]
    assert set(np.flatnonzero(t.mask)) == set(oracle)
    assert t.mask.sum() == k


def test_topk_k_out_of_range():
    with pytest.raises(ConfigError):
        topk_segmentation([1.0, 2.0], 0)
    with pytest.raises(ConfigError):
        topk_segmentation([1.0, 2.0], 3)


def _ev(onset, offset):
    return GazeEvent("e", "saccade", "w", onset, offset)


def test_concept_segmentation_single_interval():
    s = concept_segmentation(table([_ev(10, 19)]), "saccade", 100, "w")
    assert s.size == 10
    assert s.mask[10] and s.mask[19] and not s.mask[20]


def test_concept_segmentation_union_once():
    s = concept_segmentation(table([_ev(10, 19), _ev(15, 24)]), "saccade", 100, "w")
    assert s.size == 15


def test_concept_segmentation_out_of_range():
    with pytest.raises(ConfigError):
        concept_segmentation(table([_ev(95, 105)]), "saccade", 100, "w")


def test_fixation_concept_size_tracks_ground_truth():
    # zero-noise scanpath with slow saccades: the detected fixation mask
    # may spread at most 2 samples past each saccade junction
    from gazeconcepts.detect import DetectionParams, detect_fixations_ivt, retained
    from gazeconcepts.synth import (
        PlannedFixation,
        PlannedSaccade,
        ScanpathSpec,
        gen_scanpath,
    )
    from conftest import ground_truth_in_window, pipeline_windows

    segments = []
    for _ in range(5):
        segments.extend([PlannedFixation(150.0), PlannedSaccade(28.0, 2.0)])
    segments.append(PlannedFixation(110.0))
    rec, truth = gen_scanpath(ScanpathSpec(segments=segments), seed=0, recording_id="z")
    windows, _ = pipeline_windows(rec)
    w = windows.take([0])
    gt_fix = [t for t in ground_truth_in_window(truth, 0, w.length) if t.kind == "fixation"]
    gt_size = sum(t.n_samples for t in gt_fix)
    fx = retained(detect_fixations_ivt(w, DetectionParams()))
    seg = concept_segmentation(fx, "fixation", w.length, w.window_ids[0])
    assert len(fx) == len(gt_fix)
    junctions = 2 * 5
    assert abs(seg.size - gt_size) <= 2 * junctions
    assert seg.size == pytest.approx(gt_size, rel=0.03)


def test_influence_full_overlap_bound():
    mask = np.zeros(1000, dtype=bool)
    mask[:20] = True
    r = concept_influence(seg(mask), topk_mask(mask, 20))
    assert r.intersection == 20
    assert r.c == 50.0  # L / |S|


def test_influence_disjoint_zero():
    s_mask = np.zeros(1000, dtype=bool)
    s_mask[:100] = True
    t_mask = np.zeros(1000, dtype=bool)
    t_mask[500:520] = True
    r = concept_influence(seg(s_mask), topk_mask(t_mask, 20))
    assert r.intersection == 0 and r.c == 0.0


def test_influence_worked_case_exact():
    s_mask = np.zeros(1000, dtype=bool)
    s_mask[:250] = True
    t_mask = np.zeros(1000, dtype=bool)
    t_mask[240:260] = True  # 10 inside S, 10 outside
    r = concept_influence(seg(s_mask), topk_mask(t_mask, 20))
    assert r.intersection == 10
    assert r.c == 2.0


def test_influence_empty_concept_signals():
    with pytest.raises(EmptyConceptError):
        concept_influence(seg(np.zeros(100, dtype=bool)), topk_mask(np.zeros(100, dtype=bool), 2))


def test_influence_length_mismatch():
    with pytest.raises(ConfigError):
        concept_influence(seg(np.ones(10, dtype=bool)), topk_mask(np.ones(20, dtype=bool), 2))


def test_influence_brute_force_oracle_1000_pairs():
    rng = np.random.default_rng(20230403)
    for _ in range(1000):
        L = int(rng.integers(10, 400))
        k = int(rng.integers(1, L + 1))
        s_mask = rng.random(L) < rng.uniform(0.05, 0.9)
        if not s_mask.any():
            s_mask[int(rng.integers(0, L))] = True
        t = topk_segmentation(rng.normal(0, 1, L), k)
        r = concept_influence(seg(s_mask), t)
        inter, c = brute_force_influence(s_mask.tolist(), t.mask.tolist(), k)
        assert r.intersection == inter
        assert r.c == c  # identical arithmetic on identical integers
        size = int(s_mask.sum())
        assert 0.0 <= r.c <= L * min(size, k) / (size * k)
        assert (r.c == 0.0) == (inter == 0)


def test_aggregate_singleton_equals_window():
    mask = np.zeros(100, dtype=bool)
    mask[:10] = True
    r = concept_influence(seg(mask), topk_mask(mask, 10))
    agg = aggregate_influence([r])
    assert agg.c == r.c
    assert agg.c_mean == r.c
    assert agg.scope == "corpus"


def test_aggregate_identical_windows_pooled_equals_mean():
    mask = np.zeros(1000, dtype=bool)
    mask[:250] = True
    t_mask = np.zeros(1000, dtype=bool)
    t_mask[240:260] = True
    rs = [concept_influence(seg(mask, f"w{i}"), topk_mask(t_mask, 20, f"w{i}")) for i in range(2)]
    agg = aggregate_influence(rs)
    assert agg.c == agg.c_mean == rs[0].c == 2.0
    assert agg.n_windows == 2


def test_aggregate_matches_global_recount():
    rng = np.random.default_rng(9)
    results = []
    totals = [0, 0, 0, 0]  # L, S, k, inter
    for i in range(100):
        L = 200
        k = 4
        s_mask = rng.random(L) < 0.3
        if not s_mask.any():
            s_mask[0] = True
        t = topk_segmentation(rng.normal(0, 1, L), k, f"w{i}")
        r = concept_influence(seg(s_mask, f"w{i}"), t)
        results.append(r)
        totals[0] += L
        totals[1] += int(s_mask.sum())
        totals[2] += k
        totals[3] += r.intersection
    agg = aggregate_influence(results)
    assert agg.c == (totals[0] * totals[3]) / (totals[1] * totals[2])
    assert agg.c_mean == pytest.approx(np.mean([r.c for r in results]), rel=1e-12)


def test_aggregate_empty_and_mixed_errors():
    with pytest.raises(ConfigError):
        aggregate_influence([])
    mask = np.ones(10, dtype=bool)
    r1 = concept_influence(seg(mask, concept="a"), topk_mask(mask, 10))
    r2 = concept_influence(seg(mask, concept="b"), topk_mask(mask, 10))
    with pytest.raises(ConfigError):
        aggregate_influence([r1, r2])


@given(
    L=st.integers(5, 300),
    k_frac=st.floats(0.01, 1.0),
    p=st.floats(0.02, 0.95),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=100, deadline=None)
def test_bounds_property(L, k_frac, p, seed):
    rng = np.random.default_rng(seed)
    k = max(1, min(L, round(k_frac * L)))
    s_mask = rng.random(L) < p
    if not s_mask.any():
        s_mask[0] = True
    t = topk_segmentation(rng.normal(0, 1, L), k)
    r = concept_influence(seg(s_mask), t)
    size = int(s_mask.sum())
    assert 0.0 <= r.c <= L * min(size, k) / (size * k) + 1e-12


@given(seed=st.integers(0, 5000), k1=st.integers(1, 50), k2=st.integers(1, 50))
@settings(max_examples=60, deadline=None)
def test_growing_k_never_decreases_intersection(seed, k1, k2):
    if k1 > k2:
        k1, k2 = k2, k1
    rng = np.random.default_rng(seed)
    v = rng.normal(0, 1, 100)
    s_mask = rng.random(100) < 0.4
    if not s_mask.any():
        s_mask[3] = True
    r1 = concept_influence(seg(s_mask), topk_segmentation(v, k1))
    r2 = concept_influence(seg(s_mask), topk_segmentation(v, k2))
    assert r2.intersection >= r1.intersection


@given(seed=st.integers(0, 5000))
@settings(max_examples=50, deadline=None)
def test_permutation_equivariance(seed):
    rng = np.random.default_rng(seed)
    L, k = 80, 7
    v = rng.normal(0, 1, L)
    s_mask = rng.random(L) < 0.3
    if not s_mask.any():
        s_mask[5] = True
    perm = rng.permutation(L)
    r = concept_influence(seg(s_mask), topk_segmentation(v, k))
    # same permutation applied to S and the attribution vector; continuous
    # draws make ties (which interact with index tie-breaking) measure zero
    rp = concept_influence(seg(s_mask[perm]), topk_segmentation(v[perm], k))
    assert r.intersection == rp.intersection
    assert r.c == rp.c


@given(seed=st.integers(0, 5000), gamma=st.floats(0.001, 1000.0))
@settings(max_examples=50, deadline=None)
def test_attribution_scale_invariance_of_mask(seed, gamma):
    rng = np.random.default_rng(seed)
    v = rng.normal(0, 1, 200)
    t1 = topk_segmentation(v, 11)
    t2 = topk_segmentation(v * gamma, 11)
    np.testing.assert_array_equal(t1.mask, t2.mask)


def test_topk_deterministic_under_ties():
    v = np.zeros(100)
    v[[7, 3, 50]] = 2.0
    masks = [topk_segmentation(v.copy(), 10).mask for _ in range(3)]
    np.testing.assert_array_equal(masks[0], masks[1])
    np.testing.assert_array_equal(masks[0], masks[2])
    # the three maxima, then lowest-index zeros
    assert set(np.flatnonzero(masks[0])) == {3, 7, 50, 0, 1, 2, 4, 5, 6, 8}
