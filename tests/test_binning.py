import math

import numpy as np
import pytest

from gazeconcepts.binning import (
    MAX_BINS,
    BinSpec,
    bin_events,
    binned_influence,
    read_binned,
    resolve_edges,
    write_binned,
)
from gazeconcepts.errors import ConfigError
from gazeconcepts.influence import concept_influence, concept_segmentation, topk_segmentation
from gazeconcepts.pipeline import RunConfig
from reference import GazeEvent
from reference import event_table as table


def _sacc(onset, offset, duration_ms, window_id="w0"):
    return GazeEvent(
        f"{window_id}:sac{onset}", "saccade", window_id, onset, offset,
        duration_ms=duration_ms, peak_velocity=100.0, amplitude_deg=1.0,
    )


def test_two_bin_assignment():
    events = [_sacc(0, 4, 5.0), _sacc(10, 24, 15.0)]
    spec = BinSpec("saccade_duration_ms", mode="explicit", edges=(0.0, 10.0, 20.0))
    bins = bin_events(table(events), spec)
    regular = [b for b in bins if b.label == "bin"]
    assert [b.event_count for b in regular] == [1, 1]
    assert regular[0].events.duration_ms[0] == 5.0


def test_value_on_interior_edge_goes_low():
    events = [_sacc(0, 9, 10.0)]
    spec = BinSpec("saccade_duration_ms", mode="explicit", edges=(0.0, 10.0, 20.0))
    bins = bin_events(table(events), spec)
    regular = [b for b in bins if b.label == "bin"]
    assert regular[0].event_count == 1
    assert regular[1].event_count == 0


def test_underflow_overflow_reported():
    events = [_sacc(0, 1, 2.0), _sacc(5, 55, 50.0)]
    spec = BinSpec("saccade_duration_ms", mode="explicit", edges=(10.0, 20.0))
    bins = bin_events(table(events), spec)
    assert bins[0].label == "underflow" and bins[0].event_count == 1
    assert bins[-1].label == "overflow" and bins[-1].event_count == 1


def test_quantile_bins_balanced():
    rng = np.random.default_rng(31)
    durations = rng.uniform(9.0, 100.0, 100)
    events = [_sacc(i, i, d) for i, d in enumerate(durations)]
    spec = BinSpec("saccade_duration_ms", mode="quantile", n_bins=4)
    edges = resolve_edges(spec, table(events))
    # sort-based oracle: edges must match plain quantiles of the sorted data
    np.testing.assert_allclose(edges, np.quantile(np.sort(durations), [0, 0.25, 0.5, 0.75, 1.0]))
    bins = bin_events(table(events), spec, edges=edges)
    for b in bins:
        if b.label == "bin":
            assert abs(b.event_count - 25) <= 1


def test_nan_property_values_left_out():
    e = _sacc(0, 4, 5.0)
    e_nan = GazeEvent("x", "saccade", "w0", 6, 8, duration_ms=math.nan)
    spec = BinSpec("saccade_duration_ms", mode="explicit", edges=(0.0, 10.0))
    bins = bin_events(table([e, e_nan]), spec)
    assert sum(b.event_count for b in bins) == 1


def test_kind_mismatch_errors():
    fix = GazeEvent("f", "fixation", "w0", 0, 49, duration_ms=50.0)
    spec = BinSpec("saccade_duration_ms", mode="explicit", edges=(0.0, 10.0))
    with pytest.raises(ConfigError):
        bin_events(table([fix]), spec)


def test_bad_specs_rejected():
    with pytest.raises(ConfigError):
        BinSpec("no_such_property").validate()
    with pytest.raises(ConfigError):
        BinSpec("saccade_duration_ms", mode="explicit", edges=(1.0,)).validate()
    with pytest.raises(ConfigError):
        BinSpec("saccade_duration_ms", mode="explicit", edges=(2.0, 1.0)).validate()
    # validation alone: a huge `bins` is never sent through binning, which
    # would build a list of bins + 1 edges
    RunConfig(bins=MAX_BINS).validate()
    for bins in (10**9, MAX_BINS + 1, 0):
        message = f"bins must be between 1 and {MAX_BINS}, got {bins}$"
        with pytest.raises(ConfigError, match=message):
            RunConfig(bins=bins).validate()
    for edges in ((math.nan, 1.0), (0.0, math.inf), (-math.inf, 0.0)):
        with pytest.raises(ConfigError, match="bin_edges must be finite"):
            RunConfig(bin_mode="explicit", bin_edges=edges).validate()


def _window_setup(L=200, k=10, seed=5):
    rng = np.random.default_rng(seed)
    topk = topk_segmentation(rng.normal(0, 1, L), k, "w0")
    return topk


def test_single_bin_equals_unbinned():
    topk = _window_setup()
    events = [_sacc(10, 29, 20.0), _sacc(60, 99, 40.0), _sacc(150, 169, 20.0)]
    spec = BinSpec("saccade_duration_ms", mode="explicit", edges=(0.0, 100.0))
    bins = bin_events(table(events), spec)
    out = binned_influence(bins, spec, topk.mask[None], topk.k)
    full = concept_influence(
        concept_segmentation(table(events), "saccade", 200, "w0"), topk
    )
    one = [b for b in out if b.label == "bin"][0]
    assert one.influence.intersection == full.intersection
    assert one.influence.c == full.c


def test_disjoint_bins_sum_to_union_intersection():
    topk = _window_setup(seed=8)
    events = [_sacc(10, 29, 15.0), _sacc(60, 99, 40.0), _sacc(150, 169, 95.0)]
    spec = BinSpec("saccade_duration_ms", mode="explicit", edges=(9.0, 30.0, 60.0, 100.0))
    out = binned_influence(bin_events(table(events), spec), spec, topk.mask[None], topk.k)
    union = concept_influence(concept_segmentation(table(events), "saccade", 200, "w0"), topk)
    per_bin = sum(b.influence.intersection for b in out if b.influence is not None)
    assert per_bin == union.intersection


def test_refinement_preserves_total_intersection():
    topk = _window_setup(seed=13)
    events = [_sacc(0, 19, 12.0), _sacc(40, 79, 35.0), _sacc(120, 139, 55.0), _sacc(160, 189, 80.0)]
    coarse = BinSpec("saccade_duration_ms", mode="explicit", edges=(9.0, 50.0, 100.0))
    fine = BinSpec("saccade_duration_ms", mode="explicit", edges=(9.0, 25.0, 50.0, 70.0, 100.0))
    total = lambda spec: sum(
        b.influence.intersection
        for b in binned_influence(bin_events(table(events), spec), spec, topk.mask[None], topk.k)
        if b.influence is not None
    )
    assert total(coarse) == total(fine)


def test_concentrated_bin_dominates():
    L, k = 200, 10
    v = np.zeros(L)
    v[10:20] = 1.0  # all top-k hits inside the first event
    topk = topk_segmentation(v, k, "w0")
    events = [_sacc(10, 19, 15.0), _sacc(100, 139, 45.0)]
    spec = BinSpec("saccade_duration_ms", mode="explicit", edges=(9.0, 30.0, 100.0))
    out = [b for b in binned_influence(bin_events(table(events), spec), spec, topk.mask[None], topk.k)
           if b.label == "bin"]
    assert out[0].influence.c >= out[1].influence.c


def test_empty_bin_influence_omitted():
    topk = _window_setup()
    events = [_sacc(10, 29, 15.0)]
    spec = BinSpec("saccade_duration_ms", mode="explicit", edges=(9.0, 30.0, 100.0))
    out = binned_influence(bin_events(table(events), spec), spec, topk.mask[None], topk.k)
    regular = [b for b in out if b.label == "bin"]
    assert regular[0].event_count == 1 and regular[0].influence is not None
    assert regular[1].event_count == 0 and regular[1].influence is None


def test_binned_roundtrip(tmp_path):
    topk = _window_setup()
    events = [_sacc(10, 29, 15.0), _sacc(60, 99, 40.0)]
    spec = BinSpec("saccade_duration_ms", mode="explicit", edges=(9.0, 30.0, 100.0))
    bins = bin_events(table(events), spec)
    binned = {"saccade_duration_ms": binned_influence(bins, spec, topk.mask[None], topk.k)}
    path = tmp_path / "binned.csv"
    write_binned(binned, path)
    back = read_binned(path)
    rows = back["saccade_duration_ms"]
    assert len(rows) == len(binned["saccade_duration_ms"])
    for a, b in zip(binned["saccade_duration_ms"], rows):
        assert (a.label, a.event_count, a.segmentation_size) == (b.label, b.event_count, b.segmentation_size)
        if a.influence is not None:
            assert b.influence.intersection == a.influence.intersection
            assert b.influence.c == pytest.approx(a.influence.c, rel=1e-8)
