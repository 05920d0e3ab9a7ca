"""Partition events by a property and compute per-bin concept influence.

Supported properties are saccade duration and amplitude, and fixation
dispersion and velocity standard deviation. Bins are half-open (lo, hi];
values at or below the first edge fall into a reported underflow bin,
values above the last edge into an overflow bin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detect import FIXATION, KINDS, SACCADE, EventTable
from .errors import ConfigError
from .influence import InfluenceResult, influence_table, segment_masks
from .io import OPT_REAL, one_of, optional, read_table, write_table

PROPERTIES = {
    "saccade_duration_ms": (SACCADE, "duration_ms"),
    "saccade_amplitude_deg": (SACCADE, "amplitude_deg"),
    "fixation_dispersion_deg": (FIXATION, "dispersion_deg"),
    "fixation_velocity_std": (FIXATION, "velocity_std"),
}

UNDERFLOW = "underflow"
OVERFLOW = "overflow"
MAX_BINS = 10_000  # resolve_edges builds a Python list of n_bins + 1 edges


@dataclass(frozen=True)
class BinSpec:
    """Binning request: explicit edges, or equal-width/quantile over data."""

    property: str
    mode: str = "width"  # "width" | "quantile" | "explicit"
    n_bins: int = 20
    edges: tuple = ()

    def validate(self):
        if self.property not in PROPERTIES:
            raise ConfigError(
                f"unknown property {self.property!r}; expected one of {sorted(PROPERTIES)}"
            )
        if self.mode not in ("width", "quantile", "explicit"):
            raise ConfigError(f"unknown bin mode {self.mode!r}")
        if self.mode == "explicit":
            if len(self.edges) < 2:
                raise ConfigError("explicit binning needs at least 2 edges")
            if not all(math.isfinite(e) for e in self.edges):
                raise ConfigError(f"bin_edges must be finite, got {list(self.edges)}")
            if any(a >= b for a, b in zip(self.edges, self.edges[1:])):
                raise ConfigError("edges must be strictly increasing")
        elif not 1 <= self.n_bins <= MAX_BINS:
            raise ConfigError(f"bins must be between 1 and {MAX_BINS}, got {self.n_bins}")


@dataclass
class Bin:
    lo: float
    hi: float
    events: EventTable  # the events that fall into the bin
    label: str = "bin"  # "bin" | "underflow" | "overflow"

    @property
    def event_count(self) -> int:
        return len(self.events)


@dataclass
class BinnedInfluence:
    property: str
    lo: float
    hi: float
    label: str
    event_count: int
    segmentation_size: int
    influence: InfluenceResult | None  # None when the bin is empty


def property_values(events: EventTable, prop: str) -> np.ndarray:
    kind, attr = PROPERTIES[prop]
    bad = np.flatnonzero(~events.is_kind(kind))
    if len(bad):
        raise ConfigError(
            f"property {prop!r} applies to {kind} events, got {KINDS[events.kind[bad[0]]]}"
        )
    return getattr(events, attr)


def resolve_edges(spec: BinSpec, events, validity_range=None) -> list[float]:
    """Concrete strictly-increasing edges for a spec.

    Width mode spans the validity range when one is supplied, else the
    data range; quantile mode uses evenly spaced quantiles of the data.
    """
    spec.validate()
    if spec.mode == "explicit":
        return list(spec.edges)
    values = property_values(events, spec.property)
    values = values[np.isfinite(values)]
    if len(values) == 0:
        raise ConfigError(f"no finite {spec.property} values to derive edges from")
    if spec.mode == "width":
        lo, hi = validity_range or (float(values.min()), float(values.max()))
        if not lo < hi:
            hi = lo + 1.0
        return list(np.linspace(lo, hi, spec.n_bins + 1))
    qs = np.quantile(values, np.linspace(0.0, 1.0, spec.n_bins + 1))
    edges = [float(qs[0])]
    for q in qs[1:]:
        if q > edges[-1]:
            edges.append(float(q))
    if len(edges) < 2:
        raise ConfigError("quantile edges collapsed; property values are constant")
    return edges


def bin_events(events: EventTable, spec: BinSpec, edges=None, validity_range=None) -> list[Bin]:
    """Assign events to (lo, hi] bins plus underflow/overflow.

    Events with a NaN property value are left out entirely (they have no
    property to bin on); everything else lands in exactly one bin.
    """
    if edges is None:
        edges = resolve_edges(spec, events, validity_range)
    values = property_values(events, spec.property)
    # bisect_left: a value on an edge goes to the bin below it
    slot = np.searchsorted(np.asarray(edges, dtype=float), values, side="left")
    slot[~np.isfinite(values)] = -1
    labels = [UNDERFLOW, *["bin"] * (len(edges) - 1), OVERFLOW]
    return [
        Bin(lo, hi, events.take(slot == i), label)
        for i, (lo, hi, label) in enumerate(zip([-math.inf, *edges], [*edges, math.inf], labels))
    ]


BINNED_COLUMNS = (
    "property", "label", "lo", "hi", "event_count", "segmentation_size",
    "intersection", "c", "c_mean",
)
_BINNED_PARSERS = {
    "property": one_of(PROPERTIES), "lo": optional(float, -math.inf),
    "hi": optional(float, math.inf), "event_count": int, "segmentation_size": int,
    "intersection": optional(int, None), "c": OPT_REAL, "c_mean": optional(float, None),
}


def write_binned(binned_by_property: dict, path):
    """Per-bin influence table as CSV (empty bins keep empty cells)."""
    rows = [b for prop in sorted(binned_by_property) for b in binned_by_property[prop]]
    influence = [b.influence for b in rows]
    write_table(path, BINNED_COLUMNS, [
        *([getattr(b, name) for b in rows] for name in BINNED_COLUMNS[:6]),
        *([None if i is None else getattr(i, name) for i in influence]
          for name in BINNED_COLUMNS[6:]),
    ])


def read_binned(path) -> dict:
    """Inverse of write_binned, for staged CLI use and round-trip tests."""
    out = {}
    table, _ = read_table(path, BINNED_COLUMNS, _BINNED_PARSERS)
    for r in (dict(zip(BINNED_COLUMNS, row)) for row in zip(*table.values())):
        influence = None if r["intersection"] is None else InfluenceResult(
            r["property"], "corpus", r["intersection"], r["c"], 0, r["segmentation_size"], 0,
            c_mean=r["c_mean"],
        )
        fields = {name: r[name] for name in BINNED_COLUMNS[:6]}  # before the scores
        out.setdefault(r["property"], []).append(BinnedInfluence(**fields, influence=influence))
    return out


def binned_influence(bins, spec: BinSpec, topk, k: int) -> list[BinnedInfluence]:
    """Aggregate concept influence per bin.

    ``topk`` holds the (n, L) top-k masks, of k steps each, of the
    bins' windows (events.window_ids), row for row. Each bin's events
    form their own concept segmentation per window, evaluated against
    that window's top-k mask and pooled across windows exactly like an
    unbinned concept. The windows of one bin are scored together, in
    window id order, as one table.
    """
    ids = bins[0].events.window_ids if bins else []  # bin_events' bins share them
    if len(topk) != len(ids):
        raise ConfigError(f"{len(topk)} top-k masks for {len(ids)} windows")
    by_rank = np.array(sorted(range(len(ids)), key=ids.__getitem__), dtype=np.intp)
    rank = np.empty(len(ids), dtype=np.int64)  # of each window row in window id order
    rank[by_rank] = np.arange(len(ids))
    out = []
    for b in bins:
        # the bin's windows in id order, and each event's place among them
        ranks, group = np.unique(rank[b.events.row], return_inverse=True)
        rows = by_rank[ranks]
        masks = segment_masks(group, b.events.onset, b.events.offset, len(rows), topk.shape[1])
        table = influence_table(
            [spec.property], masks[:, None], topk[rows], k, [ids[r] for r in rows.tolist()]
        )
        out.append(BinnedInfluence(
            spec.property, b.lo, b.hi, b.label, b.event_count, int(masks.sum()),
            table.pooled()[spec.property][0],
        ))
    return out
