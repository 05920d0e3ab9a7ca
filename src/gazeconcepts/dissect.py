"""Split retained saccades into pre, rise, peak, fall and post phases.

The peak phase holds the samples whose speed reaches at least
``peak_ratio`` of the saccade's peak speed. Samples that dip below that
level between two supra-threshold stretches belong to no phase at all;
they are counted as disregarded. Rise runs from saccade onset to just
before the first peak sample, fall from just after the last peak sample
to saccade offset. Pre and post are flanks of one third of the saccade
duration chained immediately before and after the event, clipped at the
window bounds.

All saccades of an EventTable are dissected in one batched pass over
their samples, into one SubEventTable of equal-length columns;
dissect_all takes a stack of one window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .detect import EventTable, retained
from .errors import ConfigError
from .preprocess import WindowStack, outside_window

PHASES = ("pre", "rise", "peak", "fall", "post")  # a sub-event's phase code indexes this


@dataclass
class SubEventTable:
    """Phase segments of saccades as equal-length columns, one entry per
    contiguous segment, inclusive window indices.

    parent indexes the events of ``events``. A phase with interior gaps
    (only possible for peak) is several segments sharing its phase.
    """

    events: EventTable
    parent: np.ndarray  # int64
    phase: np.ndarray  # int8 index into PHASES
    onset: np.ndarray  # int64
    offset: np.ndarray  # int64

    def __len__(self) -> int:
        return len(self.parent)

    @property
    def disregarded(self) -> np.ndarray:
        """Per event of ``events``: the samples from its first to its last
        peak sample that no peak segment holds (0 without a peak segment;
        every dissected saccade has one, holding its peak sample)."""
        peak = self.phase == PHASES.index("peak")
        parent, onset, offset = self.parent[peak], self.onset[peak], self.offset[peak]
        m = len(self.events)
        first = np.full(m, np.iinfo(np.int64).max)
        last, held = np.zeros(m, dtype=np.int64), np.zeros(m, dtype=np.int64)
        np.minimum.at(first, parent, onset)
        np.maximum.at(last, parent, offset)
        np.add.at(held, parent, offset - onset + 1)
        return np.where(held > 0, last - first + 1 - held, 0)

    @property
    def row(self) -> np.ndarray:
        """Window row of each segment."""
        return self.events.row[self.parent]

    def take(self, index) -> "SubEventTable":
        """The segments selected by a mask or index array."""
        return replace(self, parent=self.parent[index], phase=self.phase[index],
                       onset=self.onset[index], offset=self.offset[index])


def round_half_away(x: float) -> int:
    """Round to the nearest integer, halves away from zero."""
    return int(math.floor(x + 0.5)) if x >= 0 else -int(math.floor(-x + 0.5))


def check_ratios(peak_ratio: float, flank_ratio: float):
    """The dissection parameters' ranges."""
    if not 0 < peak_ratio <= 1:
        raise ConfigError(f"peak_ratio must be in (0, 1], got {peak_ratio}")
    if not 0 < flank_ratio:
        raise ConfigError(f"flank_ratio must be positive, got {flank_ratio}")


def dissect_saccades(saccades: EventTable, windows, peak_ratio=0.8, flank_ratio=1.0 / 3.0):
    """Every saccade of a table dissected into its five phases, all in one
    batched pass; saccades.row indexes the rows of the stack ``windows``.

    Membership in the peak phase is decided on speed relative to the
    saccade's peak speed, taken from the window's speed (never from a
    stored peak_velocity), so the comparison is exact at the stated
    ratio. Flank length is round(flank_ratio * duration) samples, floored
    at one sample, then clipped at the window bounds. The segments come
    in saccade order, then phase order, then onset order. ConfigError if
    any saccade lies outside its window, else for the first one without
    a valid sample.
    """
    check_ratios(peak_ratio, flank_ratio)
    m = len(saccades)
    empty = np.zeros(0, dtype=np.int64)
    if m == 0:
        return SubEventTable(saccades, empty, empty.astype(np.int8), empty, empty)
    length, rows = windows.length, saccades.row
    onsets, offsets = saccades.onset, saccades.offset
    if outside_window(onsets, offsets, length).any():
        raise ConfigError("saccade interval outside window")
    n_samples = offsets - onsets + 1
    # every sample of every saccade, concatenated in saccade order
    first = np.cumsum(n_samples) - n_samples
    owner = np.repeat(np.arange(m), n_samples)
    flat = np.arange(int(n_samples.sum())) + np.repeat(rows * length + onsets - first, n_samples)
    speed = windows.speed.ravel()[flat]
    valid = windows.valid.ravel()[flat]
    blind = ~np.logical_or.reduceat(valid, first)
    if blind.any():
        raise ConfigError(
            f"saccade {saccades.event_id[int(np.argmax(blind))]} has no valid samples"
        )

    peak = np.maximum.reduceat(np.where(valid & ~np.isnan(speed), speed, -np.inf), first)
    with np.errstate(invalid="ignore", divide="ignore"):
        supra = valid & np.where(
            np.repeat(peak > 0, n_samples), speed / np.repeat(peak, n_samples) >= peak_ratio, True
        )
    # runs of supra-peak samples, never crossing into the next saccade
    joined = supra[1:] & supra[:-1] & (owner[1:] == owner[:-1])
    run_lo = np.flatnonzero(supra & ~np.concatenate(([False], joined)))
    run_hi = np.flatnonzero(supra & ~np.concatenate((joined, [False])))
    window_pos = flat - rows.repeat(n_samples) * length  # index within the window
    bounds = np.searchsorted(owner[run_lo], np.arange(m + 1))  # runs per saccade
    first_peak = window_pos[run_lo[bounds[:-1]]]
    last_peak = window_pos[run_hi[bounds[1:] - 1]]

    flank = np.maximum(1, np.floor(flank_ratio * n_samples + 0.5).astype(np.int64))
    pre_lo = np.maximum(0, onsets - flank)
    post_hi = np.minimum(length - 1, offsets + flank)
    saccade = np.arange(m)
    segments = [  # (phase, parents, onsets, offsets, present)
        (0, saccade, pre_lo, onsets - 1, pre_lo <= onsets - 1),
        (1, saccade, onsets, first_peak - 1, onsets <= first_peak - 1),
        (2, owner[run_lo], window_pos[run_lo], window_pos[run_hi], slice(None)),
        (3, saccade, last_peak + 1, offsets, last_peak + 1 <= offsets),
        (4, saccade, offsets + 1, post_hi, offsets + 1 <= post_hi),
    ]
    parent, phase, onset, offset = (
        np.concatenate(column) for column in zip(*(
            (parents[present], np.full(len(parents[present]), code, dtype=np.int8),
             lo[present], hi[present])
            for code, parents, lo, hi, present in segments
        ))
    )
    table = SubEventTable(saccades, parent, phase, onset, offset)
    return table.take(np.lexsort((onset, phase, parent)))


def dissect_all(saccades: EventTable, window: WindowStack, peak_ratio=0.8,
                flank_ratio=1.0 / 3.0) -> SubEventTable:
    """Dissect every retained saccade of a stack of one window."""
    return dissect_saccades(retained(saccades), window, peak_ratio, flank_ratio)
