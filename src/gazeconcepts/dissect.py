"""Split retained saccades into pre, rise, peak, fall and post phases.

The peak phase holds the samples whose speed reaches at least
``peak_ratio`` of the saccade's peak speed. Samples that dip below that
level between two supra-threshold stretches belong to no phase at all;
they are counted as disregarded. Rise runs from saccade onset to just
before the first peak sample, fall from just after the last peak sample
to saccade offset. Pre and post are flanks of one third of the saccade
duration chained immediately before and after the event, clipped at the
window bounds.

All saccades of a WindowStack are dissected in one batched pass over
their samples; dissect_saccade and dissect_all are batches of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detect import GazeEvent
from .errors import ConfigError
from .preprocess import (
    VelocityWindow,
    WindowStack,
    flatten_rows,
    interval_bounds,
    split_rows,
)

PHASES = ("pre", "rise", "peak", "fall", "post")


@dataclass
class SubEvent:
    """One contiguous phase segment, inclusive window indices.

    A phase with interior gaps (only possible for peak) is emitted as
    several SubEvents sharing the same phase label.
    """

    parent_event_id: str
    phase: str
    onset: int
    offset: int

    @property
    def n_samples(self) -> int:
        return self.offset - self.onset + 1


@dataclass
class SaccadeDissection:
    parent_event_id: str
    sub_events: list[SubEvent]
    disregarded: int

    def phase_samples(self, phase: str) -> int:
        return sum(s.n_samples for s in self.sub_events if s.phase == phase)


def round_half_away(x: float) -> int:
    """Round to the nearest integer, halves away from zero."""
    return int(math.floor(x + 0.5)) if x >= 0 else -int(math.floor(-x + 0.5))


def check_ratios(peak_ratio: float, flank_ratio: float):
    """The dissection parameters' ranges."""
    if not 0 < peak_ratio <= 1:
        raise ConfigError(f"peak_ratio must be in (0, 1], got {peak_ratio}")
    if not 0 < flank_ratio:
        raise ConfigError(f"flank_ratio must be positive, got {flank_ratio}")


def dissect_saccades(saccades_by_row, windows, peak_ratio=0.8, flank_ratio=1.0 / 3.0):
    """Per window, its saccades dissected into their five phases, all in
    one batched pass; saccades_by_row[r] are saccades of window r of
    ``windows``.

    Membership in the peak phase is decided on speed relative to the
    saccade's peak speed, taken from the window's speed (never from a
    stored peak_velocity), so the comparison is exact at the stated
    ratio. Flank length is round(flank_ratio * duration) samples, floored
    at one sample, then clipped at the window bounds. ConfigError if any
    saccade lies outside its window, else for the first one without a
    valid sample.
    """
    check_ratios(peak_ratio, flank_ratio)
    saccades, rows = flatten_rows(saccades_by_row)
    if not saccades:
        return [[] for _ in saccades_by_row]
    stack = WindowStack.of(windows)
    length, m = stack.length, len(saccades)
    onsets, offsets, outside = interval_bounds(saccades, length)
    if outside.any():
        raise ConfigError("saccade interval outside window")
    n_samples = offsets - onsets + 1
    # every sample of every saccade, concatenated in saccade order
    first = np.cumsum(n_samples) - n_samples
    owner = np.repeat(np.arange(m), n_samples)
    flat = np.arange(int(n_samples.sum())) + np.repeat(rows * length + onsets - first, n_samples)
    speed = stack.speed.ravel()[flat]
    valid = stack.valid.ravel()[flat]
    blind = ~np.logical_or.reduceat(valid, first)
    if blind.any():
        saccade = saccades[int(np.argmax(blind))]
        raise ConfigError(f"saccade {saccade.event_id} has no valid samples")

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
    bounds = np.searchsorted(owner[run_lo], np.arange(m + 1)).tolist()  # runs per saccade
    runs_lo, runs_hi = window_pos[run_lo].tolist(), window_pos[run_hi].tolist()
    n_supra = np.add.reduceat(supra.astype(np.int64), first).tolist()

    out = []
    for i, (saccade, onset, offset) in enumerate(zip(saccades, onsets.tolist(), offsets.tolist())):
        lo, hi = bounds[i], bounds[i + 1]
        peaks = list(zip(runs_lo[lo:hi], runs_hi[lo:hi]))
        first_peak, last_peak = peaks[0][0], peaks[-1][1]
        sid = saccade.event_id
        subs = []
        flank = max(1, round_half_away(flank_ratio * saccade.n_samples))
        pre_lo = max(0, onset - flank)
        if pre_lo <= onset - 1:
            subs.append(SubEvent(sid, "pre", pre_lo, onset - 1))
        if onset <= first_peak - 1:
            subs.append(SubEvent(sid, "rise", onset, first_peak - 1))
        subs += [SubEvent(sid, "peak", a, b) for a, b in peaks]
        if last_peak + 1 <= offset:
            subs.append(SubEvent(sid, "fall", last_peak + 1, offset))
        post_hi = min(length - 1, offset + flank)
        if offset + 1 <= post_hi:
            subs.append(SubEvent(sid, "post", offset + 1, post_hi))
        disregarded = (last_peak - first_peak + 1) - n_supra[i]
        out.append(SaccadeDissection(sid, subs, disregarded))
    return split_rows(out, saccades_by_row)


def dissect_saccade(
    saccade: GazeEvent,
    window: VelocityWindow,
    peak_ratio: float = 0.8,
    flank_ratio: float = 1.0 / 3.0,
) -> SaccadeDissection:
    """Dissect one saccade into its five phases (a batch of one for
    dissect_saccades)."""
    return dissect_saccades([[saccade]], [window], peak_ratio, flank_ratio)[0][0]


def dissect_all(saccades, window, peak_ratio=0.8, flank_ratio=1.0 / 3.0):
    """Dissect every retained saccade of a window; returns the list of
    dissections in event order."""
    kept = [s for s in saccades if not s.excluded]
    return dissect_saccades([kept], [window], peak_ratio, flank_ratio)[0]
