"""Split retained saccades into pre, rise, peak, fall and post phases.

The peak phase holds the samples whose speed reaches at least
``peak_ratio`` of the saccade's peak speed. Samples that dip below that
level between two supra-threshold stretches belong to no phase at all;
they are counted as disregarded. Rise runs from saccade onset to just
before the first peak sample, fall from just after the last peak sample
to saccade offset. Pre and post are flanks of one third of the saccade
duration chained immediately before and after the event, clipped at the
window bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detect import GazeEvent
from .errors import ConfigError
from .preprocess import VelocityWindow

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


def _segments(indices: np.ndarray):
    """Contiguous stretches of a sorted index array as (lo, hi) pairs."""
    if len(indices) == 0:
        return []
    breaks = np.flatnonzero(np.diff(indices) > 1)
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks, [len(indices) - 1]))
    return [(int(indices[a]), int(indices[b])) for a, b in zip(starts, ends)]


def check_ratios(peak_ratio: float, flank_ratio: float):
    """The dissection parameters' ranges."""
    if not 0 < peak_ratio <= 1:
        raise ConfigError(f"peak_ratio must be in (0, 1], got {peak_ratio}")
    if not 0 < flank_ratio:
        raise ConfigError(f"flank_ratio must be positive, got {flank_ratio}")


def dissect_saccade(
    saccade: GazeEvent,
    window: VelocityWindow,
    peak_ratio: float = 0.8,
    flank_ratio: float = 1.0 / 3.0,
) -> SaccadeDissection:
    """Dissect one saccade into its five phases.

    Membership in the peak phase is decided on speed relative to the
    saccade's peak speed, so the comparison is exact at the stated
    ratio. Flank length is round(flank_ratio * duration) samples,
    floored at one sample, then clipped at the window bounds.
    """
    check_ratios(peak_ratio, flank_ratio)
    if not (0 <= saccade.onset <= saccade.offset < window.length):
        raise ConfigError("saccade interval outside window")

    onset, offset = saccade.onset, saccade.offset
    speed = window.speed()[onset : offset + 1]
    valid = window.valid_mask[onset : offset + 1]
    if not valid.any():
        raise ConfigError(f"saccade {saccade.event_id} has no valid samples")
    peak = float(np.nanmax(np.where(valid, speed, np.nan)))

    if peak > 0:
        with np.errstate(invalid="ignore"):
            supra = valid & (speed / peak >= peak_ratio)
    else:
        supra = valid.copy()
    supra_idx = np.flatnonzero(supra) + onset
    first, last = int(supra_idx[0]), int(supra_idx[-1])
    disregarded = int((last - first + 1) - len(supra_idx))

    subs = []
    flank = max(1, round_half_away(flank_ratio * saccade.n_samples))
    pre_lo = max(0, onset - flank)
    if pre_lo <= onset - 1:
        subs.append(SubEvent(saccade.event_id, "pre", pre_lo, onset - 1))
    if onset <= first - 1:
        subs.append(SubEvent(saccade.event_id, "rise", onset, first - 1))
    for lo, hi in _segments(supra_idx):
        subs.append(SubEvent(saccade.event_id, "peak", lo, hi))
    if last + 1 <= offset:
        subs.append(SubEvent(saccade.event_id, "fall", last + 1, offset))
    post_hi = min(window.length - 1, offset + flank)
    if offset + 1 <= post_hi:
        subs.append(SubEvent(saccade.event_id, "post", offset + 1, post_hi))
    return SaccadeDissection(saccade.event_id, subs, disregarded)


def dissect_all(saccades, window, peak_ratio=0.8, flank_ratio=1.0 / 3.0):
    """Dissect every retained saccade of a window; returns the list of
    dissections in event order."""
    return [
        dissect_saccade(s, window, peak_ratio, flank_ratio)
        for s in saccades
        if not s.excluded
    ]
