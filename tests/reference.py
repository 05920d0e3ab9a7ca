"""Per-window reference implementations of the batched kernels.

These are the loops the package ran before window compute was batched
over stacked (n, L) arrays: one window, one event, one interval at a
time, with one object per event (GazeEvent), per phase segment
(SubEvent) and per dissected saccade (SaccadeDissection), and one
InfluenceResult per window and concept (window_influence), pooled per
concept by reduce_concepts. tests/test_batched.py requires the package's batched kernels to
reproduce them field for field, bit for bit, turning the package's
columnar EventTable and SubEventTable into these rows (event_rows,
events_by_row, dissections) and back (event_table, subevent_table). The
loops read one window at a time as a Window, row i of the package's
WindowStack (window_rows).
_cells is the row-wise cell rule the column-wise table writer must
reproduce byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from gazeconcepts.binning import BinnedInfluence
from gazeconcepts.detect import (
    FIXATION,
    KINDS,
    SACCADE,
    EventTable,
    exclusion_code,
    exclusion_reason,
)
from gazeconcepts.dissect import PHASES, SubEventTable, check_ratios, round_half_away
from gazeconcepts.errors import ConfigError, DegenerateDataError, EmptyConceptError
from gazeconcepts.influence import (
    ALL_CONCEPTS,
    EVENT_CONCEPTS,
    ConceptSegmentation,
    InfluenceResult,
    TopKSegmentation,
    aggregate_influence,
)


@dataclass
class GazeEvent:
    """A detected fixation or saccade as an inclusive sample interval."""

    event_id: str
    kind: str
    window_id: str
    onset: int
    offset: int
    duration_ms: float = math.nan
    peak_velocity: float = math.nan
    amplitude_deg: float = math.nan
    dispersion_deg: float = math.nan
    velocity_std: float = math.nan
    excluded: bool = False
    exclusion_reason: str = ""

    @property
    def n_samples(self) -> int:
        return self.offset - self.onset + 1


@dataclass
class SubEvent:
    """One contiguous phase segment, inclusive window indices."""

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
    sub_events: list
    disregarded: int

    def phase_samples(self, phase: str) -> int:
        return sum(s.n_samples for s in self.sub_events if s.phase == phase)


@dataclass
class Window:
    """One window as the per-window loops read it: views of one row of a
    WindowStack."""

    window_id: str
    vx: np.ndarray
    vy: np.ndarray
    px: np.ndarray
    py: np.ndarray
    valid_mask: np.ndarray
    sampling_rate_hz: float

    @property
    def length(self) -> int:
        return len(self.vx)

    def speed(self) -> np.ndarray:
        return np.hypot(self.vx, self.vy)


def window_rows(stack) -> list:
    """The rows of a WindowStack as Windows of views of its arrays."""
    return [
        Window(stack.window_ids[i], stack.vx[i], stack.vy[i], stack.px[i], stack.py[i],
               stack.valid[i], float(stack.sampling_rate_hz[i]))
        for i in range(len(stack))
    ]


PROPERTY_FIELDS = ("duration_ms", "peak_velocity", "amplitude_deg", "dispersion_deg",
                   "velocity_std")


def event_rows(events: EventTable) -> list:
    """The events of a table as GazeEvents, in table order."""
    columns = [getattr(events, name).tolist() for name in PROPERTY_FIELDS]
    return [
        GazeEvent(event_id, KINDS[kind], events.window_ids[row], onset, offset, *values,
                  bool(code), exclusion_reason(code))
        for event_id, row, kind, onset, offset, code, *values in zip(
            events.event_id.tolist(), events.row.tolist(), events.kind.tolist(),
            events.onset.tolist(), events.offset.tolist(), events.exclusion.tolist(), *columns,
        )
    ]


def events_by_row(events: EventTable) -> list:
    """event_rows grouped by window row, one list per window."""
    out = [[] for _ in events.window_ids]
    for row, event in zip(events.row.tolist(), event_rows(events)):
        out[row].append(event)
    return out


def event_table(events, window_ids=None) -> EventTable:
    """GazeEvents as a table whose rows index window_ids (by default the
    events' window ids in order of first appearance)."""
    events = list(events)
    if window_ids is None:
        window_ids = list(dict.fromkeys(e.window_id for e in events))

    def column(values, dtype):
        return np.array(list(values), dtype=dtype)

    return EventTable(
        window_ids=window_ids,
        row=column((window_ids.index(e.window_id) for e in events), np.int64),
        kind=column((KINDS.index(e.kind) for e in events), np.int8),
        onset=column((e.onset for e in events), np.int64),
        offset=column((e.offset for e in events), np.int64),
        **{name: column((getattr(e, name) for e in events), float) for name in PROPERTY_FIELDS},
        exclusion=column((exclusion_code(e.exclusion_reason) for e in events), np.uint8),
        event_id=column((e.event_id for e in events), object),
    )


def subevent_table(sub_events, events: EventTable) -> SubEventTable:
    """SubEvents as a table whose parents are found among ``events``."""
    index_of = {event_id: i for i, event_id in enumerate(events.event_id.tolist())}
    return SubEventTable(
        events,
        np.array([index_of[s.parent_event_id] for s in sub_events], dtype=np.int64),
        np.array([PHASES.index(s.phase) for s in sub_events], dtype=np.int8),
        np.array([s.onset for s in sub_events], dtype=np.int64),
        np.array([s.offset for s in sub_events], dtype=np.int64),
    )


def dissections(subs: SubEventTable) -> list:
    """The SaccadeDissection of every event of subs.events, grouped by
    window row, one list per window."""
    segments = [[] for _ in range(len(subs.events))]
    ids = subs.events.event_id.tolist()
    for parent, phase, onset, offset in zip(subs.parent.tolist(), subs.phase.tolist(),
                                            subs.onset.tolist(), subs.offset.tolist()):
        segments[parent].append(SubEvent(ids[parent], PHASES[phase], onset, offset))
    out = [[] for _ in subs.events.window_ids]
    for i, row in enumerate(subs.events.row.tolist()):
        out[row].append(SaccadeDissection(ids[i], segments[i], int(subs.disregarded[i])))
    return out


def _cells(row) -> list:
    """The cell rule, one row at a time: reals at 9 significant digits;
    NaN, +/-inf and None empty; booleans true/false; everything else
    str()."""
    cells = []
    for v in row:
        t = type(v)
        if t is str or t is int:
            cells.append(v)
        elif t is float or t is np.float64:
            cells.append(f"{v:.9g}" if math.isfinite(v) else "")
        elif t is bool or t is np.bool_:
            cells.append("true" if v else "false")
        else:
            cells.append("" if v is None else str(v))
    return cells


def ek_noise_threshold(vx, vy, lam, eta_floor=1e-6, valid=None):
    vx = np.asarray(vx, dtype=float)
    vy = np.asarray(vy, dtype=float)
    if valid is None:
        valid = np.isfinite(vx) & np.isfinite(vy)
    if int(valid.sum()) < 2:
        raise DegenerateDataError("need at least 2 valid samples for noise estimate")
    etas = []
    for v in (vx[valid], vy[valid]):
        med = np.median(v)
        var = np.median(v * v) - med * med
        sigma = math.sqrt(var) if var > 0 else 0.0
        etas.append(max(lam * sigma, eta_floor))
    return etas[0], etas[1]


def _runs(candidates):
    padded = np.concatenate(([False], candidates, [False]))
    edges = np.diff(padded.astype(np.int8))
    starts = np.flatnonzero(edges == 1)
    ends = np.flatnonzero(edges == -1) - 1
    return list(zip(starts.tolist(), ends.tolist()))


def compute_event_properties(event, window):
    if not (0 <= event.onset <= event.offset < window.length):
        raise ConfigError(
            f"event [{event.onset}, {event.offset}] outside window of length {window.length}"
        )
    sl = slice(event.onset, event.offset + 1)
    duration_ms = event.n_samples * 1000.0 / window.sampling_rate_hz
    valid = window.valid_mask[sl]
    if not valid.any():
        return replace(event, duration_ms=duration_ms)

    speed = np.hypot(window.vx[sl][valid], window.vy[sl][valid])
    updates = {"duration_ms": duration_ms, "peak_velocity": float(speed.max())}
    if event.kind == SACCADE:
        px, py = window.px[sl], window.py[sl]
        if np.isfinite(px[0]) and np.isfinite(px[-1]):
            updates["amplitude_deg"] = float(
                math.hypot(px[-1] - px[0], py[-1] - py[0])
            )
    elif event.kind == FIXATION:
        px = window.px[sl][valid]
        py = window.py[sl][valid]
        updates["dispersion_deg"] = float((px.max() - px.min()) + (py.max() - py.min()))
        updates["velocity_std"] = float(np.std(speed))
    return replace(event, **updates)


def _filter_saccade(event, params):
    reasons = []
    if event.duration_ms < params.sacc_min_duration_ms:
        reasons.append("min duration")
    if event.duration_ms > params.sacc_max_duration_ms:
        reasons.append("max duration")
    if not event.peak_velocity >= params.sacc_min_peak_velocity:
        reasons.append("min peak velocity")
    if event.peak_velocity > params.sacc_max_peak_velocity:
        reasons.append("max peak velocity")
    if reasons:
        return replace(event, excluded=True, exclusion_reason="; ".join(reasons))
    return event


def _filter_fixation(event, params):
    reasons = []
    if event.duration_ms < params.fix_min_duration_ms:
        reasons.append("min duration")
    if event.dispersion_deg > params.fix_max_dispersion_deg:
        reasons.append("max dispersion")
    if reasons:
        return replace(event, excluded=True, exclusion_reason="; ".join(reasons))
    return event


def detect_saccades_ek(window, params):
    params.validate()
    eta_x, eta_y = ek_noise_threshold(
        window.vx, window.vy, params.sacc_lambda, params.eta_floor, window.valid_mask
    )
    with np.errstate(invalid="ignore"):
        crit = (window.vx / eta_x) ** 2 + (window.vy / eta_y) ** 2 > 1
    candidates = crit & window.valid_mask
    events = []
    for i, (onset, offset) in enumerate(_runs(candidates)):
        event = GazeEvent(
            event_id=f"{window.window_id}:sac{i:03d}",
            kind=SACCADE,
            window_id=window.window_id,
            onset=onset,
            offset=offset,
        )
        events.append(_filter_saccade(compute_event_properties(event, window), params))
    return events


def detect_fixations_ivt(window, params):
    params.validate()
    with np.errstate(invalid="ignore"):
        slow = window.speed() <= params.fix_max_velocity
    candidates = slow & window.valid_mask
    events = []
    for i, (onset, offset) in enumerate(_runs(candidates)):
        event = GazeEvent(
            event_id=f"{window.window_id}:fix{i:03d}",
            kind=FIXATION,
            window_id=window.window_id,
            onset=onset,
            offset=offset,
        )
        events.append(_filter_fixation(compute_event_properties(event, window), params))
    return events


def _segments(indices):
    if len(indices) == 0:
        return []
    breaks = np.flatnonzero(np.diff(indices) > 1)
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks, [len(indices) - 1]))
    return [(int(indices[a]), int(indices[b])) for a, b in zip(starts, ends)]


def dissect_saccade(saccade, window, peak_ratio=0.8, flank_ratio=1.0 / 3.0):
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
    return [
        dissect_saccade(s, window, peak_ratio, flank_ratio)
        for s in saccades
        if not s.excluded
    ]


def topk_segmentation(squashed, k, window_id=""):
    squashed = np.asarray(squashed, dtype=float)
    length = len(squashed)
    if not 1 <= k <= length:
        raise ConfigError(f"k must be in [1, {length}], got {k}")
    order = np.argsort(-squashed, kind="stable")
    mask = np.zeros(length, dtype=bool)
    mask[order[:k]] = True
    return TopKSegmentation(window_id=window_id, k=k, mask=mask)


def concept_segmentation(items, concept, length, window_id=""):
    mask = np.zeros(length, dtype=bool)
    for item in items:
        if not (0 <= item.onset <= item.offset < length):
            raise ConfigError(
                f"interval [{item.onset}, {item.offset}] outside window of length {length}"
            )
        mask[item.onset : item.offset + 1] = True
    return ConceptSegmentation(window_id=window_id, concept=concept, mask=mask)


def concept_influence(S, T):
    if S.length != T.length:
        raise ConfigError(
            f"segmentation lengths differ: |S|={S.length} vs |T|={T.length}"
        )
    if S.window_id and T.window_id and S.window_id != T.window_id:
        raise ConfigError(f"window mismatch: {S.window_id} vs {T.window_id}")
    size = int(S.mask.sum())
    if size == 0:
        raise EmptyConceptError(
            f"concept {S.concept!r} absent from window {S.window_id!r}"
        )
    intersection = int((S.mask & T.mask).sum())
    return InfluenceResult(
        concept=S.concept,
        scope="window",
        intersection=intersection,
        c=(S.length * intersection) / (size * T.k),
        L_total=S.length,
        S_total=size,
        k_total=T.k,
        window_id=S.window_id,
    )


def window_segmentations(window, events, sub_events):
    kept = [e for e in events if not e.excluded]
    segs = {
        kind: concept_segmentation(
            [e for e in kept if e.kind == kind], kind, window.length, window.window_id
        )
        for kind in EVENT_CONCEPTS
    }
    for phase in PHASES:
        subs = [s for s in sub_events if s.phase == phase]
        segs[f"saccade_{phase}"] = concept_segmentation(
            subs, f"saccade_{phase}", window.length, window.window_id
        )
    return segs


def window_influence(window, events, sub_events, topk):
    return {
        concept: concept_influence(seg, topk) if seg.mask.any() else None
        for concept, seg in window_segmentations(window, events, sub_events).items()
    }


def reduce_concepts(window_results):
    """Per concept: (corpus result or None, windows where it is absent),
    pooled from window_influence's per-window results in window order."""
    out = {}
    for concept in ALL_CONCEPTS:
        present = [r[concept] for r in window_results if r[concept] is not None]
        skipped = len(window_results) - len(present)
        corpus = aggregate_influence(present) if present else None
        if corpus is not None:
            corpus.n_skipped = skipped
        out[concept] = (corpus, skipped)
    return out


def binned_influence(bins, spec, topk_by_window):
    out = []
    for b in bins:
        by_window = {}
        for event in event_rows(b.events):
            by_window.setdefault(event.window_id, []).append(event)
        results = []
        size = 0
        for window_id in sorted(by_window):
            topk = topk_by_window.get(window_id)
            if topk is None:
                raise ConfigError(f"no top-k segmentation for window {window_id!r}")
            seg = concept_segmentation(
                by_window[window_id], spec.property, topk.length, window_id
            )
            size += int(seg.mask.sum())
            try:
                results.append(concept_influence(seg, topk))
            except EmptyConceptError:
                continue
        out.append(
            BinnedInfluence(
                property=spec.property,
                lo=b.lo,
                hi=b.hi,
                label=b.label,
                event_count=b.event_count,
                segmentation_size=size,
                influence=aggregate_influence(results) if results else None,
            )
        )
    return out
