"""Fixation and saccade detection on velocity windows.

Fixations come from a velocity-threshold pass (speed at or below a fixed
limit), saccades from the adaptive elliptic criterion of Engbert & Kliegl
(threshold = lambda times a median-based noise estimate per component).
The two detectors run independently; events violating the validity
bounds are kept but marked excluded so downstream stages can drop them
from evaluation while reports still account for them.

Both detectors run on a whole WindowStack at once: thresholds, runs,
properties and exclusions are computed over the stacked (n, L) arrays.
The per-window functions are batches of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateDataError
from .preprocess import (
    VelocityWindow,
    WindowStack,
    flatten_rows,
    interval_bounds,
    split_rows,
)

FIXATION = "fixation"
SACCADE = "saccade"


@dataclass(frozen=True)
class DetectionParams:
    """Detection thresholds; defaults follow standard published values."""

    fix_max_velocity: float = 20.0  # deg/s
    fix_min_duration_ms: float = 40.0
    fix_max_dispersion_deg: float = 2.7
    sacc_lambda: float = 6.0
    sacc_min_duration_ms: float = 9.0
    sacc_max_duration_ms: float = 100.0
    sacc_min_peak_velocity: float = 35.0  # deg/s
    sacc_max_peak_velocity: float = 1000.0
    eta_floor: float = 1e-6  # deg/s

    def validate(self):
        pairs = [
            ("sacc duration", self.sacc_min_duration_ms, self.sacc_max_duration_ms),
            ("sacc peak velocity", self.sacc_min_peak_velocity, self.sacc_max_peak_velocity),
        ]
        for name, lo, hi in pairs:
            if not lo < hi:
                raise ConfigError(f"{name}: min ({lo}) must be below max ({hi})")
        for name, value in (
            ("fix_max_velocity", self.fix_max_velocity),
            ("fix_min_duration_ms", self.fix_min_duration_ms),
            ("fix_max_dispersion_deg", self.fix_max_dispersion_deg),
            ("sacc_lambda", self.sacc_lambda),
            ("sacc_min_duration_ms", self.sacc_min_duration_ms),
            ("sacc_min_peak_velocity", self.sacc_min_peak_velocity),
            ("eta_floor", self.eta_floor),
        ):
            if not value > 0:
                raise ConfigError(f"{name} must be positive, got {value}")


@dataclass
class GazeEvent:
    """A detected fixation or saccade as an inclusive sample interval.

    Properties that do not apply to the event kind (or could not be
    computed) are NaN. Excluded events carry the reason they failed the
    validity filters.
    """

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


def _ek_thresholds(vx, vy, valid, lam: float, eta_floor: float) -> np.ndarray:
    """Per-row (eta_x, eta_y) of (n, L) velocity stacks, shape (n, 2).

    Rows without missing samples take their medians in one call per
    component; the others take them over their valid samples, as
    ek_noise_threshold describes.
    """
    n_valid = valid.sum(axis=1)
    if (n_valid < 2).any():
        raise DegenerateDataError("need at least 2 valid samples for noise estimate")
    full = n_valid == valid.shape[1]
    etas = np.empty((len(valid), 2))
    for j, v in enumerate((vx, vy)):
        med, med_sq = np.empty(len(v)), np.empty(len(v))
        if full.any():
            vf = v if full.all() else v[full]
            med[full] = np.median(vf, axis=1)
            med_sq[full] = np.median(vf * vf, axis=1)
        for r in np.flatnonzero(~full):
            vr = v[r][valid[r]]
            med[r] = np.median(vr)
            med_sq[r] = np.median(vr * vr)
        var = med_sq - med * med
        sigma = np.sqrt(np.where(var > 0, var, 0.0))
        etas[:, j] = np.maximum(lam * sigma, eta_floor)
    return etas


def ek_noise_threshold(vx, vy, lam: float, eta_floor: float = 1e-6, valid=None):
    """Adaptive per-component saccade thresholds (eta_x, eta_y) in deg/s.

    Per component the noise scale is the median estimator
    sigma = sqrt(median(v^2) - median(v)^2) over valid samples, and the
    threshold is lambda * sigma, floored at eta_floor.
    """
    vx = np.asarray(vx, dtype=float)
    vy = np.asarray(vy, dtype=float)
    if valid is None:
        valid = np.isfinite(vx) & np.isfinite(vy)
    eta_x, eta_y = _ek_thresholds(vx[None], vy[None], valid[None], lam, eta_floor)[0]
    return float(eta_x), float(eta_y)


def _runs(candidates: np.ndarray):
    """Maximal runs of True in each row of an (n, L) mask, row-major:
    (rows, onsets, offsets) arrays of inclusive intervals."""
    n, length = candidates.shape
    padded = np.zeros((n, length + 1), dtype=np.int8)  # a False after each row
    padded[:, :length] = candidates
    edges = np.diff(padded.ravel(), prepend=np.int8(0))
    starts = np.flatnonzero(edges == 1)
    ends = np.flatnonzero(edges == -1) - 1
    return starts // (length + 1), starts % (length + 1), ends % (length + 1)


def _masked(values: np.ndarray, valid: np.ndarray, fill: float) -> np.ndarray:
    """values where valid, else fill, flattened, plus one trailing fill
    so that an interval may end at the last sample."""
    out = np.full(values.size + 1, fill)
    np.copyto(out[:-1], values.ravel(), where=valid.ravel())
    return out


def _interval_reduce(ufunc, flat, starts, stops):
    """ufunc reduced over flat[starts[i]:stops[i]] for every i; the
    intervals may overlap and come in any order."""
    bounds = np.empty(2 * len(starts), dtype=np.intp)
    bounds[0::2] = starts
    bounds[1::2] = stops
    return ufunc.reduceat(flat, bounds)[0::2]


PROPERTY_FIELDS = ("duration_ms", "peak_velocity", "amplitude_deg", "dispersion_deg",
                   "velocity_std")


def _properties(stack: WindowStack, rows, onsets, offsets, kinds) -> dict:
    """PROPERTY_FIELDS of intervals of a stack (events of the given
    kinds), as lists aligned with the intervals; None where a value is
    not computed (no valid sample, or a property of another kind).

    Saccade amplitude is the onset-to-offset displacement; fixation
    dispersion is x-range plus y-range over valid samples; fixation
    velocity_std is the population standard deviation of the speed
    magnitude, taken with np.std per fixation (a segmented sum would
    round differently).
    """
    m = len(rows)
    out = {name: [None] * m for name in PROPERTY_FIELDS}
    if m == 0:
        return out
    kinds = np.asarray(kinds)
    length = stack.length
    n_samples = offsets - onsets + 1
    out["duration_ms"] = (n_samples * 1000.0 / stack.sampling_rate_hz[rows]).tolist()
    starts = rows * length + onsets
    stops = starts + n_samples
    valid = stack.valid
    any_valid = _interval_reduce(np.logical_or, np.append(valid.ravel(), False), starts, stops)
    peak = _interval_reduce(np.maximum, _masked(stack.speed, valid, -np.inf), starts, stops)
    for i in np.flatnonzero(any_valid).tolist():
        out["peak_velocity"][i] = float(peak[i])

    sacc = np.flatnonzero(any_valid & (kinds == SACCADE))
    if len(sacc):
        px, py = stack.px.ravel(), stack.py.ravel()
        first, last = starts[sacc], stops[sacc] - 1
        dx, dy = (px[last] - px[first]).tolist(), (py[last] - py[first]).tolist()
        finite = (np.isfinite(px[first]) & np.isfinite(px[last])).tolist()
        for j, i in enumerate(sacc.tolist()):
            if finite[j]:
                out["amplitude_deg"][i] = math.hypot(dx[j], dy[j])

    fix = np.flatnonzero(any_valid & (kinds == FIXATION))
    if len(fix):
        a, b = starts[fix], stops[fix]
        extent = [
            _interval_reduce(np.maximum, _masked(pos, valid, -np.inf), a, b)
            - _interval_reduce(np.minimum, _masked(pos, valid, np.inf), a, b)
            for pos in (stack.px, stack.py)
        ]
        dispersion = (extent[0] + extent[1]).tolist()
        speed, rows_l = stack.speed, rows[fix].tolist()
        for j, (i, r, lo, hi) in enumerate(
            zip(fix.tolist(), rows_l, onsets[fix].tolist(), (offsets[fix] + 1).tolist())
        ):
            out["dispersion_deg"][i] = dispersion[j]
            out["velocity_std"][i] = float(np.std(speed[r, lo:hi][valid[r, lo:hi]]))
    return out


def event_properties(events_by_row, windows) -> list:
    """Per window, its events with duration, peak velocity and
    kind-specific properties recomputed, in one batched pass.

    events_by_row[r] are events of window r of ``windows``. A property
    that cannot be computed (no valid sample, or non-finite saccade
    endpoints) keeps the event's value; every other field is kept.
    ConfigError for the first event outside its window.
    """
    stack = WindowStack.of(windows)
    events, rows = flatten_rows(events_by_row)
    onsets, offsets, outside = interval_bounds(events, stack.length)
    if outside.any():
        e = events[int(np.argmax(outside))]
        raise ConfigError(
            f"event [{e.onset}, {e.offset}] outside window of length {stack.length}"
        )
    props = _properties(stack, rows, onsets, offsets, [e.kind for e in events])
    updated = [
        GazeEvent(
            e.event_id, e.kind, e.window_id, e.onset, e.offset,
            *(getattr(e, name) if value is None else value
              for name, value in zip(PROPERTY_FIELDS, values)),
            e.excluded, e.exclusion_reason,
        )
        for e, values in zip(events, zip(*(props[name] for name in PROPERTY_FIELDS)))
    ]
    return split_rows(updated, events_by_row)


def compute_event_properties(event: GazeEvent, window: VelocityWindow) -> GazeEvent:
    """Fill in duration, peak velocity and kind-specific properties of one
    event (a batch of one for event_properties)."""
    return event_properties([[event]], [window])[0][0]


def _exclusions(kind: str, props: dict, params: DetectionParams) -> list:
    """Exclusion reason per event ("" for a retained one), in the order
    the validity bounds are listed."""
    duration = np.array(props["duration_ms"], dtype=float)
    peak = np.array(props["peak_velocity"], dtype=float)
    if kind == SACCADE:
        tests = (
            ("min duration", duration < params.sacc_min_duration_ms),
            ("max duration", duration > params.sacc_max_duration_ms),
            ("min peak velocity", ~(peak >= params.sacc_min_peak_velocity)),
            ("max peak velocity", peak > params.sacc_max_peak_velocity),
        )
    else:
        dispersion = np.array(props["dispersion_deg"], dtype=float)
        tests = (
            ("min duration", duration < params.fix_min_duration_ms),
            ("max dispersion", dispersion > params.fix_max_dispersion_deg),
        )
    reasons = [""] * len(duration)
    failed = np.column_stack([hit for _, hit in tests])
    for i in np.flatnonzero(failed.any(axis=1)).tolist():
        reasons[i] = "; ".join(name for (name, _), hit in zip(tests, failed[i]) if hit)
    return reasons


def _detect(stack: WindowStack, params: DetectionParams, kind: str) -> list:
    """Events of one kind in every window of a stack: a list per row."""
    params.validate()
    valid = stack.valid
    with np.errstate(invalid="ignore"):
        if kind == SACCADE:
            etas = _ek_thresholds(
                stack.vx, stack.vy, valid, params.sacc_lambda, params.eta_floor
            )
            candidates = (
                (stack.vx / etas[:, :1]) ** 2 + (stack.vy / etas[:, 1:]) ** 2 > 1
            )
        else:
            candidates = stack.speed <= params.fix_max_velocity
    rows, onsets, offsets = _runs(candidates & valid)
    props = _properties(stack, rows, onsets, offsets, [kind] * len(rows))
    reasons = _exclusions(kind, props, params)
    values = zip(*([math.nan if v is None else v for v in props[name]]
                   for name in PROPERTY_FIELDS))
    tag = "sac" if kind == SACCADE else "fix"
    ids = stack.window_ids
    first = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=len(stack))))).tolist()
    events = [
        GazeEvent(f"{ids[r]}:{tag}{i - first[r]:03d}", kind, ids[r], onset, offset,
                  *v, bool(reason), reason)
        for i, (r, onset, offset, v, reason) in enumerate(
            zip(rows.tolist(), onsets.tolist(), offsets.tolist(), values, reasons)
        )
    ]
    return [events[first[r] : first[r + 1]] for r in range(len(stack))]


def detect_events(windows, params: DetectionParams) -> list:
    """(fixations, saccades) of every window, excluded events included:
    both detectors in one batched pass over the stacked windows."""
    stack = WindowStack.of(windows)
    return list(zip(_detect(stack, params, FIXATION), _detect(stack, params, SACCADE)))


def detect_saccades_ek(window: VelocityWindow, params: DetectionParams) -> list[GazeEvent]:
    """Engbert-Kliegl saccade detection on one window.

    Candidate samples satisfy (vx/eta_x)^2 + (vy/eta_y)^2 > 1; missing
    samples are never candidates and break runs. Every maximal run
    becomes an event; runs violating the duration or peak-velocity
    bounds are marked excluded rather than dropped.
    """
    return _detect(WindowStack.of([window]), params, SACCADE)[0]


def detect_fixations_ivt(window: VelocityWindow, params: DetectionParams) -> list[GazeEvent]:
    """I-VT fixation detection on one window.

    Candidate samples have speed at or below fix_max_velocity; maximal
    runs become fixations, and runs that are too short or too dispersed
    are marked excluded with the failed bound as reason.
    """
    return _detect(WindowStack.of([window]), params, FIXATION)[0]


def retained(events) -> list[GazeEvent]:
    """The events that survived the validity filters."""
    return [e for e in events if not e.excluded]
