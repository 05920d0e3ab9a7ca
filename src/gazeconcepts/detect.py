"""Fixation and saccade detection on velocity windows.

Fixations come from a velocity-threshold pass (speed at or below a fixed
limit), saccades from the adaptive elliptic criterion of Engbert & Kliegl
(threshold = lambda times a median-based noise estimate per component).
The two detectors run independently; events violating the validity
bounds are kept but marked excluded so downstream stages can drop them
from evaluation while reports still account for them.

Both detectors run on a whole WindowStack at once: thresholds, runs,
properties and exclusions are computed over the stacked (n, L) arrays,
and the events come back as one EventTable of equal-length columns (no
object per event). The per-window functions take a stack of one row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DegenerateDataError
from .preprocess import WindowStack, outside_window

FIXATION = "fixation"
SACCADE = "saccade"
KINDS = (FIXATION, SACCADE)  # an event's kind code indexes this

# The validity bounds an event can fail, one bit each of its exclusion
# code; a reason names the failed bounds in this order.
EXCLUSION_BOUNDS = (
    "min duration", "max duration", "min peak velocity", "max peak velocity", "max dispersion",
)


def exclusion_reason(code: int) -> str:
    """The reason an exclusion code stands for ("" for a retained event)."""
    return "; ".join(name for bit, name in enumerate(EXCLUSION_BOUNDS) if code >> bit & 1)


def exclusion_code(reason: str) -> int:
    """Inverse of exclusion_reason; ValueError for any other text."""
    if not reason:
        return 0
    bits = [EXCLUSION_BOUNDS.index(name) for name in reason.split("; ")]
    if bits != sorted(set(bits)):
        raise ValueError(reason)
    return sum(1 << bit for bit in bits)


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


PROPERTY_FIELDS = ("duration_ms", "peak_velocity", "amplitude_deg", "dispersion_deg",
                   "velocity_std")
EVENT_ARRAYS = ("row", "kind", "onset", "offset", *PROPERTY_FIELDS, "exclusion", "event_id")


@dataclass
class EventTable:
    """Detected fixations and saccades as equal-length columns, one entry
    per event.

    An event is the inclusive sample interval [onset, offset] of window
    window_ids[row]. Properties that do not apply to the event kind (or
    could not be computed) are NaN. Excluded events carry the validity
    bounds they failed as a nonzero exclusion code.
    """

    window_ids: list  # id of each window row
    row: np.ndarray  # int64
    kind: np.ndarray  # int8 index into KINDS
    onset: np.ndarray  # int64
    offset: np.ndarray  # int64
    duration_ms: np.ndarray  # float64
    peak_velocity: np.ndarray
    amplitude_deg: np.ndarray
    dispersion_deg: np.ndarray
    velocity_std: np.ndarray
    exclusion: np.ndarray  # uint8 bit set over EXCLUSION_BOUNDS, 0 when retained
    event_id: np.ndarray  # object array of str

    def __len__(self) -> int:
        return len(self.row)

    @property
    def excluded(self) -> np.ndarray:
        return self.exclusion != 0

    def is_kind(self, kind: str) -> np.ndarray:
        return self.kind == KINDS.index(kind)

    def take(self, index) -> "EventTable":
        """The events selected by a mask or index array, same windows."""
        return replace(self, **{name: getattr(self, name)[index] for name in EVENT_ARRAYS})


def _median(v) -> np.ndarray:
    """np.median(v, axis=-1) of finite values, bit for bit: the middle
    value, or the mean of the two middle values when the count is even.

    np.median's NaN check imports numpy.ma (about 10 ms a process); this
    partitions at the same positions and skips the check.
    """
    n = v.shape[-1]
    mid = n // 2
    kth = [mid - 1, mid] if n % 2 == 0 else [mid]
    part = np.partition(v, kth + [-1], axis=-1)
    # np.mean's sum starts from +0.0, which turns a -0.0 middle into 0.0
    if n % 2:
        return 0.0 + part[..., mid]
    return (0.0 + part[..., mid - 1] + part[..., mid]) / 2


def _ek_thresholds(vx, vy, valid, lam: float, eta_floor: float) -> np.ndarray:
    """Adaptive per-component saccade thresholds (eta_x, eta_y) in deg/s
    of each row of (n, L) velocity stacks, shape (n, 2).

    Per component the noise scale is the median estimator
    sigma = sqrt(median(v^2) - median(v)^2) over a row's valid samples,
    and the threshold is lambda * sigma, floored at eta_floor. Rows
    without missing samples take their medians in one call per component.
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
            med[full] = _median(vf)
            med_sq[full] = _median(vf * vf)
        for r in np.flatnonzero(~full):
            vr = v[r][valid[r]]
            med[r] = _median(vr)
            med_sq[r] = _median(vr * vr)
        var = med_sq - med * med
        sigma = np.sqrt(np.where(var > 0, var, 0.0))
        etas[:, j] = np.maximum(lam * sigma, eta_floor)
    return etas


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


def _velocity_std(stack: WindowStack, starts, stops, all_valid) -> np.ndarray:
    """np.std of the speed over the valid samples of flat intervals
    [starts[i], stops[i]) of a stack. Intervals with only valid samples
    are taken one length at a time, copied as the rows of one (m, length)
    array from a sliding-window view (no index array); np.std along its
    rows is bit-identical to np.std of each row."""
    speed, valid = stack.speed.ravel(), stack.valid.ravel()
    out = np.empty(len(starts))
    full = np.flatnonzero(all_valid)
    n = stops[full] - starts[full]
    order = np.argsort(n, kind="stable")
    lengths, first = np.unique(n[order], return_index=True)
    for length, group in zip(lengths.tolist(), np.split(full[order], first[1:])):
        rows = np.lib.stride_tricks.sliding_window_view(speed, length)[starts[group]]
        out[group] = rows.std(axis=1)
    for i in np.flatnonzero(~all_valid).tolist():
        lo, hi = starts[i], stops[i]
        out[i] = speed[lo:hi][valid[lo:hi]].std()
    return out


def _properties(stack: WindowStack, rows, onsets, offsets, kinds):
    """(values, computed): PROPERTY_FIELDS of intervals of a stack (events
    of the given kind codes) as float64 arrays aligned with the intervals,
    NaN where not computed, and per field the mask of the intervals it was
    computed for (not without a valid sample, nor for another kind).

    Saccade amplitude is the onset-to-offset displacement, taken with
    math.hypot; fixation dispersion is x-range plus y-range over valid
    samples; fixation velocity_std is the population standard deviation
    of the speed magnitude, taken with np.std per fixation, grouped by
    length (a segmented sum, or np.hypot, would round differently).
    """
    m = len(rows)
    values = {name: np.full(m, math.nan) for name in PROPERTY_FIELDS}
    computed = {name: np.zeros(m, dtype=bool) for name in PROPERTY_FIELDS}
    if m == 0:
        return values, computed
    length = stack.length
    n_samples = offsets - onsets + 1
    values["duration_ms"] = n_samples * 1000.0 / stack.sampling_rate_hz[rows]
    computed["duration_ms"][:] = True
    starts = rows * length + onsets
    stops = starts + n_samples
    valid = stack.valid
    flat_valid = np.append(valid.ravel(), False)
    any_valid = _interval_reduce(np.logical_or, flat_valid, starts, stops)
    all_valid = _interval_reduce(np.logical_and, flat_valid, starts, stops)
    peak = _interval_reduce(np.maximum, _masked(stack.speed, valid, -np.inf), starts, stops)
    values["peak_velocity"] = np.where(any_valid, peak, math.nan)
    computed["peak_velocity"] = any_valid

    sacc = any_valid & (kinds == KINDS.index(SACCADE))
    if sacc.any():
        px, py = stack.px.ravel(), stack.py.ravel()
        first, last = starts[sacc], stops[sacc] - 1
        finite = np.isfinite(px[first]) & np.isfinite(px[last])
        first, last = first[finite], last[finite]
        at = np.flatnonzero(sacc)[finite]
        dx, dy = (px[last] - px[first]).tolist(), (py[last] - py[first]).tolist()
        values["amplitude_deg"][at] = list(map(math.hypot, dx, dy))
        computed["amplitude_deg"][at] = True

    fix = any_valid & (kinds == KINDS.index(FIXATION))
    if fix.any():
        a, b = starts[fix], stops[fix]
        extent = [
            _interval_reduce(np.maximum, _masked(pos, valid, -np.inf), a, b)
            - _interval_reduce(np.minimum, _masked(pos, valid, np.inf), a, b)
            for pos in (stack.px, stack.py)
        ]
        values["dispersion_deg"][fix] = extent[0] + extent[1]
        values["velocity_std"][fix] = _velocity_std(stack, a, b, all_valid[fix])
        computed["dispersion_deg"] = computed["velocity_std"] = fix
    return values, computed


def event_properties(events: EventTable, windows: WindowStack) -> EventTable:
    """The events with duration, peak velocity and kind-specific
    properties recomputed from the windows, in one batched pass.

    events.row indexes the rows of ``windows``. A property that cannot be
    computed (no valid sample, or non-finite saccade endpoints) keeps the
    event's value; every other column is kept. ConfigError for the first
    event outside its window.
    """
    outside = outside_window(events.onset, events.offset, windows.length)
    if outside.any():
        i = int(np.argmax(outside))
        raise ConfigError(
            f"event [{events.onset[i]}, {events.offset[i]}] outside window of length "
            f"{windows.length}"
        )
    values, computed = _properties(windows, events.row, events.onset, events.offset, events.kind)
    return replace(events, **{
        name: np.where(computed[name], values[name], getattr(events, name))
        for name in PROPERTY_FIELDS
    })


def _exclusions(kind: str, values: dict, params: DetectionParams) -> np.ndarray:
    """Exclusion code per event (0 for a retained one)."""
    duration, peak = values["duration_ms"], values["peak_velocity"]
    if kind == SACCADE:  # bit -> failed, bits as in EXCLUSION_BOUNDS
        failed = {
            0: duration < params.sacc_min_duration_ms,
            1: duration > params.sacc_max_duration_ms,
            2: ~(peak >= params.sacc_min_peak_velocity),
            3: peak > params.sacc_max_peak_velocity,
        }
    else:
        failed = {
            0: duration < params.fix_min_duration_ms,
            4: values["dispersion_deg"] > params.fix_max_dispersion_deg,
        }
    code = np.zeros(len(duration), dtype=np.uint8)
    for bit, hit in failed.items():
        code |= hit.astype(np.uint8) << bit
    return code


def _detect(stack: WindowStack, params: DetectionParams, kind: str) -> dict:
    """The columns of the events of one kind in every window of a stack,
    row-major, with each event's number among its window's events of
    that kind under "number"."""
    params.validate()
    valid = stack.valid
    with np.errstate(invalid="ignore"):
        if kind == SACCADE:
            try:
                etas = _ek_thresholds(
                    stack.vx, stack.vy, valid, params.sacc_lambda, params.eta_floor
                )
            except DegenerateDataError as e:  # named after the first such window
                row = int(np.argmax(valid.sum(axis=1) < 2))
                raise DegenerateDataError(f"{stack.window_ids[row]}: {e}") from None
            candidates = (
                (stack.vx / etas[:, :1]) ** 2 + (stack.vy / etas[:, 1:]) ** 2 > 1
            )
        else:
            candidates = stack.speed <= params.fix_max_velocity
    rows, onsets, offsets = _runs(candidates & valid)
    kinds = np.full(len(rows), KINDS.index(kind), dtype=np.int8)
    values, _ = _properties(stack, rows, onsets, offsets, kinds)
    first = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=len(stack)))))
    return dict(
        row=rows, kind=kinds, onset=onsets, offset=offsets, **values,
        exclusion=_exclusions(kind, values, params), number=np.arange(len(rows)) - first[rows],
    )


def detect_events(windows: WindowStack, params: DetectionParams, kinds=KINDS) -> EventTable:
    """The events of the given kinds in every window, excluded events
    included, in one batched pass over the stacked windows: ordered by
    window row, then kind in `kinds` order, then onset, with ids
    "<window id>:fix003" or "<window id>:sac000"."""
    parts = [_detect(windows, params, kind) for kind in kinds]
    order = np.argsort(np.concatenate([p["row"] for p in parts]), kind="stable")
    columns = {name: np.concatenate([p[name] for p in parts])[order] for name in parts[0]}
    ids, tags = windows.window_ids, ("fix", "sac")
    columns["event_id"] = np.array([
        f"{ids[r]}:{tags[k]}{n:03d}" for r, k, n in zip(
            columns["row"].tolist(), columns["kind"].tolist(), columns.pop("number").tolist()
        )
    ], dtype=object)
    return EventTable(window_ids=ids, **columns)


def detect_saccades_ek(window: WindowStack, params: DetectionParams) -> EventTable:
    """Engbert-Kliegl saccade detection on a stack of one window.

    Candidate samples satisfy (vx/eta_x)^2 + (vy/eta_y)^2 > 1; missing
    samples are never candidates and break runs. Every maximal run
    becomes an event; runs violating the duration or peak-velocity
    bounds are marked excluded rather than dropped.
    """
    return detect_events(window, params, (SACCADE,))


def detect_fixations_ivt(window: WindowStack, params: DetectionParams) -> EventTable:
    """I-VT fixation detection on a stack of one window.

    Candidate samples have speed at or below fix_max_velocity; maximal
    runs become fixations, and runs that are too short or too dispersed
    are marked excluded with the failed bound as reason.
    """
    return detect_events(window, params, (FIXATION,))


def retained(events: EventTable, kind: str | None = None) -> EventTable:
    """The events (of ``kind``, if given) that survived the validity filters."""
    return events.take(~events.excluded & (True if kind is None else events.is_kind(kind)))
