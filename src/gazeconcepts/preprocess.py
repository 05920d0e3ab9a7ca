"""Turn positional gaze recordings into clamped, windowed velocity sequences.

window_recording differentiates a recording's positions with a
Savitzky-Golay filter, clamps the velocities to a physical limit, cuts
non-overlapping fixed-length windows and drops those with too many
missing samples. Window ids name their recording: ``<id>-w<slot>``
(window_sequence), read back by recording_of. windowed, the one
windowing of `run`, staged preprocess and every later stage, windows a
RecordingWindows, refuses a window it names that windowing does not
produce and gathers the named windows. Detection consumes the
unnormalized, clamped velocities in deg/s.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .errors import AlignmentError, ConfigError, DegenerateDataError, SizeError


@dataclass(frozen=True)
class SavGolParams:
    """Savitzky-Golay differentiation settings.

    window_length must be odd and greater than poly_order; dt_s is the
    sample spacing in seconds (1/sampling_rate).
    """

    window_length: int = 7
    poly_order: int = 2
    dt_s: float = 1e-3

    def validate(self):
        if self.window_length < 3 or self.window_length % 2 == 0:
            raise ConfigError(
                f"window_length must be an odd integer >= 3, got {self.window_length}"
            )
        if self.poly_order < 1:
            raise ConfigError(f"poly_order must be >= 1, got {self.poly_order}")
        if self.poly_order >= self.window_length:
            raise ConfigError(
                f"poly_order ({self.poly_order}) must be smaller than "
                f"window_length ({self.window_length})"
            )
        if not self.dt_s > 0:
            raise ConfigError(f"dt_s must be positive, got {self.dt_s}")


EYES = ("left", "right")


@dataclass(frozen=True)
class WindowParams:
    """What shapes a recording's windows: SG differentiation, the clamp
    (deg/s), the length, the largest missing fraction a window keeps and
    the eye picked from binocular recordings."""

    sg_window: int = 7
    sg_order: int = 2
    clamp: float = 1000.0
    window_len: int = 1000
    missing_max_frac: float = 0.5
    eye: str = "right"

    def validate(self):
        if self.eye not in EYES:
            raise ConfigError(f"eye must be {'/'.join(EYES)}, got {self.eye!r}")
        for name, ok, rule in (
            ("clamp", self.clamp > 0, "positive"),
            ("window_len", self.window_len >= 1, ">= 1"),
            ("missing_max_frac", 0 <= self.missing_max_frac <= 1, "in [0, 1]"),
        ):
            if not ok:
                raise ConfigError(f"{name} must be {rule}, got {getattr(self, name)}")
        try:
            SavGolParams(self.sg_window, self.sg_order).validate()
        except ConfigError as e:
            raise ConfigError(f"sg_window/sg_order: {e}") from None


@dataclass
class ChannelStats:
    """Per-channel velocity moments over the valid samples of a corpus."""

    mean_x: float
    std_x: float
    mean_y: float
    std_y: float
    n: int


@dataclass
class WindowStack:
    """Equal-length velocity windows as (n, L) arrays, one row per window.

    Velocities are yaw (vx) and pitch (vy) in deg/s; positions px/py are
    kept in degrees for dispersion and amplitude computation. valid is
    False wherever a sample has no usable velocity, i.e. the source
    position was missing or the differentiation window touched one.
    Every stage computes on the whole stack; a single window is a stack
    of one row. ``speed`` is computed once, on first use.
    """

    window_ids: list
    sampling_rate_hz: np.ndarray  # (n,)
    vx: np.ndarray  # (n, L) deg/s
    vy: np.ndarray
    px: np.ndarray  # (n, L) deg
    py: np.ndarray
    valid: np.ndarray  # (n, L) bool

    @property
    def length(self) -> int:
        return self.vx.shape[1]

    @cached_property
    def speed(self) -> np.ndarray:
        """Velocity magnitude per sample (NaN where a component is)."""
        return np.hypot(self.vx, self.vy)

    def __len__(self) -> int:
        return len(self.window_ids)

    def take(self, rows) -> "WindowStack":
        """The windows at index sequence ``rows``, in that order: a copy."""
        return WindowStack(
            [self.window_ids[i] for i in rows], self.sampling_rate_hz[rows],
            *(getattr(self, name)[rows] for name in ("vx", "vy", "px", "py", "valid")),
        )


def outside_window(onsets, offsets, length: int) -> np.ndarray:
    """Where an inclusive interval is not inside [0, length)."""
    return (onsets < 0) | (onsets > offsets) | (offsets >= length)


@dataclass
class WindowingSummary:
    """Sample bookkeeping for one windowing pass.

    retained*window_len + excluded*window_len + tail_samples equals the
    input length.
    """

    window_len: int
    retained: int = 0
    excluded: int = 0
    tail_samples: int = 0


@dataclass
class RecordingWindows:
    """One recording and the evaluation windows that name it; its summary
    and windows are set once it is windowed (windowed)."""

    positions: tuple  # (recording id, sampling rate, x, y), eye-selected, in deg
    rows: np.ndarray  # ascending indices of its windows among the evaluation windows
    summary: WindowingSummary | None = None
    windows: WindowStack | None = None  # the windows at those rows, in their order


@lru_cache(maxsize=256)
def savgol_weights(window_length: int, poly_order: int, pos: int) -> np.ndarray:
    """First-derivative filter weights for one evaluation position.

    A polynomial of degree poly_order is least-squares fitted to the
    window samples; the returned weights produce the fitted polynomial's
    derivative (per sample step) at offset ``pos`` within the window.
    The weights are computed once per argument triple and shared, so
    the array is read-only.
    """
    if not 0 <= pos < window_length:
        raise ConfigError(f"evaluation position {pos} outside window")
    offsets = np.arange(window_length, dtype=float) - pos
    design = np.vander(offsets, poly_order + 1, increasing=True)
    weights = np.linalg.pinv(design)[1]
    weights.flags.writeable = False
    return weights


def savgol_derivative(positions, params: SavGolParams) -> np.ndarray:
    """Differentiate a position sequence, returning velocities in deg/s.

    Interior samples use the centered window; the first and last
    half-window samples reuse the boundary-anchored window and evaluate
    the fitted polynomial's derivative at their own offset, so no output
    is discarded. Any window that covers a missing (NaN) sample yields
    NaN at the position it serves.
    """
    params.validate()
    x = np.asarray(positions, dtype=float)
    w = params.window_length
    if x.ndim != 1:
        raise ConfigError("positions must be one-dimensional")
    if len(x) < w:
        raise SizeError(f"need at least {w} samples, got {len(x)}")

    half = w // 2
    out = np.empty_like(x)
    center = savgol_weights(w, params.poly_order, half)
    # correlate propagates NaN through the whole window even where a
    # weight is zero (0 * NaN = NaN)
    out[half : len(x) - half] = np.correlate(x, center, mode="valid")
    for i in range(half):
        out[i] = savgol_weights(w, params.poly_order, i) @ x[:w]
        j = len(x) - half + i
        out[j] = savgol_weights(w, params.poly_order, w - half + i) @ x[-w:]
    with np.errstate(over="ignore"):  # beyond the float range is inf, then clamped
        return out / params.dt_s


def clamp_velocities(v, limit: float = 1000.0) -> np.ndarray:
    """Clamp velocities to [-limit, limit]; NaN samples stay NaN."""
    if not limit > 0:
        raise ConfigError(f"clamp limit must be positive, got {limit}")
    return np.clip(np.asarray(v, dtype=float), -limit, limit)


def window_sequence(
    vx,
    vy,
    px,
    py,
    window_len: int,
    recording_id: str = "",
    sampling_rate_hz: float = 1000.0,
    missing_max_frac: float = 0.5,
) -> tuple[WindowStack, WindowingSummary]:
    """Cut velocity/position traces into non-overlapping windows.

    The trailing remainder shorter than window_len is discarded; windows
    whose missing fraction exceeds missing_max_frac (strict) are excluded
    and counted. A sample is missing when either velocity component is
    non-finite. Slot i is named ``<recording_id>-w<i:04d>`` (recording_of
    reads the id back), or ``w<i:04d>`` without an id. When no window is
    excluded the stack's rows are views of the input traces, otherwise a
    copy of the retained rows.
    """
    if window_len < 1:
        raise ConfigError(f"window_len must be >= 1, got {window_len}")
    n = len(vx)
    n_slots = n // window_len

    def slots(a):
        return np.asarray(a, dtype=float)[: n_slots * window_len].reshape(n_slots, window_len)

    vx, vy, px, py = slots(vx), slots(vy), slots(px), slots(py)
    valid = np.isfinite(vx) & np.isfinite(vy)
    n_missing = window_len - valid.sum(axis=1)
    keep = ~(n_missing > missing_max_frac * window_len)
    ids = [f"{recording_id}-w{slot:04d}" if recording_id else f"w{slot:04d}"
           for slot in range(n_slots)]
    summary = WindowingSummary(
        window_len=window_len,
        retained=int(keep.sum()),
        excluded=int(n_slots - keep.sum()),
        tail_samples=n % window_len,
    )
    take = slice(None) if keep.all() else keep
    stack = WindowStack(
        [wid for wid, k in zip(ids, keep.tolist()) if k],
        np.full(summary.retained, sampling_rate_hz, dtype=float),
        *(a[take] for a in (vx, vy, px, py, valid)),
    )
    return stack, summary


def recording_of(window_id: str) -> str | None:
    """The recording id that window_sequence names `window_id` after, or
    None if it names none: the inverse of ``<id>-w<slot>``."""
    head, _, slot = window_id.rpartition("-w")
    if head and slot.isascii() and slot.isdigit() and f"{int(slot):04d}" == slot:
        return head
    return None


def window_recording(recording_id: str, sampling_rate_hz: float, x, y,
                     params: WindowParams) -> tuple[WindowStack, WindowingSummary]:
    """The windows of one recording's positions (deg, NaN where missing):
    SG velocities at its sampling rate, clamped, cut by window_sequence."""
    sg = SavGolParams(params.sg_window, params.sg_order, 1.0 / sampling_rate_hz)
    vx, vy = (clamp_velocities(savgol_derivative(p, sg), params.clamp) for p in (x, y))
    return window_sequence(vx, vy, x, y, params.window_len, recording_id, sampling_rate_hz,
                           params.missing_max_frac)


def windowed(recording: RecordingWindows, window_ids, params: WindowParams) -> RecordingWindows:
    """`recording` windowed (window_recording), with its summary and the
    windows of `window_ids` at its rows, in that order: gathered a field
    at a time, each field of the whole stack dropped once gathered, or the
    stack itself if it holds exactly those. AlignmentError for the first
    of them that windowing does not produce, with the summary."""
    stack, s = window_recording(*recording.positions, params)
    ids = [window_ids[i] for i in recording.rows.tolist()]
    row_of = {window_id: row for row, window_id in enumerate(stack.window_ids)}
    missing = [window_id for window_id in ids if window_id not in row_of]
    if missing:
        raise AlignmentError(
            f"window_id {missing[0]!r} is not among the windows of this recording ({s.retained} "
            f"retained, {s.excluded} excluded with more than {params.missing_max_frac:g} of "
            f"their samples missing, {s.tail_samples} tail samples)")
    if stack.window_ids != ids:
        rows, columns = [row_of[window_id] for window_id in ids], {"window_ids": ids}
        for name in ("sampling_rate_hz", "vx", "vy", "px", "py", "valid"):
            columns[name] = getattr(stack, name)[rows]
            setattr(stack, name, None)
        stack = WindowStack(**columns)
    return replace(recording, summary=s, windows=stack)


def compute_channel_stats(windows: WindowStack) -> ChannelStats:
    """Mean and std per velocity channel over valid samples of all windows.

    Windows are reduced in row order so the result does not depend on
    any parallel evaluation schedule. The channels are reduced one at a
    time, so only one channel's valid samples are ever copied.
    """
    if not len(windows):
        raise DegenerateDataError("no windows to compute statistics over")
    n = int(windows.valid.sum())
    if n == 0:
        raise DegenerateDataError("all samples missing; no statistics")
    moments = {}
    for name in ("x", "y"):
        values = getattr(windows, "v" + name)[windows.valid]
        moments["mean_" + name], moments["std_" + name] = np.mean(values), np.std(values)
    return ChannelStats(**{k: float(v) for k, v in moments.items()}, n=n)


def zscore_normalize(windows: WindowStack, stats) -> WindowStack:
    """Z-score each row's velocities by its ChannelStats in ``stats`` (one
    per row); missing samples become exactly 0."""
    scaled = {}
    for name in ("x", "y"):
        mean = np.array([getattr(s, "mean_" + name) for s in stats])[:, None]
        std = np.array([getattr(s, "std_" + name) for s in stats])[:, None]
        if not (std > 0).all():
            raise DegenerateDataError(f"channel {name} has zero standard deviation")
        v = getattr(windows, "v" + name)
        scaled["v" + name] = np.where(windows.valid, (v - mean) / std, 0.0)
    return replace(windows, **scaled)
