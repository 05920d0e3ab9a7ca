"""Turn positional gaze recordings into clamped, windowed velocity sequences.

The pipeline is: differentiate positions with a Savitzky-Golay filter,
clamp the velocities to a physical limit, cut the sequence into
non-overlapping fixed-length windows, drop windows with too many missing
samples, and (optionally) z-score the retained windows for model-input
parity. Event detection downstream always consumes the unnormalized,
clamped velocities in deg/s.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import ConfigError, DataError, DegenerateDataError, SizeError


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


@dataclass
class ChannelStats:
    """Per-channel velocity moments over the valid samples of a corpus."""

    mean_x: float
    std_x: float
    mean_y: float
    std_y: float
    n: int


@dataclass
class VelocityWindow:
    """One fixed-length two-channel velocity subsequence.

    Velocities are yaw (vx) and pitch (vy) in deg/s; positions px/py are
    kept in degrees for dispersion and amplitude computation. valid_mask
    is False wherever a sample has no usable velocity, i.e. the source
    position was missing or the differentiation window touched one.
    """

    window_id: str
    recording_id: str
    start_index: int
    vx: np.ndarray
    vy: np.ndarray
    px: np.ndarray
    py: np.ndarray
    valid_mask: np.ndarray
    sampling_rate_hz: float = 1000.0
    normalized: bool = False
    norm_stats: ChannelStats | None = None

    @property
    def length(self) -> int:
        return len(self.vx)

    def speed(self) -> np.ndarray:
        """Velocity magnitude per sample (NaN where invalid)."""
        return np.hypot(self.vx, self.vy)


@dataclass
class WindowStack:
    """Equal-length velocity windows as (n, L) arrays, one row per window.

    The batched stages compute on the arrays. The stack is also the
    sequence of its windows: each VelocityWindow it yields is a set of row
    views, so a window's data is stored once. ``speed`` is computed once,
    on first use.
    """

    window_ids: list
    recording_ids: list
    start_index: list
    sampling_rate_hz: np.ndarray  # (n,)
    vx: np.ndarray  # (n, L) deg/s
    vy: np.ndarray
    px: np.ndarray  # (n, L) deg
    py: np.ndarray
    valid: np.ndarray  # (n, L) bool

    @classmethod
    def of(cls, windows) -> "WindowStack":
        """``windows`` itself if it is a stack, else its windows stacked:
        a copy, or views of the arrays of a lone window; DataError if
        their lengths differ."""
        if isinstance(windows, cls):
            return windows
        windows = list(windows)
        lengths = {w.length for w in windows}
        if len(lengths) > 1:
            raise DataError(f"windows of mixed lengths {sorted(lengths)} cannot be stacked")
        length = lengths.pop() if lengths else 0

        def stack(name, dtype):
            if len(windows) == 1:
                return np.asarray(getattr(windows[0], name), dtype=dtype)[None]
            return np.array([getattr(w, name) for w in windows], dtype=dtype).reshape(-1, length)

        return cls(
            window_ids=[w.window_id for w in windows],
            recording_ids=[w.recording_id for w in windows],
            start_index=[w.start_index for w in windows],
            sampling_rate_hz=np.array([w.sampling_rate_hz for w in windows], dtype=float),
            vx=stack("vx", float),
            vy=stack("vy", float),
            px=stack("px", float),
            py=stack("py", float),
            valid=stack("valid_mask", bool),
        )

    @property
    def length(self) -> int:
        return self.vx.shape[1]

    @cached_property
    def speed(self) -> np.ndarray:
        """Velocity magnitude per sample (NaN where a component is)."""
        return np.hypot(self.vx, self.vy)

    @cached_property
    def windows(self) -> list:
        return [
            VelocityWindow(wid, rec, start, self.vx[i], self.vy[i], self.px[i], self.py[i],
                           self.valid[i], float(self.sampling_rate_hz[i]))
            for i, (wid, rec, start) in enumerate(
                zip(self.window_ids, self.recording_ids, self.start_index)
            )
        ]

    def __len__(self) -> int:
        return len(self.window_ids)

    def __getitem__(self, i) -> VelocityWindow:
        return self.windows[i]

    def __iter__(self):
        return iter(self.windows)


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
    excluded_window_ids: list = field(default_factory=list)


def savgol_weights(window_length: int, poly_order: int, pos: int) -> np.ndarray:
    """First-derivative filter weights for one evaluation position.

    A polynomial of degree poly_order is least-squares fitted to the
    window samples; the returned weights produce the fitted polynomial's
    derivative (per sample step) at offset ``pos`` within the window.
    """
    if not 0 <= pos < window_length:
        raise ConfigError(f"evaluation position {pos} outside window")
    offsets = np.arange(window_length, dtype=float) - pos
    design = np.vander(offsets, poly_order + 1, increasing=True)
    return np.linalg.pinv(design)[1]


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
    non-finite. When no window is excluded the stack's rows are views of
    the input traces, otherwise a copy of the retained rows.
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
        excluded_window_ids=[wid for wid, k in zip(ids, keep.tolist()) if not k],
    )
    take = slice(None) if keep.all() else keep
    stack = WindowStack(
        [wid for wid, k in zip(ids, keep.tolist()) if k], [recording_id] * summary.retained,
        (np.flatnonzero(keep) * window_len).tolist(),
        np.full(summary.retained, sampling_rate_hz, dtype=float),
        *(a[take] for a in (vx, vy, px, py, valid)),
    )
    return stack, summary


def compute_channel_stats(windows) -> ChannelStats:
    """Mean and std per velocity channel over valid samples of all windows.

    Windows are reduced in list order so the result does not depend on
    any parallel evaluation schedule.
    """
    stack = WindowStack.of(windows)
    if not len(stack):
        raise DegenerateDataError("no windows to compute statistics over")
    vxs = stack.vx[stack.valid]
    vys = stack.vy[stack.valid]
    if len(vxs) == 0:
        raise DegenerateDataError("all samples missing; no statistics")
    return ChannelStats(
        mean_x=float(np.mean(vxs)),
        std_x=float(np.std(vxs)),
        mean_y=float(np.mean(vys)),
        std_y=float(np.std(vys)),
        n=int(len(vxs)),
    )


def zscore_normalize(window: VelocityWindow, stats: ChannelStats) -> VelocityWindow:
    """Z-score a window's velocities; missing samples become exactly 0."""
    for name, std in (("x", stats.std_x), ("y", stats.std_y)):
        if not std > 0:
            raise DegenerateDataError(f"channel {name} has zero standard deviation")
    valid = window.valid_mask
    vx = np.zeros_like(window.vx)
    vy = np.zeros_like(window.vy)
    vx[valid] = (window.vx[valid] - stats.mean_x) / stats.std_x
    vy[valid] = (window.vy[valid] - stats.mean_y) / stats.std_y
    return replace(window, vx=vx, vy=vy, normalized=True, norm_stats=stats)
