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

from .errors import ConfigError, DegenerateDataError, SizeError


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
    recording_ids: list
    start_index: list
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
            [self.window_ids[i] for i in rows], [self.recording_ids[i] for i in rows],
            [self.start_index[i] for i in rows], self.sampling_rate_hz[rows],
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


def compute_channel_stats(windows: WindowStack) -> ChannelStats:
    """Mean and std per velocity channel over valid samples of all windows.

    Windows are reduced in row order so the result does not depend on
    any parallel evaluation schedule.
    """
    if not len(windows):
        raise DegenerateDataError("no windows to compute statistics over")
    vxs = windows.vx[windows.valid]
    vys = windows.vy[windows.valid]
    if len(vxs) == 0:
        raise DegenerateDataError("all samples missing; no statistics")
    return ChannelStats(
        mean_x=float(np.mean(vxs)),
        std_x=float(np.std(vxs)),
        mean_y=float(np.mean(vys)),
        std_y=float(np.std(vys)),
        n=int(len(vxs)),
    )


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
