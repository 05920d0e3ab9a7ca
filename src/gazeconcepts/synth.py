"""Seeded synthetic scanpaths with ground truth, and proxy attributions.

Scanpaths alternate stationary fixations (plus optional white positional
noise) with saccades that follow a raised-cosine velocity profile

    v(t) = (A * pi) / (2 * d) * sin(pi * t / d),   0 <= t <= d

whose integral over the duration d is exactly the requested amplitude A.
Positions are sampled from the analytic displacement, so the ground
truth intervals are exact by construction. Proxy attribution maps stand
in for model-derived saliency when exercising the influence pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .detect import FIXATION, SACCADE
from .errors import ConfigError
from .io import (
    AttributionMap,
    GazeRecording,
    ManifestEntry,
    RunManifest,
    write_attribution,
    write_gaze_csv,
    write_manifest,
    write_table,
)
from .preprocess import (
    SavGolParams,
    WindowStack,
    clamp_velocities,
    savgol_derivative,
    savgol_weights,
    window_sequence,
)


@dataclass(frozen=True)
class PlannedFixation:
    duration_ms: float


@dataclass(frozen=True)
class PlannedSaccade:
    duration_ms: float
    amplitude_deg: float
    direction_deg: float | None = None  # None: drawn from the seed, bounds-aware


@dataclass
class ScanpathSpec:
    """An alternating fixation/saccade plan plus generation settings."""

    segments: list
    noise_sigma_deg: float = 0.0  # white positional noise, per axis
    start_position: tuple = (0.0, 0.0)
    bounds_deg: float = 30.0
    sampling_rate_hz: float = 1000.0


@dataclass
class TrueEvent:
    """Ground-truth event in recording sample coordinates (inclusive).

    Positions are sampled at segment starts, so the eye reaches a
    saccade's target exactly on the first sample of the next segment;
    each event interval therefore extends one sample past its planned
    block (adjacent events share that boundary sample, which is at rest
    and on target at the same time).
    """

    kind: str
    onset: int
    offset: int
    duration_ms: float
    amplitude_deg: float = math.nan
    peak_velocity: float = math.nan

    @property
    def n_samples(self) -> int:
        return self.offset - self.onset + 1


def raised_cosine_peak(amplitude_deg: float, duration_s: float) -> float:
    """Peak speed of the profile: A*pi/(2*d)."""
    return amplitude_deg * math.pi / (2.0 * duration_s)


def _segment_samples(duration_ms: float, fs: float) -> int:
    if not duration_ms > 0:
        raise ConfigError(f"segment durations must be positive, got {duration_ms}")
    n = int(round(duration_ms * fs / 1000.0))
    if n < 1:
        raise ConfigError(f"duration {duration_ms} ms is under one sample at {fs} Hz")
    return n


def _pick_direction(rng, pos, amplitude, bounds):
    for _ in range(64):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        end = (pos[0] + amplitude * math.cos(theta), pos[1] + amplitude * math.sin(theta))
        if abs(end[0]) <= bounds and abs(end[1]) <= bounds:
            return theta
    # aim back at the center as a last resort
    theta = math.atan2(-pos[1], -pos[0])
    end = (pos[0] + amplitude * math.cos(theta), pos[1] + amplitude * math.sin(theta))
    if abs(end[0]) <= bounds and abs(end[1]) <= bounds:
        return theta
    raise ConfigError(
        f"saccade of {amplitude} deg cannot stay within +/-{bounds} deg bounds"
    )


def gen_scanpath(spec: ScanpathSpec, seed: int, recording_id: str = "synth"):
    """Generate a recording and its ground-truth event list.

    Deterministic for a given (spec, seed). Fixations hold the current
    position; each saccade displaces it by its amplitude along its
    direction, with positions sampled from the analytic raised-cosine
    displacement so the planned intervals are exact.
    """
    fs = spec.sampling_rate_hz
    if not fs > 0:
        raise ConfigError("sampling_rate_hz must be positive")
    rng = np.random.default_rng(seed)
    pos = tuple(spec.start_position)
    if abs(pos[0]) > spec.bounds_deg or abs(pos[1]) > spec.bounds_deg:
        raise ConfigError("start_position outside bounds")

    xs, ys, truth = [], [], []
    cursor = 0
    for seg in spec.segments:
        n = _segment_samples(seg.duration_ms, fs)
        if isinstance(seg, PlannedFixation):
            xs.append(np.full(n, pos[0]))
            ys.append(np.full(n, pos[1]))
            truth.append(TrueEvent(FIXATION, cursor, cursor + n, n * 1000.0 / fs))
        elif isinstance(seg, PlannedSaccade):
            if seg.amplitude_deg < 0:
                raise ConfigError("saccade amplitude must be >= 0")
            if seg.direction_deg is not None:
                theta = math.radians(seg.direction_deg)
                end = (
                    pos[0] + seg.amplitude_deg * math.cos(theta),
                    pos[1] + seg.amplitude_deg * math.sin(theta),
                )
                if abs(end[0]) > spec.bounds_deg or abs(end[1]) > spec.bounds_deg:
                    raise ConfigError(
                        f"planned saccade leaves +/-{spec.bounds_deg} deg bounds"
                    )
            else:
                theta = _pick_direction(rng, pos, seg.amplitude_deg, spec.bounds_deg)
            d = n / fs
            frac = (1.0 - np.cos(np.pi * np.arange(n) / n)) / 2.0
            xs.append(pos[0] + seg.amplitude_deg * math.cos(theta) * frac)
            ys.append(pos[1] + seg.amplitude_deg * math.sin(theta) * frac)
            truth.append(TrueEvent(
                SACCADE, cursor, cursor + n, n * 1000.0 / fs, amplitude_deg=seg.amplitude_deg,
                peak_velocity=raised_cosine_peak(seg.amplitude_deg, d),
            ))
            pos = (pos[0] + seg.amplitude_deg * math.cos(theta),
                   pos[1] + seg.amplitude_deg * math.sin(theta))
        else:
            raise ConfigError(f"unknown plan segment {type(seg).__name__}")
        cursor += n

    x = np.concatenate(xs) if xs else np.empty(0)
    y = np.concatenate(ys) if ys else np.empty(0)
    for e in truth:  # the last event has no follow-up sample to share
        e.offset = min(e.offset, len(x) - 1)
    if spec.noise_sigma_deg > 0:
        x = x + rng.normal(0.0, spec.noise_sigma_deg, len(x))
        y = y + rng.normal(0.0, spec.noise_sigma_deg, len(y))
    step_ms = 1000.0 / fs
    t_ms = np.round(np.arange(len(x)) * step_ms).astype(np.int64)
    rec = GazeRecording(
        recording_id=recording_id,
        t_ms=t_ms,
        eyes={"mono": (x, y)},
        eye="mono",
        sampling_rate_hz=fs,
        source_meta={"generator": "gazeconcepts.synth", "seed": str(seed)},
    )
    return rec, truth


def random_plan(
    seed: int,
    duration_s: float,
    fixation_ms=(80.0, 250.0),
    saccade_ms=(20.0, 60.0),
    peak_velocity_dps=(100.0, 400.0),
    noise_sigma_deg: float = 0.0,
    bounds_deg: float = 25.0,
    sampling_rate_hz: float = 1000.0,
) -> ScanpathSpec:
    """A seeded plan of alternating fixations and saccades.

    Saccade amplitudes are derived from a drawn peak speed and duration
    (A = 2*d*v_peak/pi) so the generated peaks land in the requested
    range regardless of duration.
    """
    rng = np.random.default_rng(seed)
    segments = []
    total = 0.0
    want_ms = duration_s * 1000.0
    while total < want_ms:
        fix = PlannedFixation(float(rng.uniform(*fixation_ms)))
        segments.append(fix)
        total += fix.duration_ms
        if total >= want_ms:
            break
        d_ms = float(rng.uniform(*saccade_ms))
        peak = float(rng.uniform(*peak_velocity_dps))
        amp = 2.0 * (d_ms / 1000.0) * peak / math.pi
        segments.append(PlannedSaccade(d_ms, amp))
        total += d_ms
    return ScanpathSpec(
        segments=segments,
        noise_sigma_deg=noise_sigma_deg,
        bounds_deg=bounds_deg,
        sampling_rate_hz=sampling_rate_hz,
    )


def positional_noise_sigma(velocity_sigma_dps: float, params: SavGolParams) -> float:
    """Positional white-noise sigma that yields the requested velocity
    noise after differentiation (via the central filter weight norm)."""
    w = savgol_weights(params.window_length, params.poly_order, params.window_length // 2)
    return velocity_sigma_dps * params.dt_s / float(np.linalg.norm(w))


ATTRIBUTION_MODES = ("speed", "uniform_random", "fixation_biased")


def gen_proxy_attributions(windows: WindowStack, row: int, mode: str,
                           seed: int = 0) -> AttributionMap:
    """A stand-in attribution map for the window at `row` of a stack.

    "speed" sets both channels to the velocity magnitude per step,
    "uniform_random" draws i.i.d. values from [0, 1), and
    "fixation_biased" inverts the speed ranking (slow samples score
    high). Missing samples always get attribution 0 so values stay
    finite.
    """
    valid = windows.valid[row]
    speed = np.where(valid, np.hypot(windows.vx[row], windows.vy[row]), 0.0)
    if mode == "speed":
        values = np.stack([speed, speed])
    elif mode == "uniform_random":
        rng = np.random.default_rng(seed)
        values = rng.random((2, windows.length))
    elif mode == "fixation_biased":
        inverted = np.where(valid, speed.max() - speed, 0.0)
        values = np.stack([inverted, inverted])
    else:
        raise ConfigError(f"unknown attribution mode {mode!r}; use {ATTRIBUTION_MODES}")
    return AttributionMap(window_id=windows.window_ids[row], values=values)


GROUND_TRUTH_COLUMNS = (
    "recording_id", "kind", "onset", "offset", "duration_ms", "amplitude_deg", "peak_velocity",
)


def write_ground_truth(events_by_recording: dict, path):
    rows = [(rec_id, e) for rec_id in sorted(events_by_recording)
            for e in events_by_recording[rec_id]]
    write_table(path, GROUND_TRUTH_COLUMNS, [
        [rec_id for rec_id, _ in rows],
        *([getattr(e, name) for _, e in rows] for name in GROUND_TRUTH_COLUMNS[1:]),
    ])


@dataclass
class CorpusSpec:
    """Settings for the bundled demo corpus."""

    seed: int = 20230403
    n_recordings: int = 4
    duration_s: float = 130.0
    window_len: int = 1000
    noise_velocity_sigma_dps: float = 0.5
    attribution_mode: str = "speed"
    sampling_rate_hz: float = 1000.0
    saccade_ms: tuple = (20.0, 60.0)
    peak_velocity_dps: tuple = (100.0, 400.0)
    fixation_ms: tuple = (80.0, 250.0)
    sg: SavGolParams = field(default_factory=SavGolParams)
    clamp_dps: float = 1000.0


def write_demo_corpus(out_dir, spec: CorpusSpec | None = None) -> Path:
    """Generate and write the demo corpus; returns the manifest path.

    Layout: recordings/*.csv, attributions/<window_id>.csv (aligned to
    the windows the default preprocessing produces), gt_events.csv, and
    manifest.json tying each attribution to its window.
    """
    spec = spec or CorpusSpec()
    out = Path(out_dir)
    (out / "recordings").mkdir(parents=True, exist_ok=True)
    (out / "attributions").mkdir(parents=True, exist_ok=True)

    sigma_pos = (
        positional_noise_sigma(spec.noise_velocity_sigma_dps, spec.sg)
        if spec.noise_velocity_sigma_dps > 0
        else 0.0
    )
    entries = []
    truth_by_rec = {}
    attr_seed = spec.seed + 7919
    for i in range(spec.n_recordings):
        rec_id = f"rec{i:02d}"
        plan = random_plan(
            spec.seed + i,
            spec.duration_s,
            fixation_ms=spec.fixation_ms,
            saccade_ms=spec.saccade_ms,
            peak_velocity_dps=spec.peak_velocity_dps,
            noise_sigma_deg=sigma_pos,
            sampling_rate_hz=spec.sampling_rate_hz,
        )
        rec, truth = gen_scanpath(plan, spec.seed + i, recording_id=rec_id)
        write_gaze_csv(rec, out / "recordings" / f"{rec_id}.csv")
        truth_by_rec[rec_id] = truth

        vx = clamp_velocities(savgol_derivative(rec.x_deg, spec.sg), spec.clamp_dps)
        vy = clamp_velocities(savgol_derivative(rec.y_deg, spec.sg), spec.clamp_dps)
        windows, _ = window_sequence(
            vx, vy, rec.x_deg, rec.y_deg, spec.window_len,
            recording_id=rec_id, sampling_rate_hz=spec.sampling_rate_hz,
        )
        for row, window_id in enumerate(windows.window_ids):
            attr = gen_proxy_attributions(windows, row, spec.attribution_mode, seed=attr_seed)
            attr_seed += 1
            write_attribution(attr, out / "attributions" / f"{window_id}.csv")
            entries.append(ManifestEntry(
                f"recordings/{rec_id}.csv", f"attributions/{window_id}.csv", window_id
            ))

    write_ground_truth(truth_by_rec, out / "gt_events.csv")
    manifest = RunManifest(entries=entries, base_dir=out, output_dir="out")
    manifest_path = out / "manifest.json"
    write_manifest(manifest, manifest_path)
    return manifest_path
