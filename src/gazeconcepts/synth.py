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
from dataclasses import dataclass
from functools import partial
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
from .pipeline import pool_size, recording_map
from .preprocess import (
    SavGolParams,
    WindowParams,
    WindowStack,
    savgol_weights,
    window_recording,
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


# synth's peak RSS is about 430 B per sample of each recording being written at once,
# plus about 32 MB per process that writes: in one process 1 x 130 s at 1 kHz peaks at
# 95 MB and 1 x 520 s at 262 MB; 2 x 130 s in a pool of two workers at 42 MB in the
# parent and 88 MB in each worker (2 x 520 s: 53 MB and 258 MB), most of each worker's
# first 32 MB being the parent's pages, shared since the fork. The recordings written at
# once hold at most every sample of the corpus, so one of this many samples stays near
# 1 GB, plus those 32 MB per worker
MAX_CORPUS_SAMPLES = 2_500_000


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

    def validate(self):
        """ConfigError naming the first field out of its range."""
        checks = [
            ("seed", self.seed >= 0, ">= 0"),
            ("n_recordings", self.n_recordings >= 1, ">= 1"),
            ("duration_s", math.isfinite(self.duration_s) and self.duration_s > 0,
             "finite and positive"),
            ("window_len", self.window_len >= 1, ">= 1"),
            ("noise_velocity_sigma_dps", self.noise_velocity_sigma_dps >= 0, ">= 0"),
            ("sampling_rate_hz", self.sampling_rate_hz > 0, "positive"),
        ]
        for name in ("saccade_ms", "peak_velocity_dps", "fixation_ms"):
            lo, hi = getattr(self, name)
            checks.append((name, 0 < lo <= hi, "a range 0 < lo <= hi"))
        for name, ok, rule in checks:
            if not ok:
                raise ConfigError(f"{name} must be {rule}, got {getattr(self, name)}")
        samples = self.n_recordings * self.duration_s * self.sampling_rate_hz
        if samples > MAX_CORPUS_SAMPLES:
            raise ConfigError(f"n_recordings x duration_s x sampling_rate_hz must be at most "
                              f"{MAX_CORPUS_SAMPLES} samples, got {samples:g}")


def write_recording(out: Path, spec: CorpusSpec, params: WindowParams, task: tuple) -> tuple:
    """Generate recording `index` of the corpus from its plan and write its
    gaze CSV and the attribution file of each of its `n_windows` windows,
    the first seeded `attr_seed`, the next one more; returns its truth
    events and manifest entries."""
    index, plan, attr_seed, n_windows = task
    rec_id = f"rec{index:02d}"
    rec, truth = gen_scanpath(plan, spec.seed + index, recording_id=rec_id)
    windows, _ = window_recording(rec_id, rec.sampling_rate_hz, rec.x_deg, rec.y_deg, params)
    if len(windows) != n_windows:  # the seeds of every later recording would shift
        raise AssertionError(f"{rec_id}: {len(windows)} windows, not the {n_windows} planned")
    write_gaze_csv(rec, out / "recordings" / f"{rec_id}.csv")
    entries = []
    for row, window_id in enumerate(windows.window_ids):
        attr = gen_proxy_attributions(windows, row, spec.attribution_mode, seed=attr_seed + row)
        write_attribution(attr, out / "attributions" / f"{window_id}.csv")
        entries.append(ManifestEntry(
            f"recordings/{rec_id}.csv", f"attributions/{window_id}.csv", window_id
        ))
    return truth, entries


def write_demo_corpus(out_dir, spec: CorpusSpec | None = None) -> Path:
    """Generate and write the demo corpus; returns the manifest path.

    Layout: recordings/*.csv, attributions/<window_id>.csv (aligned to
    the windows the default preprocessing produces), gt_events.csv, and
    manifest.json tying each attribution to its window.

    Each recording is written by write_recording, in a fork pool of one
    process per usable CPU, capped by the recordings (pipeline.pool_size),
    or in this process for one recording, one usable CPU or no fork; the
    bytes are the same either way. As positions are never missing, a recording has its
    plan's samples // window_len windows, so each recording's first
    attribution seed is fixed before any is generated. gt_events.csv and
    manifest.json are written in recording order once every recording is.
    """
    spec = spec or CorpusSpec()
    spec.validate()
    out = Path(out_dir)

    params = WindowParams(window_len=spec.window_len)
    sg = SavGolParams(params.sg_window, params.sg_order, 1 / spec.sampling_rate_hz)
    noise = spec.noise_velocity_sigma_dps
    sigma_pos = positional_noise_sigma(noise, sg) if noise > 0 else 0.0
    tasks = []
    attr_seed = spec.seed + 7919
    for i in range(spec.n_recordings):
        plan = random_plan(
            spec.seed + i,
            spec.duration_s,
            fixation_ms=spec.fixation_ms,
            saccade_ms=spec.saccade_ms,
            peak_velocity_dps=spec.peak_velocity_dps,
            noise_sigma_deg=sigma_pos,
            sampling_rate_hz=spec.sampling_rate_hz,
        )
        samples = sum(_segment_samples(seg.duration_ms, spec.sampling_rate_hz)
                      for seg in plan.segments)
        if samples < spec.window_len:
            raise ConfigError(
                f"duration_s {spec.duration_s:g} gives rec{i:02d} {samples} samples, "
                f"fewer than window_len {spec.window_len}: no evaluation window")
        n_windows = samples // spec.window_len
        tasks.append((i, plan, attr_seed, n_windows))
        attr_seed += n_windows
    for name in ("recordings", "attributions"):
        (out / name).mkdir(parents=True, exist_ok=True)

    workers = pool_size(spec.n_recordings, spec.n_recordings, parent_waits=True)
    with recording_map(partial(write_recording, out, spec, params), tasks, workers,
                       "synth") as results:
        written = list(results)
    write_ground_truth({f"rec{i:02d}": truth for i, (truth, _) in enumerate(written)},
                       out / "gt_events.csv")
    manifest = RunManifest(entries=[e for _, entries in written for e in entries],
                           base_dir=out, output_dir="out")
    manifest_path = out / "manifest.json"
    write_manifest(manifest, manifest_path)
    return manifest_path
