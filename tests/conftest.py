import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gazeconcepts.detect import _ek_thresholds
from gazeconcepts.io import write_attribution, write_gaze_csv
from gazeconcepts.preprocess import (
    SavGolParams,
    WindowParams,
    WindowStack,
    window_recording,
)
from gazeconcepts.synth import (
    gen_proxy_attributions,
    gen_scanpath,
    positional_noise_sigma,
    random_plan,
)


def build_window(vx, vy=None, px=None, py=None, window_id="w0000", valid=None,
                 sampling_rate_hz=1000.0):
    """A stack of one window straight from arrays (bypasses the SG chain)."""
    vx = np.asarray(vx, dtype=float)
    vy = np.zeros_like(vx) if vy is None else np.asarray(vy, dtype=float)
    px = np.zeros_like(vx) if px is None else np.asarray(px, dtype=float)
    py = np.zeros_like(vx) if py is None else np.asarray(py, dtype=float)
    if valid is None:
        valid = np.isfinite(vx) & np.isfinite(vy)
    return WindowStack(
        window_ids=[window_id],
        sampling_rate_hz=np.array([sampling_rate_hz]),
        vx=vx[None],
        vy=vy[None],
        px=px[None],
        py=py[None],
        valid=np.asarray(valid, dtype=bool)[None],
    )


def join_windows(*stacks):
    """One stack of the rows of equal-length stacks, in order (a copy)."""
    arrays = ("sampling_rate_hz", "vx", "vy", "px", "py", "valid")
    return WindowStack(
        sum((s.window_ids for s in stacks), []),
        *(np.concatenate([getattr(s, name) for s in stacks]) for name in arrays),
    )


def ek_thresholds(vx, vy, lam, eta_floor=1e-6, valid=None):
    """(eta_x, eta_y) of one window's velocities, from the batched
    thresholds of a stack of one row; valid defaults to where both
    components are finite."""
    vx = np.asarray(vx, dtype=float)
    vy = np.asarray(vy, dtype=float)
    if valid is None:
        valid = np.isfinite(vx) & np.isfinite(vy)
    eta_x, eta_y = _ek_thresholds(vx[None], vy[None], valid[None], lam, eta_floor)[0]
    return float(eta_x), float(eta_y)


def ground_truth_in_window(truth, start: int, length: int):
    """Ground-truth events fully contained in [start, start+length), in
    window coordinates."""
    return [replace(e, onset=e.onset - start, offset=e.offset - start)
            for e in truth if e.onset >= start and e.offset < start + length]


def pipeline_windows(rec, window_len=1000, missing_max_frac=0.5):
    """The production preprocess chain for a monocular recording."""
    return window_recording(rec.recording_id, rec.sampling_rate_hz, rec.x_deg, rec.y_deg,
                            WindowParams(window_len=window_len,
                                         missing_max_frac=missing_max_frac))


# (first sample, length) of the runs of missing samples in a gappy recording
MISSING_RUNS = ((0, 3), (57, 1), (118, 5), (200, 60), (399, 2), (520, 30), (1497, 3))


def write_gappy_recordings(root, n_recordings=2, seed=3, duration_s=1.5):
    """Monocular 1 kHz scanpath recordings rec00, rec01, ... in `root`
    whose coordinates are missing over MISSING_RUNS, written as empty
    cells; returns the recordings as written."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    recs = []
    for i in range(n_recordings):
        sigma = positional_noise_sigma(0.5, SavGolParams())
        rec, _ = gen_scanpath(random_plan(seed + i, duration_s, noise_sigma_deg=sigma),
                              seed + i, recording_id=f"rec{i:02d}")
        x, y = rec.x_deg.copy(), rec.y_deg.copy()
        for start, n in MISSING_RUNS:
            x[start : start + n] = y[start : start + n] = np.nan
        rec = replace(rec, eyes={"mono": (x, y)})
        path = root / f"{rec.recording_id}.csv"
        write_gaze_csv(rec, path)
        path.write_text(path.read_text().replace(",NaN,NaN", ",,"))
        recs.append(rec)
    return recs


def gappy_corpus(root, window_len=40):
    """A manifest over write_gappy_recordings with a uniform-random
    attribution map for each window the default preprocessing retains."""
    root = Path(root)
    entries = []
    for rec in write_gappy_recordings(root):
        windows, _ = pipeline_windows(rec, window_len)
        for row, window_id in enumerate(windows.window_ids):
            attr = gen_proxy_attributions(windows, row, "uniform_random", seed=len(entries))
            write_attribution(attr, root / f"{window_id}.csv")
            entries.append({"recording": f"{rec.recording_id}.csv",
                            "attribution": f"{window_id}.csv", "window_id": window_id})
    manifest = root / "manifest.json"
    manifest.write_text(json.dumps({"entries": entries}))
    return manifest


def raised_cosine_speeds(n, peak):
    """Speed samples of the generator's saccade profile."""
    return peak * np.sin(np.pi * np.arange(n) / n)


def match_events(truth, detected, tol=2):
    """Count ground-truth events recovered within +/- tol samples."""
    pool = [e for e in detected if not e.excluded]
    used = set()
    matched = 0
    for g in truth:
        for j, e in enumerate(pool):
            if j in used:
                continue
            if abs(e.onset - g.onset) <= tol and abs(e.offset - g.offset) <= tol:
                used.add(j)
                matched += 1
                break
    return matched


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def assert_close(a, b, rtol=1e-9, atol=0.0):
    assert math.isclose(a, b, rel_tol=rtol, abs_tol=atol), f"{a} != {b}"
