import math
from dataclasses import replace

import numpy as np
import pytest

from gazeconcepts.detect import _ek_thresholds
from gazeconcepts.preprocess import (
    SavGolParams,
    WindowStack,
    clamp_velocities,
    savgol_derivative,
    window_sequence,
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
        recording_ids=["rec"],
        start_index=[0],
        sampling_rate_hz=np.array([sampling_rate_hz]),
        vx=vx[None],
        vy=vy[None],
        px=px[None],
        py=py[None],
        valid=np.asarray(valid, dtype=bool)[None],
    )


def join_windows(*stacks):
    """One stack of the rows of equal-length stacks, in order (a copy)."""
    lists = ("window_ids", "recording_ids", "start_index")
    arrays = ("sampling_rate_hz", "vx", "vy", "px", "py", "valid")
    return WindowStack(
        *(sum((getattr(s, name) for s in stacks), []) for name in lists),
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


def pipeline_windows(rec, window_len=1000, clamp=1000.0, sg=None):
    """The production preprocess chain for a monocular recording."""
    sg = sg or SavGolParams(dt_s=1.0 / rec.sampling_rate_hz)
    vx = clamp_velocities(savgol_derivative(rec.x_deg, sg), clamp)
    vy = clamp_velocities(savgol_derivative(rec.y_deg, sg), clamp)
    windows, summary = window_sequence(
        vx, vy, rec.x_deg, rec.y_deg, window_len,
        recording_id=rec.recording_id, sampling_rate_hz=rec.sampling_rate_hz,
    )
    return windows, summary


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
