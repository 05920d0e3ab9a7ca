"""Output checks for one benchmark pass.

Each check reads the artifacts with the standard library only, so a
defect in gazeconcepts' own readers cannot hide one in its writers, and
returns a list of problems (empty when the pass is correct).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import statistics
from pathlib import Path

RECALL_MIN = 0.95
RECALL_TOL = 2  # samples, on both onset and offset
# Artifacts the staged chain recomputes from the same inputs as `run`
# and that must come out byte-identical.
STAGED_IDENTICAL = ("events.csv", "subevents.csv", "influence.csv")
PHASES = ("pre", "rise", "peak", "fall", "post")


def digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _concepts(out: Path) -> dict:
    return json.loads((out / "report.json").read_text(encoding="utf-8"))["concepts"]


def _rows(path: Path):
    with path.open(encoding="utf-8", newline="") as fh:
        yield from csv.DictReader(fh)


def detector_recall(out: Path, corpus: Path, window_len: int) -> dict:
    """Per kind, the share of ground-truth events that lie inside an
    evaluated window and match a retained detection within RECALL_TOL
    samples, matched greedily one-to-one as in the acceptance tests."""
    manifest = json.loads((corpus / "manifest.json").read_text(encoding="utf-8"))
    starts = {}  # window id -> (recording id, first sample)
    for entry in manifest["entries"]:
        rec, slot = entry["window_id"].rsplit("-w", 1)
        starts[entry["window_id"]] = (rec, int(slot) * window_len)

    truth = {}  # (recording, first sample, kind) -> [(onset, offset)]
    for row in _rows(corpus / "gt_events.csv"):
        onset, offset = int(row["onset"]), int(row["offset"])
        start = onset - onset % window_len
        if offset < start + window_len:
            truth.setdefault((row["recording_id"], start, row["kind"]), []).append(
                (onset - start, offset - start)
            )

    detected = {}
    for row in _rows(out / "events.csv"):
        if row["excluded"] == "false":
            detected.setdefault((row["window_id"], row["kind"]), []).append(
                (int(row["onset"]), int(row["offset"]))
            )

    found, total = {}, {}
    for window_id, (rec, start) in starts.items():
        for kind in ("fixation", "saccade"):
            pool = list(detected.get((window_id, kind), []))
            for onset, offset in truth.get((rec, start, kind), []):
                total[kind] = total.get(kind, 0) + 1
                for j, (d_on, d_off) in enumerate(pool):
                    if abs(d_on - onset) <= RECALL_TOL and abs(d_off - offset) <= RECALL_TOL:
                        found[kind] = found.get(kind, 0) + 1
                        del pool[j]
                        break
    return {kind: found.get(kind, 0) / n for kind, n in total.items()}


def check_speed_proxy(out: Path, corpus: Path, window_len: int) -> list:
    """Speed-proxy attributions: saccades dominate the top-k, fixations
    barely reach it, the peak phase leads, and the detector recovers the
    synthetic ground truth."""
    problems = []
    c = {name: v.get("c_pooled") for name, v in _concepts(out).items()}
    if not c.get("saccade", 0) > 1.0:
        problems.append(f"saccade c={c.get('saccade')} is not > 1")
    if not (c.get("fixation") is not None and c["fixation"] < 0.1):
        problems.append(f"fixation c={c.get('fixation')} is not < 0.1")
    phases = {p: c.get(f"saccade_{p}") or 0.0 for p in PHASES}
    if max(phases, key=phases.get) != "peak":
        problems.append(f"peak is not the largest phase: {phases}")
    recall = detector_recall(out, corpus, window_len)
    if set(recall) != {"fixation", "saccade"}:
        problems.append(f"no ground truth for some kinds: {recall}")
    for kind, rate in sorted(recall.items()):
        if rate < RECALL_MIN:
            problems.append(f"{kind} recall {rate:.4f} < {RECALL_MIN}")
    return problems


def check_uniform_calibration(out: Path) -> list:
    """Uniform-random attributions: every concept's c_mean is 1 within
    max(0.1, 5 standard errors of its per-window c values). With k=5 per
    250-sample window the small phase concepts have a standard error
    near 0.05, so a flat +/-0.1 band would fail about one seed in eight
    by chance alone."""
    per_window = {}
    for row in _rows(out / "influence.csv"):
        if row["scope"] == "window":
            per_window.setdefault(row["concept"], []).append(float(row["c"]))
    problems = []
    concepts = _concepts(out)
    if len(concepts) != 2 + len(PHASES):
        problems.append(f"expected {2 + len(PHASES)} concepts, got {sorted(concepts)}")
    for name, v in sorted(concepts.items()):
        values = per_window.get(name, [])
        if v.get("c_mean") is None or len(values) < 2:
            problems.append(f"{name}: no per-window influence")
            continue
        se = statistics.stdev(values) / math.sqrt(len(values))
        tol = max(0.1, 5.0 * se)
        if abs(v["c_mean"] - 1.0) > tol:
            problems.append(f"{name}: c_mean {v['c_mean']} outside 1 +/- {tol:.3f}")
    return problems


def divergent_artifacts(out: Path, reference: Path) -> list:
    """Artifacts of a `run` (run_log.json aside) whose bytes the staged
    chain does not reproduce."""
    diverged = []
    for ref in sorted(reference.rglob("*")):
        rel = ref.relative_to(reference)
        if ref.is_dir() or rel.name == "run_log.json":
            continue
        mine = out / rel
        if not mine.is_file() or mine.read_bytes() != ref.read_bytes():
            diverged.append(str(rel))
    return diverged


def check_staged(diverged: list) -> list:
    """The staged chain must reproduce STAGED_IDENTICAL byte for byte;
    the other divergences are reported as a count, not failed."""
    return [f"{name} differs from the run output" for name in STAGED_IDENTICAL if name in diverged]
