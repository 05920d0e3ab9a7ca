"""Concept influence: overlap of concept masks with top-k attribution masks.

A concept segmentation S marks the samples of a window that belong to a
gaze concept (all saccade samples, all peak-phase samples, ...). A top-k
segmentation T marks the k steps with the highest channel-squashed
attribution values. The influence of the concept is the size-normalized
overlap

    c = (L / |S|) * (1 / k) * sum_i(S_i and T_i)

which is 1 in expectation for attribution placement that ignores the
concept, and above 1 for concepts the attributions concentrate on.

Masks of many windows are computed at once as (n, L) arrays (segment_masks,
topk_masks), and a whole stack of windows is scored at once into one
InfluenceTable: |S| and |S and T| per window and concept as integer
arrays, from which c and the pooled corpus results are derived. The
one-window functions are batches of one.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .detect import FIXATION, SACCADE
from .dissect import PHASES, round_half_away
from .errors import ConfigError, EmptyConceptError
from .preprocess import outside_window

EVENT_CONCEPTS = (FIXATION, SACCADE)
PHASE_CONCEPTS = tuple(f"saccade_{p}" for p in PHASES)
ALL_CONCEPTS = EVENT_CONCEPTS + PHASE_CONCEPTS


@dataclass
class ConceptSegmentation:
    """Binary concept-presence mask over one window."""

    window_id: str
    concept: str
    mask: np.ndarray

    @property
    def size(self) -> int:
        return int(self.mask.sum())

    @property
    def length(self) -> int:
        return len(self.mask)


@dataclass
class TopKSegmentation:
    """Mask of the k highest-attribution steps of one window."""

    window_id: str
    k: int
    mask: np.ndarray

    @property
    def length(self) -> int:
        return len(self.mask)


@dataclass
class InfluenceResult:
    concept: str
    scope: str  # "window" or "corpus"
    intersection: int
    c: float
    L_total: int
    S_total: int
    k_total: int
    window_id: str = ""
    c_mean: float | None = None  # corpus scope: unweighted per-window mean
    n_windows: int = 1
    n_skipped: int = 0  # windows where the concept was absent


def squash_channels(attr, mode: str = "signed") -> np.ndarray:
    """Collapse a (D, L) attribution array to one value per step.

    "signed" takes the step-wise maximum of the raw values; "abs" takes
    the maximum of the absolute values.
    """
    values = np.asarray(attr.values if hasattr(attr, "values") else attr, dtype=float)
    if values.ndim == 1:
        values = values[None, :]
    if mode == "signed":
        return values.max(axis=0)
    if mode == "abs":
        return np.abs(values).max(axis=0)
    raise ConfigError(f"unknown squash mode {mode!r}")


def default_k(length: int, top_frac: float = 0.02) -> int:
    """k for a window of the given length: round(top_frac * L), at least 1."""
    if not 0 < top_frac <= 1:
        raise ConfigError(f"top_frac must be in (0, 1], got {top_frac}")
    return max(1, round_half_away(top_frac * length))


def topk_masks(squashed, k: int) -> np.ndarray:
    """(n, L) masks of the k largest values of each row of an (n, L)
    array; cutoff ties resolve to the lower index (stable sort)."""
    squashed = np.asarray(squashed, dtype=float)
    length = squashed.shape[1]
    if not 1 <= k <= length:
        raise ConfigError(f"k must be in [1, {length}], got {k}")
    order = np.argsort(-squashed, axis=1, kind="stable")[:, :k]
    mask = np.zeros(squashed.shape, dtype=bool)
    mask[np.arange(len(order))[:, None], order] = True
    return mask


def topk_segmentation(squashed, k: int, window_id: str = "") -> TopKSegmentation:
    """Mask the k largest values of one window (a batch of one for
    topk_masks)."""
    mask = topk_masks(np.asarray(squashed, dtype=float)[None], k)[0]
    return TopKSegmentation(window_id=window_id, k=k, mask=mask)


def segment_masks(rows, onsets, offsets, n_rows: int, length: int) -> np.ndarray:
    """Union of inclusive index intervals per row, as an (n_rows, length)
    mask: interval i is [onsets[i], offsets[i]] of row rows[i]. Overlapping
    intervals count once. ConfigError for the first interval outside the
    window.
    """
    outside = outside_window(onsets, offsets, length)
    if outside.any():
        i = int(np.argmax(outside))
        raise ConfigError(
            f"interval [{onsets[i]}, {offsets[i]}] outside window of length {length}"
        )
    # +1 where an interval opens, -1 after it closes: covered where the
    # running sum is positive
    diff = np.zeros((n_rows, length + 1), dtype=np.int32)
    np.add.at(diff, (rows, onsets), 1)
    np.add.at(diff, (rows, offsets + 1), -1)
    return np.cumsum(diff, axis=1, dtype=np.int32)[:, :length] > 0


def concept_segmentation(items, concept: str, length: int, window_id: str = ""):
    """Union of the inclusive index intervals of a table (anything with
    onset and offset columns) as a binary mask (a batch of one for
    segment_masks)."""
    rows = np.zeros(len(items.onset), dtype=np.int64)
    mask = segment_masks(rows, items.onset, items.offset, 1, length)[0]
    return ConceptSegmentation(window_id=window_id, concept=concept, mask=mask)


@dataclass
class InfluenceTable:
    """Window-scope influence of concepts over a stack of windows: row i
    is window window_ids[i], column j concept concepts[j]. Every window
    has `length` steps and a top-k mask of k steps; |S| and |S and T| are
    (n, len(concepts)) integer arrays, and c and the corpus results are
    derived from them."""

    concepts: tuple
    window_ids: list
    length: int
    k: int
    sizes: np.ndarray  # |S|
    intersections: np.ndarray  # |S and T|

    def __len__(self) -> int:
        return len(self.window_ids)

    @property
    def present(self) -> np.ndarray:
        """Where a concept occurs in a window (|S| > 0)."""
        return self.sizes > 0

    @property
    def c(self) -> np.ndarray:
        """(L * intersection) / (|S| * k) per window and concept, NaN where
        the concept is absent. For windows under 2**26 steps the integer
        products stay below 2**53, so the float division is bit-identical
        to Python's int / int."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return (self.length * self.intersections) / (self.sizes * self.k)

    def pooled(self) -> dict:
        """concept -> (corpus result or None, windows where it is absent).

        A corpus result pools the windows where the concept is present
        like aggregate_influence: the formula over column sums, and the
        unweighted mean of their c, in row order, as c_mean."""
        present = self.present
        n_present = present.sum(axis=0).tolist()
        sizes = self.sizes.sum(axis=0).tolist()
        intersections = self.intersections.sum(axis=0).tolist()
        c = self.c
        out = {}
        for j, concept in enumerate(self.concepts):
            n, skipped = n_present[j], len(self) - n_present[j]
            if n == 0:
                out[concept] = None, skipped
                continue
            L, S, k, inter = self.length * n, sizes[j], self.k * n, intersections[j]
            out[concept] = InfluenceResult(
                concept, "corpus", inter, (L * inter) / (S * k), L, S, k,
                c_mean=float(np.mean(c[present[:, j], j])), n_windows=n, n_skipped=skipped,
            ), skipped
        return out

    def rows(self) -> dict:
        """Every result as one list per InfluenceResult field, in table
        order: per concept its corpus row, then its window rows; absent
        concepts have no row. io.write_report puts them in report order."""
        ids = np.array(self.window_ids, dtype=object)
        c = self.c
        pooled = self.pooled()
        cols = {f.name: [] for f in fields(InfluenceResult)}
        for j, concept in enumerate(self.concepts):
            corpus, _ = pooled[concept]
            if corpus is None:
                continue
            rows = np.flatnonzero(self.present[:, j])
            n = len(rows)
            for name, values in cols.items():
                values.append(getattr(corpus, name))
            cols["concept"] += [concept] * n
            cols["scope"] += ["window"] * n
            cols["window_id"] += ids[rows].tolist()
            cols["L_total"] += [self.length] * n
            cols["S_total"] += self.sizes[rows, j].tolist()
            cols["k_total"] += [self.k] * n
            cols["intersection"] += self.intersections[rows, j].tolist()
            cols["c"] += c[rows, j].tolist()
            cols["c_mean"] += [None] * n
            cols["n_windows"] += [1] * n
            cols["n_skipped"] += [0] * n
        return cols


def influence_table(concepts, masks, topk, k: int, window_ids) -> InfluenceTable:
    """Score the (n, len(concepts), L) concept masks of n windows against
    their (n, L) top-k masks of k steps each, one concept at a time (no
    (n, len(concepts), L) temporary)."""
    n, m, length = masks.shape
    sizes = np.empty((n, m), dtype=np.int64)
    intersections = np.empty((n, m), dtype=np.int64)
    for j in range(m):
        sizes[:, j] = np.count_nonzero(masks[:, j], axis=1)
        intersections[:, j] = np.count_nonzero(masks[:, j] & topk, axis=1)
    return InfluenceTable(tuple(concepts), list(window_ids), length, k, sizes, intersections)


def concept_influence(S: ConceptSegmentation, T: TopKSegmentation) -> InfluenceResult:
    """Top-k intersection and concept influence for one window (a table
    of one window and one concept).

    The influence is evaluated as (L * intersection) / (|S| * k), which
    equals the defining formula exactly and keeps the arithmetic exact
    for integer counts.
    """
    if S.length != T.length:
        raise ConfigError(
            f"segmentation lengths differ: |S|={S.length} vs |T|={T.length}"
        )
    if S.window_id and T.window_id and S.window_id != T.window_id:
        raise ConfigError(f"window mismatch: {S.window_id} vs {T.window_id}")
    if S.size == 0:
        raise EmptyConceptError(
            f"concept {S.concept!r} absent from window {S.window_id!r}"
        )
    table = influence_table([S.concept], S.mask[None, None], T.mask[None], T.k, [S.window_id])
    size, inter = int(table.sizes[0, 0]), int(table.intersections[0, 0])
    return InfluenceResult(
        S.concept, "window", inter, float(table.c[0, 0]), S.length, size, T.k, S.window_id
    )


def aggregate_influence(per_window) -> InfluenceResult:
    """Pool per-window results for one concept into a corpus result.

    Pooled influence recomputes the formula over summed counts; the
    unweighted mean of per-window values is reported alongside in
    c_mean. Inputs must all carry the same concept label.
    """
    per_window = list(per_window)
    if not per_window:
        raise ConfigError("nothing to aggregate")
    concepts = {r.concept for r in per_window}
    if len(concepts) > 1:
        raise ConfigError(f"mixed concepts in aggregation: {sorted(concepts)}")
    L = sum(r.L_total for r in per_window)
    S = sum(r.S_total for r in per_window)
    k = sum(r.k_total for r in per_window)
    inter = sum(r.intersection for r in per_window)
    return InfluenceResult(
        per_window[0].concept, "corpus", inter, (L * inter) / (S * k), L, S, k,
        c_mean=float(np.mean([r.c for r in per_window])), n_windows=len(per_window),
    )

