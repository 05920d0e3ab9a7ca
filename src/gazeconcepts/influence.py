"""Concept influence: overlap of concept masks with top-k attribution masks.

A concept segmentation S marks the samples of a window that belong to a
gaze concept (all saccade samples, all peak-phase samples, ...). A top-k
segmentation T marks the k steps with the highest channel-squashed
attribution values. The influence of the concept is the size-normalized
overlap

    c = (L / |S|) * (1 / k) * sum_i(S_i and T_i)

which is 1 in expectation for attribution placement that ignores the
concept, and above 1 for concepts the attributions concentrate on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .detect import FIXATION, SACCADE
from .dissect import PHASES, round_half_away
from .errors import ConfigError, EmptyConceptError

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


def topk_segmentation(squashed, k: int, window_id: str = "") -> TopKSegmentation:
    """Mask the k largest values; cutoff ties resolve to the lower index."""
    squashed = np.asarray(squashed, dtype=float)
    length = len(squashed)
    if not 1 <= k <= length:
        raise ConfigError(f"k must be in [1, {length}], got {k}")
    order = np.argsort(-squashed, kind="stable")
    mask = np.zeros(length, dtype=bool)
    mask[order[:k]] = True
    return TopKSegmentation(window_id=window_id, k=k, mask=mask)


def concept_segmentation(items, concept: str, length: int, window_id: str = ""):
    """Union of the items' inclusive index intervals as a binary mask.

    Items are events or sub-events carrying onset/offset; overlapping
    intervals count once.
    """
    mask = np.zeros(length, dtype=bool)
    for item in items:
        if not (0 <= item.onset <= item.offset < length):
            raise ConfigError(
                f"interval [{item.onset}, {item.offset}] outside window of length {length}"
            )
        mask[item.onset : item.offset + 1] = True
    return ConceptSegmentation(window_id=window_id, concept=concept, mask=mask)


def concept_influence(S: ConceptSegmentation, T: TopKSegmentation) -> InfluenceResult:
    """Top-k intersection and concept influence for one window.

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
    size = S.size
    if size == 0:
        raise EmptyConceptError(
            f"concept {S.concept!r} absent from window {S.window_id!r}"
        )
    intersection = int((S.mask & T.mask).sum())
    return InfluenceResult(
        concept=S.concept,
        scope="window",
        intersection=intersection,
        c=(S.length * intersection) / (size * T.k),
        L_total=S.length,
        S_total=size,
        k_total=T.k,
        window_id=S.window_id,
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
        concept=per_window[0].concept,
        scope="corpus",
        intersection=inter,
        c=(L * inter) / (S * k),
        L_total=L,
        S_total=S,
        k_total=k,
        c_mean=float(np.mean([r.c for r in per_window])),
        n_windows=len(per_window),
    )

