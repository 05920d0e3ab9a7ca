"""End-to-end orchestration: preprocess, detect, dissect, influence, bin,
report.

The evaluation windows are stacked into (n, L) arrays once, and each
gaze-side step (detection, dissection, concept masks) runs over the
whole stack in one batched pass (analyse_windows). Each window's
attribution map is then parsed and scored by process_window, and
binning again runs per bin over the stacked top-k masks. Every reduction
happens in manifest order, so outputs do not depend on the accepted but
unused --jobs value. All artifacts are written at the end of a run; if
that fails, partial files are removed and an INCOMPLETE marker is left.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import binning as binning_mod
from . import io as gio
from . import report as report_mod
from .detect import SACCADE, DetectionParams, detect_events, retained
from .dissect import PHASES, check_ratios, dissect_saccades
from .errors import AlignmentError, ConfigError, DataError, GazeError
from .influence import (
    ALL_CONCEPTS,
    EVENT_CONCEPTS,
    PHASE_CONCEPTS,
    ConceptSegmentation,
    TopKSegmentation,
    aggregate_influence,
    default_k,
    influence_rows,
    segment_masks,
    squash_channels,
    topk_segmentation,
)
from .preprocess import (
    SavGolParams,
    WindowStack,
    clamp_velocities,
    compute_channel_stats,
    savgol_derivative,
    window_sequence,
    zscore_normalize,
)

VALIDITY_RANGES = {
    "saccade_duration_ms": lambda cfg: (cfg.sacc_min_duration_ms, cfg.sacc_max_duration_ms),
    "saccade_amplitude_deg": lambda cfg: None,
    "fixation_dispersion_deg": lambda cfg: (0.0, cfg.fix_max_dispersion_deg),
    "fixation_velocity_std": lambda cfg: (0.0, cfg.fix_max_velocity),
}

# allowed values of RunConfig's string fields
CHOICES = {
    "norm_scope": ("corpus", "recording", "none"),
    "eye": ("left", "right"),
    "squash": ("signed", "abs"),
    "aggregate": ("pooled", "mean", "both"),
    "bin_mode": ("width", "quantile", "explicit"),
    "format": ("csv", "json"),
}


@dataclass
class RunConfig:
    """Every tunable parameter of the pipeline, with its default."""

    # preprocess
    sg_window: int = 7
    sg_order: int = 2
    clamp: float = 1000.0
    window_len: int = 1000
    missing_max_frac: float = 0.5
    norm_scope: str = "corpus"
    eye: str = "right"  # eye picked from binocular recordings
    # detect
    fix_max_velocity: float = 20.0
    fix_min_duration_ms: float = 40.0
    fix_max_dispersion_deg: float = 2.7
    sacc_lambda: float = 6.0
    sacc_min_duration_ms: float = 9.0
    sacc_max_duration_ms: float = 100.0
    sacc_min_peak_velocity: float = 35.0
    sacc_max_peak_velocity: float = 1000.0
    eta_floor: float = 1e-6
    # dissect
    peak_ratio: float = 0.8
    flank_ratio: float = 1.0 / 3.0
    # influence
    top_frac: float = 0.02
    squash: str = "signed"
    aggregate: str = "both"
    # binning
    bins: int = 20
    bin_mode: str = "width"
    bin_edges: tuple = ()
    properties: tuple = tuple(sorted(binning_mod.PROPERTIES))
    # report
    format: str = "csv"  # influence table
    charts: bool = True
    # execution (accepted, no effect)
    jobs: int = 1

    def savgol_params(self, sampling_rate_hz: float) -> SavGolParams:
        return SavGolParams(self.sg_window, self.sg_order, 1.0 / sampling_rate_hz)

    def detection_params(self) -> DetectionParams:
        return DetectionParams(
            fix_max_velocity=self.fix_max_velocity,
            fix_min_duration_ms=self.fix_min_duration_ms,
            fix_max_dispersion_deg=self.fix_max_dispersion_deg,
            sacc_lambda=self.sacc_lambda,
            sacc_min_duration_ms=self.sacc_min_duration_ms,
            sacc_max_duration_ms=self.sacc_max_duration_ms,
            sacc_min_peak_velocity=self.sacc_min_peak_velocity,
            sacc_max_peak_velocity=self.sacc_max_peak_velocity,
            eta_floor=self.eta_floor,
        )

    def validate(self):
        for name, allowed in CHOICES.items():
            value = getattr(self, name)
            if value not in allowed:
                raise ConfigError(f"{name} must be {'/'.join(allowed)}, got {value!r}")
        for name, ok, rule in (
            ("clamp", self.clamp > 0, "positive"),
            ("window_len", self.window_len >= 1, ">= 1"),
            ("missing_max_frac", 0 <= self.missing_max_frac <= 1, "in [0, 1]"),
            ("jobs", self.jobs >= 1, ">= 1"),
        ):
            if not ok:
                raise ConfigError(f"{name} must be {rule}, got {getattr(self, name)}")
        try:
            SavGolParams(self.sg_window, self.sg_order).validate()
        except ConfigError as e:
            raise ConfigError(f"sg_window/sg_order: {e}") from None
        self.detection_params().validate()
        check_ratios(self.peak_ratio, self.flank_ratio)
        default_k(self.window_len, self.top_frac)
        for prop in self.properties:
            binning_mod.BinSpec(prop, self.bin_mode, self.bins, self.bin_edges).validate()

    def as_dict(self) -> dict:
        d = asdict(self)
        d["bin_edges"] = list(self.bin_edges)
        d["properties"] = list(self.properties)
        return d

    def analysis_dict(self) -> dict:
        """Parameter echo for the report: everything that shapes results
        (the execution-only jobs count is excluded so parallel runs stay
        byte-identical)."""
        d = self.as_dict()
        d.pop("jobs")
        return d


@contextmanager
def _stage(name: str):
    """Prefix errors with the pipeline stage that raised them."""
    try:
        yield
    except GazeError as e:
        raise type(e)(f"[stage {name}] {e}") from e
    except OSError as e:
        raise OSError(f"[stage {name}] {e}") from e


@dataclass
class PreprocessResult:
    windows: WindowStack  # evaluation windows, manifest order
    summaries: dict  # recording_id -> WindowingSummary
    channel_stats: dict  # scope label -> ChannelStats


@dataclass
class WindowBundle:
    """Everything computed per window before corpus-level reduction."""

    window_id: str
    fixations: list
    saccades: list
    dissections: list
    topk: object
    window_results: dict  # concept -> InfluenceResult | None (absent concept)


@dataclass
class RunResult:
    config: RunConfig
    preprocess: PreprocessResult
    bundles: list
    corpus_results: dict  # concept -> (InfluenceResult | None, skipped count)
    binned: dict  # property -> list[BinnedInfluence]
    counts: dict
    report_doc: dict
    out_dir: Path | None = None
    written: list = field(default_factory=list)


def preprocess_manifest(manifest, cfg: RunConfig) -> PreprocessResult:
    """Load manifest recordings, differentiate, clamp, and window them.

    The evaluation windows are gathered, in manifest order, into one
    stack that holds their only copy once the recordings are released.
    """
    recordings = {}
    for entry in manifest.entries:
        if entry.recording not in recordings:
            recordings[entry.recording] = gio.load_gaze_csv(manifest.resolve(entry.recording))

    located = {}  # window id -> (recording's stack, row)
    summaries = {}
    per_recording = {}
    for relpath, rec in recordings.items():
        mono = gio.select_eye(rec, cfg.eye if rec.eye == "binocular" else "mono")
        sg = cfg.savgol_params(mono.sampling_rate_hz)
        vx = clamp_velocities(savgol_derivative(mono.x_deg, sg), cfg.clamp)
        vy = clamp_velocities(savgol_derivative(mono.y_deg, sg), cfg.clamp)
        stack, summary = window_sequence(
            vx, vy, mono.x_deg, mono.y_deg, cfg.window_len,
            recording_id=mono.recording_id,
            sampling_rate_hz=mono.sampling_rate_hz,
            missing_max_frac=cfg.missing_max_frac,
        )
        summaries[mono.recording_id] = summary
        per_recording[mono.recording_id] = stack
        for row, window_id in enumerate(stack.window_ids):
            if window_id in located:
                raise DataError(f"window id {window_id!r} produced twice")
            located[window_id] = (stack, row)

    ordered = []
    for entry in manifest.entries:
        if entry.window_id not in located:
            raise AlignmentError(
                f"window_id {entry.window_id!r} does not resolve to any window "
                f"produced from the manifest recordings"
            )
        stack, row = located[entry.window_id]
        ordered.append(stack[row])
    windows = WindowStack.of(ordered)

    channel_stats = {}
    if cfg.norm_scope == "corpus" and len(windows):
        channel_stats["corpus"] = compute_channel_stats(windows)
    elif cfg.norm_scope == "recording":
        for rec_id, stack in sorted(per_recording.items()):
            if len(stack):
                channel_stats[rec_id] = compute_channel_stats(stack)
    return PreprocessResult(windows, summaries, channel_stats)


def normalized_windows(pre: PreprocessResult, cfg: RunConfig):
    """Z-scored copies of the evaluation windows (model-input parity)."""
    if cfg.norm_scope == "none":
        return list(pre.windows)
    out = []
    for w in pre.windows:
        stats = pre.channel_stats[
            "corpus" if cfg.norm_scope == "corpus" else w.recording_id
        ]
        out.append(zscore_normalize(w, stats))
    return out


def concept_masks(events_by_row, subs_by_row, length: int) -> np.ndarray:
    """(n, len(ALL_CONCEPTS), length) masks of every concept over n
    windows, concepts in ALL_CONCEPTS order: the retained events of each
    kind and the phase sub-events of the dissected saccades;
    events_by_row[r] and subs_by_row[r] belong to window r."""
    masks = [
        segment_masks(
            [[e for e in events if e.kind == kind and not e.excluded] for events in events_by_row],
            length,
        )
        for kind in EVENT_CONCEPTS
    ]
    masks += [
        segment_masks([[s for s in subs if s.phase == phase] for subs in subs_by_row], length)
        for phase in PHASES
    ]
    return np.stack(masks, axis=1)


def window_segmentations(window, events, sub_events) -> dict:
    """Concept masks for one window from its retained events and the
    phase sub-events of its dissected saccades (a batch of one for
    concept_masks)."""
    masks = concept_masks([events], [sub_events], window.length)[0]
    return {
        concept: ConceptSegmentation(window.window_id, concept, mask)
        for concept, mask in zip(ALL_CONCEPTS, masks)
    }


@dataclass
class GazeAnalysis:
    """The gaze side of one window: what does not depend on the model."""

    fixations: list
    saccades: list
    dissections: list
    masks: np.ndarray  # (len(ALL_CONCEPTS), L) concept masks


def analyse_windows(windows, cfg: RunConfig) -> list:
    """Detect, dissect and segment every window, each step in one batched
    pass over the stacked windows; one GazeAnalysis per window, in order."""
    windows = WindowStack.of(windows)
    detected = detect_events(windows, cfg.detection_params())
    dissections = dissect_saccades(
        [[s for s in saccades if not s.excluded] for _, saccades in detected],
        windows, cfg.peak_ratio, cfg.flank_ratio,
    )
    masks = concept_masks(
        [fixations + saccades for fixations, saccades in detected],
        [[s for d in row for s in d.sub_events] for row in dissections],
        windows.length,
    )
    return [
        GazeAnalysis(fixations, saccades, row_dissections, row_masks)
        for (fixations, saccades), row_dissections, row_masks in zip(
            detected, dissections, masks
        )
    ]


def window_topk(window, attribution_path, cfg: RunConfig) -> TopKSegmentation:
    """Top-k mask of the attribution map that explains one window."""
    attr = gio.load_attribution(attribution_path, window_id=window.window_id)
    gio.validate_attribution(attr, window)
    squashed = squash_channels(attr, cfg.squash)
    return topk_segmentation(
        squashed, default_k(window.length, cfg.top_frac), window.window_id
    )


def window_influence(masks, topk: TopKSegmentation) -> dict:
    """Influence of every concept on one window from its concept masks
    (concept_masks' row) and top-k mask; None where a concept is absent."""
    n = len(ALL_CONCEPTS)
    results = influence_rows(
        ALL_CONCEPTS, masks, topk.mask[None], [topk.k] * n, [topk.window_id] * n
    )
    return dict(zip(ALL_CONCEPTS, results))


def process_window(window, attribution_path, cfg: RunConfig, analysis=None) -> WindowBundle:
    """Detect, dissect and score one window against its attribution map.

    ``analysis`` is the window's GazeAnalysis when analyse_windows has
    already run over a whole stack; without it the gaze side is computed
    as a batch of one.
    """
    if analysis is None:
        (analysis,) = analyse_windows([window], cfg)
    topk = window_topk(window, attribution_path, cfg)
    return WindowBundle(
        window_id=window.window_id,
        fixations=analysis.fixations,
        saccades=analysis.saccades,
        dissections=analysis.dissections,
        topk=topk,
        window_results=window_influence(analysis.masks, topk),
    )


def _reduce_concepts(window_results) -> dict:
    """Per concept: (corpus result or None, windows where it is absent)."""
    out = {}
    for concept in ALL_CONCEPTS:
        present = [r[concept] for r in window_results if r[concept] is not None]
        skipped = len(window_results) - len(present)
        corpus = aggregate_influence(present) if present else None
        if corpus is not None:
            corpus.n_skipped = skipped
        out[concept] = (corpus, skipped)
    return out


def _exclusion_counts(events) -> dict:
    counts = {"retained": 0, "excluded": {}}
    for e in events:
        if e.excluded:
            counts["excluded"][e.exclusion_reason] = (
                counts["excluded"].get(e.exclusion_reason, 0) + 1
            )
        else:
            counts["retained"] += 1
    counts["excluded"] = dict(sorted(counts["excluded"].items()))
    return counts


def _bin_all(events, topk_by_window, cfg: RunConfig) -> dict:
    """Binned influence per configured property over retained events."""
    binned = {}
    for prop in cfg.properties:
        kind, attr = binning_mod.PROPERTIES[prop]
        pool = [e for e in events if e.kind == kind and math.isfinite(getattr(e, attr))]
        if not pool:
            binned[prop] = []
            continue
        spec = binning_mod.BinSpec(
            property=prop, mode=cfg.bin_mode, n_bins=cfg.bins, edges=cfg.bin_edges
        )
        validity = VALIDITY_RANGES[prop](cfg) if cfg.bin_mode == "width" else None
        bins = binning_mod.bin_events(pool, spec, validity_range=validity)
        binned[prop] = binning_mod.binned_influence(bins, spec, topk_by_window)
    return binned


def _preprocess_counts(pre: PreprocessResult) -> dict:
    """The windows and channel_stats blocks of the counts."""
    return {
        "windows": {
            "evaluated": len(pre.windows),
            "excluded_missing": sum(s.excluded for s in pre.summaries.values()),
            "tail_samples_discarded": sum(s.tail_samples for s in pre.summaries.values()),
        },
        "channel_stats": {
            scope: {
                "mean_x": stats.mean_x,
                "std_x": stats.std_x,
                "mean_y": stats.mean_y,
                "std_y": stats.std_y,
                "n": stats.n,
            }
            for scope, stats in sorted(pre.channel_stats.items())
        },
    }


def _dissection_counts(events, dissections) -> dict:
    """The dissection block of the counts."""
    disregarded = sum(d.disregarded for d in dissections)
    saccade_samples = sum(e.n_samples for e in retained(events) if e.kind == SACCADE)
    return {
        "saccades_dissected": len(dissections),
        "disregarded_samples": disregarded,
        "disregarded_fraction": (
            disregarded / saccade_samples if saccade_samples else 0.0
        ),
    }


def _counts(preprocess_counts: dict, events, dissection_counts: dict) -> dict:
    """The report's counts from the blocks each stage produces."""
    return {
        "windows": preprocess_counts["windows"],
        "events": {
            kind: _exclusion_counts([e for e in events if e.kind == kind])
            for kind in EVENT_CONCEPTS
        },
        "dissection": dissection_counts,
        "channel_stats": preprocess_counts["channel_stats"],
    }


def write_influence(window_results, corpus_results, out_dir, cfg: RunConfig) -> Path:
    """Write the per-window and corpus influence table."""
    rows = [r for per_window in window_results for r in per_window.values() if r is not None]
    rows += [corpus for corpus, _ in corpus_results.values() if corpus is not None]
    path = Path(out_dir) / f"influence.{cfg.format}"
    gio.write_report(rows, path, cfg.format)
    return path


def write_charts(out_dir, cfg: RunConfig, corpus_results=None, binned=None):
    """Draw the charts that the given results support, yielding each path:
    concept and phase bar charts from corpus results, one line chart per
    binned property."""
    if not cfg.charts:
        return
    charts_dir = Path(out_dir) / "charts"
    charts_dir.mkdir(exist_ok=True)
    value_attr = "c_mean" if cfg.aggregate == "mean" else "c"
    corpus_results = corpus_results or {}
    for name, concepts, title in (
        ("concepts.svg", EVENT_CONCEPTS, "concept influence"),
        ("phases.svg", PHASE_CONCEPTS, "saccade phase influence"),
    ):
        results = [corpus_results.get(c, (None, 0))[0] for c in concepts]
        results = [r for r in results if r is not None]
        if results:
            report_mod.render_bar_chart(results, charts_dir / name, value_attr, title=title)
            yield charts_dir / name
    for prop, rows in sorted((binned or {}).items()):
        if any(b.label == "bin" and b.influence is not None for b in rows):
            path = charts_dir / f"by_{prop}.svg"
            report_mod.render_line_chart(rows, path, value_attr)
            yield path


def run(manifest, cfg: RunConfig, out_dir) -> RunResult:
    """Execute the full pipeline for a manifest and write all artifacts."""
    cfg.validate()
    out_dir = Path(out_dir)

    with _stage("preprocess"):
        pre = preprocess_manifest(manifest, cfg)
        if not pre.windows:
            raise DataError("manifest yields no evaluation windows")

    with _stage("influence"):
        attr_paths = [manifest.resolve(e.attribution) for e in manifest.entries]
        for p in attr_paths:
            if not p.exists():
                raise OSError(f"attribution file not found: {p}")
        analyses = analyse_windows(pre.windows, cfg)
        bundles = [
            process_window(window, path, cfg, analysis)
            for window, path, analysis in zip(pre.windows, attr_paths, analyses)
        ]
        corpus_results = _reduce_concepts([b.window_results for b in bundles])

    events = [e for b in bundles for e in b.fixations + b.saccades]
    with _stage("binning"):
        binned = _bin_all(retained(events), {b.window_id: b.topk for b in bundles}, cfg)

    with _stage("report"):
        dissections = [d for b in bundles for d in b.dissections]
        counts = _counts(
            _preprocess_counts(pre), events, _dissection_counts(events, dissections)
        )
        report_doc = report_mod.summarize(
            cfg.analysis_dict(), counts, corpus_results, binned
        )

    result = RunResult(cfg, pre, bundles, corpus_results, binned, counts, report_doc)
    write_artifacts(result, out_dir)
    return result


def write_artifacts(result: RunResult, out_dir: Path):
    """Write every run artifact; on failure remove partial outputs and
    leave an INCOMPLETE marker naming the error."""
    out_dir = Path(out_dir)
    cfg = result.config
    written = []
    try:
        with _stage("report"):
            out_dir.mkdir(parents=True, exist_ok=True)
            events = [e for b in result.bundles for e in b.fixations + b.saccades]
            path = out_dir / "events.csv"
            gio.write_events(events, path)
            written.append(path)

            subs = [s for b in result.bundles for d in b.dissections for s in d.sub_events]
            path = out_dir / "subevents.csv"
            gio.write_subevents(subs, path)
            written.append(path)

            window_results = [b.window_results for b in result.bundles]
            path = write_influence(window_results, result.corpus_results, out_dir, cfg)
            written.append(path)

            path = out_dir / "binned.csv"
            binning_mod.write_binned(result.binned, path)
            written.append(path)

            path = out_dir / "report.json"
            report_mod.write_report_json(result.report_doc, path)
            written.append(path)

            for path in write_charts(out_dir, cfg, result.corpus_results, result.binned):
                written.append(path)

            run_log = {
                "parameters": cfg.as_dict(),
                "counts": result.counts,
                "outputs": [str(p.relative_to(out_dir)) for p in written],
            }
            path = out_dir / "run_log.json"
            path.write_text(json.dumps(run_log, indent=2, default=float) + "\n", encoding="utf-8")
            written.append(path)
    except BaseException as e:
        for p in written:
            try:
                p.unlink()
            except OSError:
                pass
        try:
            (out_dir / "INCOMPLETE").write_text(f"{e}\n", encoding="utf-8")
        except OSError:
            pass
        raise
    result.out_dir = out_dir
    result.written = written
