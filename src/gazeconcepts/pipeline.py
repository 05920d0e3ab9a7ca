"""End-to-end orchestration: preprocess, detect, dissect, influence, bin,
report.

Each stage has one function, which `run` chains and the staged
subcommands call: preprocess_manifest, detect_windows, dissect_windows,
score_windows and _bin_all. The evaluation windows are stacked into
(n, L) arrays once. Events and sub-events are columnar tables
(detect.EventTable, dissect.SubEventTable): equal-length arrays with a
window row, a kind or phase code and an interval per entry, which every
later step (dissection, concept masks, binning, counts, the CSV writers)
reads column by column. What is per window stays per window:
process_window parses a window's attribution map, validates it and takes
its top-k mask. Scoring is per stack: score_windows stacks the top-k
masks into one (n, L) array and counts every concept against it at once
into one InfluenceTable, from which influence.csv, the corpus results and
the binned influence are read. Every reduction happens in manifest order, so
outputs do not depend on the accepted but unused --jobs value. All
artifacts are written at the end of a run; if that fails, partial files
are removed and an INCOMPLETE marker is left."""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import binning as binning_mod
from . import io as gio
from . import report as report_mod
from .detect import (
    KINDS,
    SACCADE,
    DetectionParams,
    EventTable,
    detect_events,
    exclusion_reason,
    retained,
)
from .dissect import PHASES, SubEventTable, check_ratios, dissect_saccades
from .errors import AlignmentError, ConfigError, DataError, GazeError
from .influence import (
    ALL_CONCEPTS,
    EVENT_CONCEPTS,
    PHASE_CONCEPTS,
    ConceptSegmentation,
    InfluenceTable,
    TopKSegmentation,
    default_k,
    influence_table,
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
        return DetectionParams(**{f.name: getattr(self, f.name) for f in fields(DetectionParams)})

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
class RunResult:
    config: RunConfig
    preprocess: PreprocessResult
    events: EventTable  # every window's fixations then saccades, manifest order
    subevents: SubEventTable  # phases of the retained saccades, manifest order
    topk: np.ndarray  # (n, L) top-k masks, manifest order
    influence: InfluenceTable  # every window and concept, manifest order
    corpus_results: dict  # concept -> (InfluenceResult | None, skipped count)
    binned: dict  # property -> list[BinnedInfluence]
    counts: dict
    report_doc: dict
    out_dir: Path | None = None
    written: list = field(default_factory=list)


def preprocess_manifest(manifest, cfg: RunConfig) -> PreprocessResult:
    """Load manifest recordings, differentiate, clamp, and window them.

    Recordings are loaded one at a time and released once windowed. The
    evaluation windows are then gathered, in manifest order, into one
    stack one field at a time, each field of the per-recording windows
    released once gathered: at most one field is ever held twice.
    """
    located = {}  # window id -> (recording id, row)
    summaries = {}
    per_recording = {}
    channel_stats = {}
    for relpath in dict.fromkeys(entry.recording for entry in manifest.entries):
        rec = gio.load_gaze_csv(manifest.resolve(relpath))
        mono = gio.select_eye(rec, cfg.eye if rec.eye == "binocular" else "mono")
        sg = cfg.savgol_params(mono.sampling_rate_hz)
        stack, summary = window_sequence(
            clamp_velocities(savgol_derivative(mono.x_deg, sg), cfg.clamp),
            clamp_velocities(savgol_derivative(mono.y_deg, sg), cfg.clamp),
            mono.x_deg, mono.y_deg, cfg.window_len,
            recording_id=mono.recording_id,
            sampling_rate_hz=mono.sampling_rate_hz,
            missing_max_frac=cfg.missing_max_frac,
        )
        rec_id = mono.recording_id
        del rec, mono
        summaries[rec_id] = summary
        per_recording[rec_id] = stack
        for row, window_id in enumerate(stack.window_ids):
            if window_id in located:
                raise DataError(f"window id {window_id!r} produced twice")
            located[window_id] = (rec_id, row)
        if cfg.norm_scope == "recording" and len(stack):
            channel_stats[rec_id] = compute_channel_stats(stack)

    order = []
    for entry in manifest.entries:
        if entry.window_id not in located:
            raise AlignmentError(
                f"window_id {entry.window_id!r} does not resolve to any window "
                f"produced from the manifest recordings"
            )
        order.append(located[entry.window_id])
    windows = _gather(per_recording, order, cfg.window_len)
    if cfg.norm_scope == "corpus" and len(windows):
        channel_stats["corpus"] = compute_channel_stats(windows)
    return PreprocessResult(windows, summaries, dict(sorted(channel_stats.items())))


def _gather(stacks: dict, order, length: int) -> WindowStack:
    """Rows of per-recording stacks, ``order`` [(recording id, row)], as one
    stack, built one array field at a time; each field of ``stacks`` is
    dropped once gathered."""
    picked = [(stacks[rec_id], row) for rec_id, row in order]

    def gather(name):
        return [getattr(stack, name)[row] for stack, row in picked]

    columns = {name: gather(name) for name in ("window_ids", "recording_ids", "start_index")}
    columns["sampling_rate_hz"] = np.array(gather("sampling_rate_hz"), dtype=float)
    for name in ("vx", "vy", "px", "py", "valid"):
        dtype = bool if name == "valid" else float
        columns[name] = np.array(gather(name), dtype=dtype).reshape(len(order), length)
        for stack in stacks.values():
            setattr(stack, name, None)
    return WindowStack(**columns)


def normalized_windows(pre: PreprocessResult, cfg: RunConfig) -> WindowStack:
    """A z-scored copy of the evaluation windows (model-input parity), or
    the windows themselves under norm_scope "none"."""
    if cfg.norm_scope == "none":
        return pre.windows
    scopes = pre.windows.recording_ids
    if cfg.norm_scope == "corpus":
        scopes = ["corpus"] * len(pre.windows)
    return zscore_normalize(pre.windows, [pre.channel_stats[scope] for scope in scopes])


def concept_masks(events: EventTable, subs: SubEventTable, length: int) -> np.ndarray:
    """(n, len(ALL_CONCEPTS), length) masks of every concept over the n
    windows of events.window_ids, concepts in ALL_CONCEPTS order: the
    retained events of each kind and the phase segments of ``subs``."""
    kept = retained(events)
    groups = [(kept.row, kept, kept.kind == code) for code in range(len(KINDS))]
    groups += [(subs.row, subs, subs.phase == code) for code in range(len(PHASES))]
    n = len(events.window_ids)
    masks = np.empty((n, len(ALL_CONCEPTS), length), dtype=bool)
    for i, (rows, table, at) in enumerate(groups):
        masks[:, i] = segment_masks(rows[at], table.onset[at], table.offset[at], n, length)
    return masks


def window_segmentations(window: WindowStack, events: EventTable,
                         sub_events: SubEventTable) -> dict:
    """Concept masks for a stack of one window from its retained events
    and the phase segments of its dissected saccades (a batch of one for
    concept_masks)."""
    masks = concept_masks(events, sub_events, window.length)[0]
    return {
        concept: ConceptSegmentation(window.window_ids[0], concept, mask)
        for concept, mask in zip(ALL_CONCEPTS, masks)
    }


def detect_windows(windows: WindowStack, cfg: RunConfig) -> EventTable:
    """Every window's fixations then its saccades, excluded events
    included: both detectors in one batched pass over the stack."""
    return detect_events(windows, cfg.detection_params())


def dissect_windows(windows: WindowStack, events: EventTable, cfg: RunConfig) -> SubEventTable:
    """The phase segments of every retained saccade, all in one batched
    pass; events.row indexes the rows of ``windows``."""
    saccades = events.take(events.is_kind(SACCADE) & ~events.excluded)
    return dissect_saccades(saccades, windows, cfg.peak_ratio, cfg.flank_ratio)


def process_window(window_id: str, length: int, attribution_path,
                   cfg: RunConfig) -> TopKSegmentation:
    """The top-k mask of one window of `length` samples: its attribution
    map parsed, validated against the window's length and squashed."""
    attr = gio.load_attribution(attribution_path, window_id=window_id)
    gio.validate_attribution(attr, length)
    return topk_segmentation(
        squash_channels(attr, cfg.squash), default_k(length, cfg.top_frac), window_id
    )


def score_windows(windows: WindowStack, attribution_paths, events: EventTable,
                  subs: SubEventTable, cfg: RunConfig):
    """((n, L) top-k masks, InfluenceTable) of every window: the concept
    masks of the whole stack in one batched pass, one process_window call
    per window, in order, then every concept scored on the whole stack."""
    masks = concept_masks(events, subs, windows.length)
    topk = np.zeros((len(windows), windows.length), dtype=bool)
    for row, (window_id, path) in enumerate(zip(windows.window_ids, attribution_paths)):
        topk[row] = process_window(window_id, windows.length, path, cfg).mask
    k = default_k(windows.length, cfg.top_frac)
    return topk, influence_table(ALL_CONCEPTS, masks, topk, k, windows.window_ids)


def _exclusion_counts(events: EventTable) -> dict:
    codes, counts = np.unique(events.exclusion, return_counts=True)
    excluded = {exclusion_reason(c): n for c, n in zip(codes.tolist(), counts.tolist()) if c}
    return {
        "retained": int((events.exclusion == 0).sum()),
        "excluded": dict(sorted(excluded.items())),
    }


def _bin_all(events: EventTable, topk, k: int, cfg: RunConfig) -> dict:
    """Binned influence per configured property over retained events,
    against the (n, L) top-k masks of k steps of events.window_ids."""
    binned = {}
    for prop in cfg.properties:
        kind, attr = binning_mod.PROPERTIES[prop]
        pool = events.take(events.is_kind(kind) & np.isfinite(getattr(events, attr)))
        if not len(pool):
            binned[prop] = []
            continue
        spec = binning_mod.BinSpec(
            property=prop, mode=cfg.bin_mode, n_bins=cfg.bins, edges=cfg.bin_edges
        )
        validity = VALIDITY_RANGES[prop](cfg) if cfg.bin_mode == "width" else None
        bins = binning_mod.bin_events(pool, spec, validity_range=validity)
        binned[prop] = binning_mod.binned_influence(bins, spec, topk, k)
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


def _dissection_counts(subs: SubEventTable) -> dict:
    """The dissection block of the counts, from the sub-events of every
    retained saccade."""
    disregarded = int(subs.disregarded.sum())
    saccade_samples = int((subs.events.offset - subs.events.onset + 1).sum())
    return {
        "saccades_dissected": len(subs.events),
        "disregarded_samples": disregarded,
        "disregarded_fraction": (
            disregarded / saccade_samples if saccade_samples else 0.0
        ),
    }


def _counts(preprocess_counts: dict, events: EventTable, dissection_counts: dict) -> dict:
    """The report's counts from the blocks each stage produces."""
    return {
        "windows": preprocess_counts["windows"],
        "events": {
            kind: _exclusion_counts(events.take(events.is_kind(kind)))
            for kind in EVENT_CONCEPTS
        },
        "dissection": dissection_counts,
        "channel_stats": preprocess_counts["channel_stats"],
    }


def write_influence(table: InfluenceTable, out_dir, cfg: RunConfig) -> Path:
    """Write the per-window and corpus influence table, a column at a time."""
    path = Path(out_dir) / f"influence.{cfg.format}"
    gio.write_report(table.rows(), path, cfg.format)
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

    with _stage("detect"):
        events = detect_windows(pre.windows, cfg)

    with _stage("dissect"):
        subs = dissect_windows(pre.windows, events, cfg)

    with _stage("influence"):
        attr_paths = [manifest.resolve(e.attribution) for e in manifest.entries]
        for p in attr_paths:
            if not p.exists():
                raise OSError(f"attribution file not found: {p}")
        topk, table = score_windows(pre.windows, attr_paths, events, subs, cfg)
        corpus_results = table.pooled()

    with _stage("binning"):
        binned = _bin_all(retained(events), topk, table.k, cfg)

    with _stage("report"):
        counts = _counts(
            _preprocess_counts(pre), events, _dissection_counts(subs)
        )
        report_doc = report_mod.summarize(
            cfg.analysis_dict(), counts, corpus_results, binned
        )

    result = RunResult(
        cfg, pre, events, subs, topk, table, corpus_results, binned,
        counts, report_doc,
    )
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

            def write(name, writer, value):
                writer(value, out_dir / name)
                written.append(out_dir / name)

            write("events.csv", gio.write_events, result.events)
            write("subevents.csv", gio.write_subevents, result.subevents)
            written.append(write_influence(result.influence, out_dir, cfg))
            write("binned.csv", binning_mod.write_binned, result.binned)
            write("report.json", report_mod.write_report_json, result.report_doc)
            written += write_charts(out_dir, cfg, result.corpus_results, result.binned)

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
