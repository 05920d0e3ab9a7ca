"""End-to-end orchestration: preprocess, detect, dissect, influence, bin,
report.

preprocess_manifest windows the recordings. Every later stage is one
step of STEPS, which takes the values of the earlier stages keyed by
RunResult's field names and returns its own, and one branch of
write_stage, which writes the stage's table and charts. `run` chains
them in memory; a staged subcommand reads its inputs back from the stage
files. Every step takes the RunConfig whole, which extends
preprocess.WindowParams and detect.DetectionParams. The evaluation
windows are stacked into (n, L) arrays once. Events and sub-events are
columnar tables (detect.EventTable, dissect.SubEventTable):
equal-length arrays with a window row, a kind or phase code and an
interval per entry, read column by column. process_window parses a
window's attribution map, validates it and takes its top-k mask;
score_windows stacks the masks into one (n, L) array and counts every
concept against it at once into one InfluenceTable, from which
influence.csv, the corpus results and the binned influence are read.
Every reduction happens in manifest order, so outputs do not depend on
the accepted but unused --jobs value. `run` first clears OUTPUT_FILES
and charts/ from the output directory, as preprocess does. A failed
write removes the files it began, and `run` then leaves an INCOMPLETE
marker."""

from __future__ import annotations

import json
import shutil
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass, fields
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
from .errors import AlignmentError, ConfigError, DataError, GazeError, SizeError
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
    EYES,
    PreprocessResult,
    WindowParams,
    WindowStack,
    compute_channel_stats,
    gather_windows,
    window_recording,
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
    "eye": EYES,
    "squash": ("signed", "abs"),
    "bin_mode": ("width", "quantile", "explicit"),
}


# fields are collected from the last base first: WindowParams', then DetectionParams'
@dataclass(frozen=True)
class RunConfig(DetectionParams, WindowParams):
    """Every tunable parameter of the pipeline, with its default: the
    preprocess and detect ones from its bases, then its own."""

    # dissect
    peak_ratio: float = 0.8
    flank_ratio: float = 1.0 / 3.0
    # influence
    top_frac: float = 0.02
    squash: str = "signed"
    # binning
    bins: int = 20
    bin_mode: str = "width"
    bin_edges: tuple = ()
    properties: tuple = tuple(sorted(binning_mod.PROPERTIES))
    # report
    charts: bool = True
    # execution (accepted, no effect)
    jobs: int = 1

    def validate(self):
        for name, allowed in CHOICES.items():
            value = getattr(self, name)
            if value not in allowed:
                raise ConfigError(f"{name} must be {'/'.join(allowed)}, got {value!r}")
        if not self.jobs >= 1:
            raise ConfigError(f"jobs must be >= 1, got {self.jobs}")
        WindowParams.validate(self)
        DetectionParams.validate(self)
        check_ratios(self.peak_ratio, self.flank_ratio)
        default_k(self.window_len, self.top_frac)
        for prop in self.properties:
            binning_mod.BinSpec(prop, self.bin_mode, self.bins, self.bin_edges).validate()

    def analysis_dict(self) -> dict:
        """Parameter echo for the report: everything that shapes results
        (the execution-only jobs count is excluded so parallel runs stay
        byte-identical)."""
        d = asdict(self)
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


def require_windows(manifest):
    """DataError for a manifest of no entries: it yields no evaluation
    windows, as each entry names one window or fails preprocessing."""
    if not manifest.entries:
        raise DataError("manifest yields no evaluation windows")


def preprocess_manifest(manifest, cfg: RunConfig, parsed=None) -> PreprocessResult:
    """Load the manifest recordings one at a time, window each and gather
    the evaluation windows in manifest order. Positions are released once
    windowed, unless ``parsed`` is given: it is called with every
    recording's (recording id, sampling rate, x, y) before the gathering,
    so no position outlives its windows (the windows stage file)."""
    summaries, stacks, positions, sources, produced = {}, [], [], {}, {}
    paths, first_spelling = {}, {}  # each file once, however the manifest spells its path
    for relpath in dict.fromkeys(entry.recording for entry in manifest.entries):
        first_spelling[relpath] = paths.setdefault(manifest.resolve(relpath).resolve(), relpath)
    for relpath in paths.values():
        path = manifest.resolve(relpath)
        rec = gio.load_gaze_csv(path)
        mono = gio.select_eye(rec, cfg.eye if rec.eye == "binocular" else "mono")
        positions.append((mono.recording_id, mono.sampling_rate_hz, mono.x_deg, mono.y_deg))
        del rec, mono
        rec_id = positions[-1][0]
        if rec_id in sources:
            raise DataError(f"{sources[rec_id]} and {path} have one recording id {rec_id!r}")
        sources[rec_id] = path
        try:
            stack, summaries[rec_id] = window_recording(*positions[-1], cfg)
        except SizeError as e:
            raise SizeError(f"{path}: {e}") from None
        if parsed is None:
            positions.clear()
        stacks.append(stack)
        produced[relpath] = summaries[rec_id], set(stack.window_ids)
    for entry in manifest.entries:
        s, window_ids = produced[first_spelling[entry.recording]]
        if entry.window_id not in window_ids:
            raise AlignmentError(
                f"{manifest.resolve(entry.recording)}: window_id {entry.window_id!r} is not "
                f"among the windows of this recording ({s.retained} retained, {s.excluded} "
                f"excluded with more than {cfg.missing_max_frac:g} of their samples "
                f"missing, {s.tail_samples} tail samples)")
    if parsed is not None:
        parsed(positions)
    del positions
    windows = gather_windows(stacks, [e.window_id for e in manifest.entries], cfg.window_len)
    params = WindowParams(**{f.name: getattr(cfg, f.name) for f in fields(WindowParams)})
    return PreprocessResult(windows, summaries, params)


def normalized_windows(pre: PreprocessResult) -> WindowStack:
    """A copy of the evaluation windows z-scored by their corpus channel
    stats (model-input parity; no stage uses it)."""
    stats = compute_channel_stats(pre.windows)
    return zscore_normalize(pre.windows, [stats] * len(pre.windows))


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


def dissect_windows(windows: WindowStack, events: EventTable, cfg: RunConfig) -> SubEventTable:
    """The phase segments of every retained saccade, all in one batched
    pass; events.row indexes the rows of ``windows``."""
    return dissect_saccades(retained(events, SACCADE), windows, cfg.peak_ratio, cfg.flank_ratio)


def process_window(window_id: str, length: int, attribution_path,
                   cfg: RunConfig) -> TopKSegmentation:
    """The top-k mask of one window of `length` samples: its attribution
    map parsed, validated against the window's length and squashed."""
    attr = gio.load_attribution(attribution_path, window_id=window_id)
    try:
        gio.validate_attribution(attr, length)
    except AlignmentError as e:
        raise AlignmentError(f"{attribution_path}: {e}") from None
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


def _counts(pre: PreprocessResult, events: EventTable, subs: SubEventTable) -> dict:
    """The report's counts: windows, events by kind, and the dissection
    of every retained saccade."""
    disregarded = int(subs.disregarded.sum())
    saccade_samples = int((subs.events.offset - subs.events.onset + 1).sum())
    return {
        "windows": {
            "evaluated": len(pre.windows),
            "excluded_missing": sum(s.excluded for s in pre.summaries.values()),
            "tail_samples_discarded": sum(s.tail_samples for s in pre.summaries.values()),
        },
        "events": {
            kind: _exclusion_counts(events.take(events.is_kind(kind)))
            for kind in EVENT_CONCEPTS
        },
        "dissection": {
            "saccades_dissected": len(subs.events),
            "disregarded_samples": disregarded,
            "disregarded_fraction": disregarded / saccade_samples if saccade_samples else 0.0,
        },
    }


def detect_step(v: dict, cfg: RunConfig, manifest) -> dict:
    """Every window's fixations then saccades."""
    return {"events": detect_events(v["preprocess"].windows, cfg)}


def dissect_step(v: dict, cfg: RunConfig, manifest) -> dict:
    """The phase segments of every retained saccade."""
    return {"subevents": dissect_windows(v["preprocess"].windows, v["events"], cfg)}


def influence_step(v: dict, cfg: RunConfig, manifest) -> dict:
    """The top-k masks and every concept's influence, per window and
    pooled, after checking that every attribution file exists."""
    attribution_paths = [manifest.resolve(e.attribution) for e in manifest.entries]
    for p in attribution_paths:
        if not p.exists():
            raise OSError(f"attribution file not found: {p}")
    topk, table = score_windows(v["preprocess"].windows, attribution_paths, v["events"],
                                v["subevents"], cfg)
    return {"topk": topk, "influence": table, "corpus_results": table.pooled()}


def bin_step(v: dict, cfg: RunConfig, manifest) -> dict:
    """The binned influence of every configured property."""
    k = default_k(v["preprocess"].windows.length, cfg.top_frac)
    return {"binned": _bin_all(retained(v["events"]), v["topk"], k, cfg)}


def report_step(v: dict, cfg: RunConfig, manifest) -> dict:
    """The counts and the report document, which echoes the window
    parameters that cut the windows."""
    counts = _counts(v["preprocess"], v["events"], v["subevents"])
    params = {**cfg.analysis_dict(), **asdict(v["preprocess"].params)}
    return {"counts": counts,
            "report_doc": report_mod.summarize(params, counts, v["corpus_results"], v["binned"])}


# the step of each stage after preprocess, in chain order
STEPS = {"detect": detect_step, "dissect": dissect_step, "influence": influence_step,
         "bin": bin_step, "report": report_step}
# the table of each stage; charts go to charts/
TABLES = {"preprocess": "windows.npz", "detect": "events.csv", "dissect": "subevents.csv",
          "influence": "influence.csv", "bin": "binned.csv", "report": "report.json"}
# every file run and the staged chain write but the charts; topk.npz is
# written by staged influence alone, as only staged bin reads it
OUTPUT_FILES = (*TABLES.values(), "topk.npz", "run_log.json", "INCOMPLETE")


def clear_outputs(out_dir: Path):
    """Create out_dir if need be and remove every OUTPUT_FILES file and
    charts/ from it, so nothing of an earlier run outlives a new one."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in OUTPUT_FILES:
        (out_dir / name).unlink(missing_ok=True)
    if (out_dir / "charts").is_dir():
        shutil.rmtree(out_dir / "charts")


def write_stage(stage: str, v: dict, cfg: RunConfig, out_dir: Path, written: list):
    """Write the table and then the charts of `stage` from its values
    into out_dir. Each path joins `written` before its file is begun, so
    that removed_on_failure can remove every file of a failed stage."""
    def write(name, writer, value, *more):
        path = out_dir / name
        path.parent.mkdir(exist_ok=True)
        written.append(path)
        writer(value, path, *more)

    if stage == "influence":
        write(TABLES[stage], gio.write_report, v["influence"].rows())
        for name, concepts, title in (("concepts.svg", EVENT_CONCEPTS, "concept influence"),
                                      ("phases.svg", PHASE_CONCEPTS, "saccade phase influence")):
            results = [r for r, _ in map(v["corpus_results"].get, concepts) if r is not None]
            if cfg.charts and results:
                write(f"charts/{name}", report_mod.render_bar_chart, results, title)
    elif stage == "bin":
        write(TABLES[stage], binning_mod.write_binned, v["binned"])
        for prop, rows in sorted(v["binned"].items()):
            if cfg.charts and any(b.label == "bin" and b.influence is not None for b in rows):
                write(f"charts/by_{prop}.svg", report_mod.render_line_chart, rows)
    else:
        writer, key = {"detect": (gio.write_events, "events"),
                       "dissect": (gio.write_subevents, "subevents"),
                       "report": (report_mod.write_report_json, "report_doc")}[stage]
        write(TABLES[stage], writer, v[key])


@contextmanager
def removed_on_failure(written: list):
    """Remove every path of `written` if the block raises."""
    try:
        yield written
    except BaseException:
        for path in written:
            with suppress(OSError):
                path.unlink()
        raise


def run(manifest, cfg: RunConfig, out_dir) -> RunResult:
    """Execute the full pipeline for a manifest and write all artifacts."""
    cfg.validate()
    with _stage("preprocess"):
        require_windows(manifest)
        values = {"preprocess": preprocess_manifest(manifest, cfg)}
    for stage, step in STEPS.items():
        with _stage(stage):
            values.update(step(values, cfg, manifest))
    result = RunResult(cfg, **values)
    write_artifacts(result, out_dir)
    return result


def write_artifacts(result: RunResult, out_dir: Path):
    """Clear out_dir, write every stage's table and charts and then the
    run log, which lists the tables before the charts; on failure remove
    what was written and leave an INCOMPLETE marker naming the error."""
    out_dir = Path(out_dir)
    try:
        with _stage("report"), removed_on_failure([]) as written:
            clear_outputs(out_dir)
            for stage in STEPS:
                write_stage(stage, vars(result), result.config, out_dir, written)
            run_log = {
                "parameters": asdict(result.config),
                "counts": result.counts,
                "outputs": [str(p.relative_to(out_dir))
                            for p in sorted(written, key=lambda p: p.parent != out_dir)],
            }
            path = out_dir / "run_log.json"
            written.append(path)
            path.write_text(json.dumps(run_log, indent=2, default=float) + "\n", encoding="utf-8")
    except BaseException as e:
        with suppress(OSError):
            (out_dir / "INCOMPLETE").write_text(f"{e}\n", encoding="utf-8")
        raise
