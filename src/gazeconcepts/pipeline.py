"""End-to-end orchestration: preprocess, detect, dissect, influence, bin,
report.

The work is done one recording at a time. A recording's per-recording
step of each stage (STEPS) runs on its windows, which are dropped before
the process that holds them windows its next recording. merge_recordings
puts the results into manifest order, as the steps give them on the
whole stack, and each stage's once-per-corpus step runs on them. Peak
memory thus follows the largest recording in each process, and an error
comes from the first failing recording, in stage order within it. `run`
drives this loop for the whole chain; with --jobs N above 1 and fork
available, a fork pool does each recording's gaze side (load, window,
detect, dissect: gaze_side) while this process parses its attributions
(pool_size, recording_map). compute drives it for a staged subcommand,
on the recordings of the windows stage file and the tables of the
earlier stage files, which split_recording splits by recording: a fork
pool of one process per usable CPU, capped by the recordings, runs each
recording's steps, and this process merges. Only for a step that reads
windows (STEPS) does the process that runs it load the recording's
positions from the windows file and window them; the parent of a
staged subcommand never holds the corpus's positions. Staged preprocess
windows its recordings in the same pool (preprocess_manifest) and
writes each one's positions as it comes back, and synth writes its
recordings through it. Every pool gives the bytes of one process. Names
decide which recording holds which window before any file is loaded or
worker forked: recording_files refuses two files of one stem, and
io.read_windows gives each stored recording the windows that name it.
Every path windows a recording with preprocess.windowed. A step takes
the earlier values keyed by RunResult's field names and the RunConfig
whole. Events and
sub-events are columnar tables (detect.EventTable, dissect.SubEventTable).
Every reduction happens in manifest order, so outputs do not depend on
--jobs. write_stage writes one stage's table and charts; `run` first
clears OUTPUT_FILES and charts/ from the output directory, and leaves an
INCOMPLETE marker if a write fails, once the files it began are
removed."""

from __future__ import annotations

import json
import os
import pickle
import shutil
from contextlib import closing, contextmanager, suppress
from dataclasses import asdict, dataclass, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import binning as binning_mod
from . import io as gio
from . import report as report_mod
from .detect import (
    EVENT_ARRAYS,
    KINDS,
    SACCADE,
    DetectionParams,
    EventTable,
    detect_events,
    event_properties,
    exclusion_reason,
    retained,
)
from .dissect import PHASES, SubEventTable, check_ratios, dissect_saccades
from .errors import AlignmentError, ConfigError, DataError, FormatError, GazeError
from .influence import (
    ALL_CONCEPTS,
    EVENT_CONCEPTS,
    PHASE_CONCEPTS,
    ConceptSegmentation,
    InfluenceResult,
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
    RecordingWindows,
    WindowParams,
    WindowStack,
    compute_channel_stats,
    windowed,
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
    # execution: run's processes (pool_size); the staged subcommands ignore
    # it, as they and synth pool one process per usable CPU
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
    """What a run computed; it holds no window arrays, only the per-window
    results, every table in manifest order."""

    config: RunConfig
    summaries: dict  # recording_id -> WindowingSummary, in manifest order of first use
    params: WindowParams  # what cut the windows
    events: EventTable  # every window's fixations then saccades
    subevents: SubEventTable  # phases of the retained saccades
    topk: np.ndarray  # (n, L) top-k masks
    influence: InfluenceTable  # every window and concept
    corpus_results: dict  # concept -> (InfluenceResult | None, skipped count)
    binned: dict  # property -> list[BinnedInfluence]
    counts: dict
    report_doc: dict


def recording_files(manifest) -> list:
    """(path, manifest indices) of each recording file, in the order the
    manifest first names it: one per file however the manifest spells its
    path, loaded through its first spelling, with the ascending indices of
    every entry naming it. DataError naming both files, before any is
    loaded, if two have one recording id (io.recording_id), and for a
    manifest of no entries, which yields no evaluation windows."""
    if not manifest.entries:
        raise DataError("manifest yields no evaluation windows")
    keys = {relpath: manifest.resolve(relpath).resolve()
            for relpath in dict.fromkeys(entry.recording for entry in manifest.entries)}
    naming = {}  # resolved path -> the manifest indices naming it
    for i, entry in enumerate(manifest.entries):
        naming.setdefault(keys[entry.recording], []).append(i)
    files = [(manifest.resolve(manifest.entries[indices[0]].recording), indices)
             for indices in naming.values()]
    first = {}  # recording id -> the first file holding it
    for path, _ in files:
        other = first.setdefault(gio.recording_id(path), path)
        if other != path:
            raise DataError(f"{other} and {path} have one recording id {gio.recording_id(path)!r}")
    return files


def window_file(manifest, cfg: RunConfig, path, indices) -> RecordingWindows:
    """The recording at `path` as RecordingWindows: loaded, its eye
    selected, and the windows that the manifest's entries at `indices`
    name windowed and gathered in that order (windowed). A DataError of
    windowing names the file."""
    rec = gio.load_gaze_csv(path)
    mono = gio.select_eye(rec, cfg.eye if rec.eye == "binocular" else "mono")
    recording = RecordingWindows(mono.recording_id, mono.sampling_rate_hz, np.array(indices),
                                 (mono.x_deg, mono.y_deg))
    del rec, mono
    try:
        return windowed(recording, [entry.window_id for entry in manifest.entries], cfg)
    except DataError as e:
        raise type(e)(f"{path}: {e}") from None


def preprocess_manifest(manifest, cfg: RunConfig):
    """Each of the manifest's recordings as window_file windows it, less
    its windows, in recording_files' order, yielded as it is done: each
    windowed in a fork pool of one process per usable CPU, capped by the
    recordings (pool_size), where its windows stay. Closing the generator
    stops the pool."""
    files = recording_files(manifest)
    with recording_map(lambda file: replace(window_file(manifest, cfg, *file), windows=None),
                       files, pool_size(len(files), len(files), parent_waits=True),
                       "stage preprocess") as results:
        yield from results


def normalized_windows(windows: WindowStack) -> WindowStack:
    """A copy of the windows z-scored by their channel stats (model-input
    parity; no stage uses it)."""
    stats = compute_channel_stats(windows)
    return zscore_normalize(windows, [stats] * len(windows))


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


def attribution_topk(rows, length: int, cfg: RunConfig, manifest) -> np.ndarray:
    """(n, length) top-k masks of the windows that the manifest's entries
    at `rows` name, in order, after checking that every attribution file
    exists: one process_window call per window."""
    entries = [manifest.entries[i] for i in rows]
    paths = [manifest.resolve(entry.attribution) for entry in entries]
    for p in paths:
        if not p.exists():
            raise OSError(f"attribution file not found: {p}")
    topk = np.zeros((len(entries), length), dtype=bool)
    for row, (entry, path) in enumerate(zip(entries, paths)):
        topk[row] = process_window(entry.window_id, length, path, cfg).mask
    return topk


def scored(events: EventTable, subs: SubEventTable, topk, cfg: RunConfig) -> InfluenceTable:
    """Every concept's influence on each window of events.window_ids,
    whose (n, L) top-k masks are `topk`: the concept masks of the whole
    stack in one batched pass, then every concept scored on it."""
    length = topk.shape[1]
    return influence_table(ALL_CONCEPTS, concept_masks(events, subs, length), topk,
                           default_k(length, cfg.top_frac), events.window_ids)


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


def _counts(summaries: dict, events: EventTable, subs: SubEventTable) -> dict:
    """The report's counts: windows (those of events.window_ids, and per
    recording summary), events by kind, and the dissection of every
    retained saccade."""
    disregarded = int(subs.disregarded.sum())
    saccade_samples = int((subs.events.offset - subs.events.onset + 1).sum())
    return {
        "windows": {
            "evaluated": len(events.window_ids),
            "excluded_missing": sum(s.excluded for s in summaries.values()),
            "tail_samples_discarded": sum(s.tail_samples for s in summaries.values()),
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
    return {"events": detect_events(v["windows"], cfg)}


def dissect_step(v: dict, cfg: RunConfig, manifest) -> dict:
    """The phase segments of every retained saccade, all in one batched
    pass."""
    return {"subevents": dissect_saccades(retained(v["events"], SACCADE), v["windows"],
                                          cfg.peak_ratio, cfg.flank_ratio)}


def score_step(v: dict, cfg: RunConfig, manifest) -> dict:
    """The top-k masks and every concept's influence per window, of
    v["params"].window_len steps; the manifest's entries at v["rows"] name
    the windows, in order."""
    topk = attribution_topk(v["rows"], v["params"].window_len, cfg, manifest)
    return {"topk": topk, "influence": scored(v["events"], v["subevents"], topk, cfg)}


def properties_step(v: dict, cfg: RunConfig, manifest) -> dict:
    """The retained events with their properties computed on the exact
    windows, as run computes them (staged bin: events.csv keeps 9
    digits)."""
    return {"events": event_properties(retained(v["events"]), v["windows"])}


def pool_step(v: dict, cfg: RunConfig, manifest) -> dict:
    """Every concept's influence pooled over the windows."""
    return {"corpus_results": v["influence"].pooled()}


def bin_step(v: dict, cfg: RunConfig, manifest) -> dict:
    """The binned influence of every configured property."""
    k = default_k(v["topk"].shape[1], cfg.top_frac)
    return {"binned": _bin_all(retained(v["events"]), v["topk"], k, cfg)}


def report_step(v: dict, cfg: RunConfig, manifest) -> dict:
    """The counts and the report document, which echoes the window
    parameters that cut the windows."""
    counts = _counts(v["summaries"], v["events"], v["subevents"])
    params = {**cfg.analysis_dict(), **asdict(v["params"])}
    return {"counts": counts,
            "report_doc": report_mod.summarize(params, counts, v["corpus_results"], v["binned"])}


# each stage after preprocess, in chain order: (its step on one recording's
# values, its step once on every recording's merged results, None for none;
# whether the first reads the recording's windows)
STEPS = {"detect": (detect_step, None, True), "dissect": (dissect_step, None, True),
         "influence": (score_step, pool_step, False), "bin": (None, bin_step, False),
         "report": (None, report_step, False)}


def split_recording(v: dict, rows) -> dict:
    """Inverse of merge_recordings: the events and sub-events of ``v`` on
    the windows at the ascending manifest indices ``rows``, in their order,
    renumbered as the steps give them on those windows alone."""
    if "events" not in v:
        return {}
    events = v["events"]
    local = np.full(len(events.window_ids), -1)  # manifest index -> row among `rows`
    local[rows] = np.arange(len(rows))
    part = events.take(local[events.row] >= 0)
    part = replace(part, window_ids=[events.window_ids[i] for i in rows], row=local[part.row])
    if "subevents" not in v:
        return {"events": part}
    subs = v["subevents"]
    ours = local[subs.events.row] >= 0  # of the parents
    kept = subs.take(ours[subs.parent])
    return {"events": part, "subevents": replace(
        kept, events=retained(part, SACCADE), parent=(np.cumsum(ours) - 1)[kept.parent])}


def merge_recordings(parts: list, window_ids: list) -> dict:
    """The values the parts hold (events, sub-events, top-k masks,
    influence) merged into what the steps give on the stack of all windows
    ``window_ids``. parts[i]["rows"] holds the ascending manifest index of
    each of its windows, each index in one part: events go by window row,
    sub-events by saccade, then each in their part's order."""
    def joined(tables, name):
        return np.concatenate([getattr(t, name) for t in tables])

    at = np.argsort(np.concatenate([p["rows"] for p in parts]))  # manifest -> joined row
    merged = {}
    if "influence" in parts[0]:
        tables = [p["influence"] for p in parts]
        merged["influence"] = replace(
            tables[0], window_ids=window_ids, sizes=joined(tables, "sizes")[at],
            intersections=joined(tables, "intersections")[at])
        merged["topk"] = np.concatenate([p["topk"] for p in parts])[at]
    # the parts' events and sub-events joined, with manifest rows and joined parents
    events = EventTable(window_ids, **{name: joined([p["events"] for p in parts], name)
                                       for name in EVENT_ARRAYS})
    events.row = np.concatenate([p["rows"][p["events"].row] for p in parts])
    merged["events"] = events.take(np.argsort(events.row, kind="stable"))
    if "subevents" in parts[0]:
        subs = [p["subevents"] for p in parts]
        first = np.cumsum([0] + [len(s.events) for s in subs[:-1]])
        subevents = SubEventTable(
            retained(events, SACCADE), np.concatenate([s.parent + f for s, f in zip(subs, first)]),
            *(joined(subs, name) for name in ("phase", "onset", "offset")))
        # then in window row order
        order = np.argsort(subevents.events.row, kind="stable")
        parent = np.empty_like(order)
        parent[order] = np.arange(len(order))
        subevents = replace(subevents, events=subevents.events.take(order),
                            parent=parent[subevents.parent])
        merged["subevents"] = subevents.take(np.argsort(subevents.parent, kind="stable"))
    return merged


def recording_part(recording: RecordingWindows, given: dict) -> dict:
    """One recording's part: its id, summary, rows and windows (None if
    it was not windowed), and the tables of `given` split to its rows
    (split_recording)."""
    return {"id": recording.recording_id, "summary": recording.summary,
            "rows": recording.rows, "windows": recording.windows,
            **split_recording(given, recording.rows)}


def steps_on(part: dict, steps: dict, cfg: RunConfig, manifest) -> dict:
    """`part`, one recording's values and windows, updated by the
    per-recording step of each stage of `steps` in order (an error is
    prefixed with its stage), its windows then dropped."""
    for stage, (step, _, _) in steps.items():
        if step is not None:
            with _stage(stage):
                part.update(step(part, cfg, manifest))
    del part["windows"]
    return part


def completed(parts: list, summaries: dict, window_ids: list, steps: dict, cfg: RunConfig,
              manifest, given: dict) -> dict:
    """The values of `given` and of the recordings' parts, if any, merged
    into manifest order (emptying `parts`), then those of each stage's
    once-per-corpus step."""
    values = {**given, "summaries": summaries,
              **(merge_recordings(parts, window_ids) if parts else {})}
    parts.clear()
    for stage, (_, once, _) in steps.items():
        if once is not None:
            with _stage(stage):
                values.update(once(values, cfg, manifest))
    return values


def compute(path, stored: list, window_ids: list, steps: dict, cfg: RunConfig, manifest,
            given: dict) -> dict:
    """The values of ``steps``, a table like STEPS, on the windows
    ``window_ids`` of the windows file at ``path``, whose recordings are
    ``stored`` (io.read_windows: their summaries, no positions), cut by
    ``given["params"]``, with the tables of ``given`` split to each
    recording (module doc). The per-recording steps of a recording run in
    a fork pool of one process per usable CPU, capped by the recordings
    (pool_size), and its part comes back without its windows. Only where
    a step reads windows are the recording's positions loaded
    (io.read_positions) and windowed (windowed; FormatError naming the
    file), in the process that runs its steps. With no per-recording
    step no pool is started. An error is prefixed with its stage;
    ``manifest``, if given, names the windows' attributions."""
    reads_windows = any(windows for _, _, windows in steps.values())

    def part_of(item):
        index, recording = item
        with _stage("preprocess"):
            if reads_windows:
                recording = replace(recording, positions=gio.read_positions(path, index))
                try:
                    recording = windowed(recording, window_ids, given["params"])
                except DataError as e:
                    raise FormatError(f"{path}: {e}") from None
            part = {"params": given["params"], **recording_part(recording, given)}
        return steps_on(part, steps, cfg, manifest)

    parts = []
    if any(each is not None for each, _, _ in steps.values()):
        with recording_map(part_of, list(enumerate(stored)),
                           pool_size(len(stored), len(stored), parent_waits=True),
                           f"stage {', '.join(steps)}") as results:
            parts.extend(results)
    summaries = {recording.recording_id: recording.summary for recording in stored}
    return completed(parts, summaries, window_ids, steps, cfg, manifest, given)


# the stages of a recording's gaze side, which run's pool workers take
GAZE_STAGES = ("detect", "dissect")


def gaze_side(manifest, cfg: RunConfig, file: tuple) -> dict:
    """The gaze side of one recording_files entry for run: window_file,
    then the steps of GAZE_STAGES. It returns only small tables: the
    recording's id, summary, rows, events and sub-events."""
    with _stage("preprocess"):
        part = recording_part(window_file(manifest, cfg, *file), {})
    return steps_on(part, {stage: STEPS[stage] for stage in GAZE_STAGES}, cfg, manifest)


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS
    has one, else os.cpu_count(), 1 if that is unknown."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pool_size(jobs: int, n_recordings: int, parent_waits: bool = False) -> int:
    """Worker processes for `jobs` processes over `n_recordings`
    recordings, capped by the usable CPUs and by the recordings; none
    where fork is unavailable. run's parent parses attributions meanwhile,
    so its pool takes the jobs beyond the parent's own. The parent of
    synth and of a staged subcommand waits (parent_waits), so its pool
    takes every job, or none where one process would do; they ask for one
    job per recording, so they pool one process per usable CPU."""
    if not hasattr(os, "fork"):
        return 0
    processes = min(jobs, usable_cpus(), n_recordings + (not parent_waits))
    if parent_waits:
        return processes if processes > 1 else 0
    return max(0, processes - 1)


def _serve(fn, items: list, read: int, write: int, inherited: list):
    """A pool worker's life, after its fork: fn on each of its items in
    turn, each result, or the error it raised, pickled into its pipe's
    `write` end; then exit, never returning into the caller's code. It
    closes its copies of the read ends, its own and the earlier workers'
    (`inherited`), so that once the parent closes its own the next write
    fails and the worker stops."""
    code = 1
    try:
        os.close(read)
        for pipe in inherited:
            pipe.close()
        with os.fdopen(write, "wb") as out:
            for item in items:
                try:
                    message = (True, fn(item))
                except Exception as e:
                    message = (False, e)
                pickle.dump(message, out, pickle.HIGHEST_PROTOCOL)
                out.flush()
        code = 0
    finally:
        os._exit(code)


def _results(pipes: list, n: int, name: str):
    """The n results the workers send through `pipes`, in item order:
    item i from pipe i % len(pipes). A task's error is raised here."""
    for i in range(n):
        try:
            ok, value = pickle.load(pipes[i % len(pipes)])
        except (EOFError, pickle.UnpicklingError):
            raise ChildProcessError(f"[{name}] a worker process died (killed, or out of "
                                    f"memory?) before every recording was done") from None
        if not ok:
            raise value
        yield value
        del value  # not held while the next result is unpickled


@contextmanager
def recording_map(fn, items, workers: int, name: str):
    """The results of fn on each of items, in order: through map for no
    workers, else through `workers` forked processes (run's gaze side, the
    staged subcommands' recordings, synth's recordings). Worker w takes
    items w, w + workers, ... and sends back each result through its own
    pipe; a task's error is raised when its result is reached. Each worker
    holds fn and the items from its fork, so only results are pickled. A
    worker that dies raises ChildProcessError (an OSError) prefixed with
    [name], and a fork that fails an OSError so prefixed, its pipe closed.
    When the block ends the pipes are closed, so that each worker
    stops once its running task is done, and every worker is reaped.
    Plain os.fork: multiprocessing loads socket on import, and its import
    and pool take about 20 ms of each command that pools; a spawned worker
    would import numpy and this package anew (about 0.1 s) and rerun the
    caller's main module. A caller that runs other threads forks with
    them."""
    if not workers:
        yield map(fn, items)
        return
    items = list(items)
    pipes, pids = [], []
    try:
        for worker in range(workers):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError as e:
                os.close(read)
                os.close(write)
                raise OSError(f"[{name}] could not start a worker process: {e}") from e
            if pid == 0:
                _serve(fn, items[worker::workers], read, write, pipes)
            os.close(write)
            pipes.append(os.fdopen(read, "rb"))
            pids.append(pid)
        yield _results(pipes, len(items), name)
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.waitpid(pid, 0)


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


def staged(stage: str, manifest, cfg: RunConfig, out: Path) -> list:
    """Compute `stage` (a key of TABLES) in the output directory `out`
    and write its files there with run's writer (write_stage); return
    their paths. If a write fails, every file the stage began is removed.
    `preprocess` first clears out, then windows the manifest's recordings
    (preprocess_manifest) and writes each one's positions into
    windows.npz as it is done, so that this process holds one recording's
    at a time. A later stage checks that a given manifest names the
    windows of windows.npz, in order, reads back the earlier stage files
    for those windows, and runs run's per-recording loop with its own
    stage's steps (compute): each recording is computed in a fork pool of
    one process per usable CPU, capped by the recordings, whatever
    cfg.jobs says, and in this process for one recording, one usable CPU
    or no fork. detect, dissect and bin load and window each recording
    there, influence reads no positions, and report, which has no
    per-recording step, starts no pool and counts windows from the stored
    summaries. Staged bin recomputes the retained events' properties on
    each recording's exact windows (properties_step), as run does, since
    events.csv keeps 9 digits. Staged influence also writes the top-k
    masks that only bin reads (topk.npz)."""
    if stage == "preprocess":
        clear_outputs(out)  # a failed preprocess leaves no earlier run's files
        with (removed_on_failure([out / TABLES[stage]]) as written,
              closing(preprocess_manifest(manifest, cfg)) as recordings):
            gio.write_windows(recordings, written[0], [e.window_id for e in manifest.entries], cfg)
        return written
    path = out / TABLES["preprocess"]
    window_ids, params, stored = gio.read_windows(path)
    if manifest is not None and [e.window_id for e in manifest.entries] != window_ids:
        raise DataError(f"{path}: window ids differ from the manifest's; rerun preprocess")
    given, length, topk_path = {"params": params}, params.window_len, out / "topk.npz"
    each, once, windows = STEPS[stage]
    if stage != "detect":
        given["events"] = gio.read_events(out / TABLES["detect"], window_ids, length)
    if stage in ("influence", "report"):
        given["subevents"] = gio.read_subevents(out / TABLES["dissect"], given["events"], length)
    if stage == "bin":
        ids, given["topk"], k, squash = gio.read_topk(topk_path, length)
        want_k = default_k(length, cfg.top_frac)
        if ids != window_ids:
            raise DataError(f"{topk_path}: window ids differ from the windows file's; "
                            "rerun influence")
        if k != want_k:
            raise DataError(f"{topk_path}: k={k}, but top_frac {cfg.top_frac} of {length} steps "
                            f"gives k={want_k}; rerun influence")
        if squash != cfg.squash:
            raise DataError(f"{topk_path}: squash {squash!r}, but this run uses {cfg.squash!r}; "
                            "rerun influence")
        each, windows = properties_step, True
    if stage == "report":
        # a concept absent from every window is skipped in all of them
        given["corpus_results"] = {c: (None, len(window_ids)) for c in ALL_CONCEPTS}
        table = gio.read_report(out / TABLES["influence"])
        for i, scope in enumerate(table["scope"]):
            if scope == "corpus":
                r = InfluenceResult(**{name: values[i] for name, values in table.items()})
                given["corpus_results"][r.concept] = (r, r.n_skipped)
        binned = binning_mod.read_binned(out / TABLES["bin"])
        given["binned"] = {prop: binned.get(prop, []) for prop in cfg.properties}
    v = compute(path, stored, window_ids, {stage: (each, once, windows)}, cfg, manifest, given)
    with removed_on_failure([]) as written:
        if stage == "influence":
            written.append(topk_path)
            gio.write_topk(v["influence"].window_ids, v["topk"], topk_path, cfg.squash)
        write_stage(stage, v, cfg, out, written)
    return written


def run(manifest, cfg: RunConfig, out_dir) -> RunResult:
    """Execute the full pipeline for a manifest and write all artifacts.
    Each recording's gaze side (gaze_side) runs through recording_map: in
    this process for one job, else in a pool. This process parses the
    recording's attributions into top-k masks, then takes its gaze side and
    scores it. An error comes from the first failing recording, in stage
    order within it."""
    cfg.validate()
    with _stage("preprocess"):
        files = recording_files(manifest)
    params = WindowParams(**{f.name: getattr(cfg, f.name) for f in fields(WindowParams)})
    summaries, parts = {}, []
    with recording_map(partial(gaze_side, manifest, cfg), files, pool_size(cfg.jobs, len(files)),
                       "stage preprocess, detect or dissect") as gazes:
        for _, indices in files:
            late = None  # an attribution error, raised after the earlier stages' errors
            try:
                with _stage("influence"):
                    topk = attribution_topk(indices, cfg.window_len, cfg, manifest)
            except (GazeError, OSError) as e:
                late = e
            part = next(gazes)
            if late is not None:
                raise late
            summaries[part.pop("id")] = part.pop("summary")
            with _stage("influence"):
                part.update(topk=topk, influence=scored(part["events"], part["subevents"],
                                                        topk, cfg))
            parts.append(part)
    values = completed(parts, summaries, [e.window_id for e in manifest.entries], STEPS, cfg,
                       manifest, {"params": params})
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
