"""In-memory call spans around gazeconcepts' public functions.

`instrument(tracer)` replaces each function listed in LAYER_FUNCTIONS
with a wrapper, wherever the `pipeline` and `cli` modules look it up:
in their own namespaces (names imported with `from .x import f`) and on
the module objects they reach through attributes (`gio.load_gaze_csv`).
Each call becomes one span: id, parent id, pass id, name, thread, start
and end in nanoseconds, plus the counts a COUNTERS hook derives from the
call's arguments and result. Nothing inside the package is edited; the
wrappers are removed when the context manager exits.

`wall_share` splits elapsed time among the spans that are running and
have no running child. On one thread that is each span's duration minus
the part its children cover (its self time); when n such spans run at
once on several threads, each gets 1/n of that interval. The shares of
all spans therefore add up to the time at least one span was open.
`layer_metrics` turns one pass's spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import math
import os
import threading
import time
from contextlib import contextmanager

# Functions wrapped per module (= layer). synth is set-up only.
LAYER_FUNCTIONS = {
    "io": (
        "load_manifest", "load_gaze_csv", "select_eye", "load_attribution",
        "validate_attribution", "write_windows", "read_windows", "write_events",
        "read_events", "write_subevents", "read_subevents", "write_report",
        "read_report",
    ),
    "preprocess": (
        "savgol_derivative", "clamp_velocities", "window_sequence",
        "compute_channel_stats", "zscore_normalize",
    ),
    "detect": ("detect_fixations_ivt", "detect_saccades_ek"),
    "dissect": ("dissect_all",),
    "influence": (
        "squash_channels", "topk_segmentation", "concept_segmentation",
        "concept_influence", "aggregate_influence",
    ),
    "binning": ("bin_events", "binned_influence", "write_binned", "read_binned"),
    "report": ("summarize", "write_report_json", "render_bar_chart", "render_line_chart"),
    "pipeline": (
        "run", "preprocess_manifest", "normalized_windows", "process_window",
        "window_segmentations", "write_artifacts",
    ),
    "cli": (
        "main", "cmd_preprocess", "cmd_detect", "cmd_dissect", "cmd_influence",
        "cmd_bin", "cmd_report",
    ),
}

def _written(args, result):
    return {"bytes": os.path.getsize(args[1])}


def _read(args, result):
    return {"bytes": os.path.getsize(args[0])}


def _events(args, result):
    return {"events": len(result), "retained": sum(not e.excluded for e in result)}


def _dissections(args, result):
    saccades = [s for s in args[0] if not s.excluded]
    return {
        "saccades": len(result),
        "disregarded": sum(d.disregarded for d in result),
        "saccade_samples": sum(s.n_samples for s in saccades),
    }


# name -> hook(args, result) -> counts recorded on the span
COUNTERS = {
    "io.load_gaze_csv": lambda a, r: {"samples": len(r.t_ms)},
    "io.load_attribution": lambda a, r: {"values": int(r.values.size), "window": r.window_id},
    "preprocess.window_sequence": lambda a, r: {"windows_excluded": r[1].excluded},
    "detect.detect_fixations_ivt": _events,
    "detect.detect_saccades_ek": _events,
    "dissect.dissect_all": _dissections,
    "influence.concept_segmentation": lambda a, r: {"empty": int(r.size == 0)},
    "binning.bin_events": lambda a, r: {"events": len(a[0])},
    "report.render_bar_chart": lambda a, r: {"charts": 1},
    "report.render_line_chart": lambda a, r: {"charts": 1},
}
IO_WRITES = tuple(f"io.{n}" for n in LAYER_FUNCTIONS["io"] if n.startswith("write_"))
IO_READS = tuple(f"io.{n}" for n in LAYER_FUNCTIONS["io"] if n.startswith("read_"))
COUNTERS.update({name: _written for name in IO_WRITES})
COUNTERS.update({name: _read for name in IO_READS})


class Tracer:
    """Collects spans in memory; one instance per traced process."""

    def __init__(self, pass_id: int = 0):
        self.spans = []  # [id, parent, pass, name, thread, start_ns, end_ns, counts]
        self.pass_id = pass_id
        self._ids = itertools.count(1)
        self._main = threading.get_ident()
        self._stacks = {}

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            ident = threading.get_ident()
            stack = self._stacks.setdefault(ident, [])
            if stack:
                parent = stack[-1]
            else:
                # A worker thread's first span belongs to whatever the
                # main thread is running, e.g. pipeline.run's pool.
                main = self._stacks.get(self._main)
                parent = main[-1] if main and ident != self._main else None
            span_id = next(self._ids)
            stack.append(span_id)
            done = False
            counts = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                if counter and done:
                    counts = counter(args, result)
                self.spans.append(
                    [span_id, parent, self.pass_id, name, ident, start, end, counts]
                )

        return traced


@contextmanager
def instrument(tracer: Tracer):
    """Wrap LAYER_FUNCTIONS as `pipeline` and `cli` see them; undo on exit."""
    pipeline = importlib.import_module("gazeconcepts.pipeline")
    cli = importlib.import_module("gazeconcepts.cli")
    patched = []
    try:
        for layer, names in LAYER_FUNCTIONS.items():
            module = importlib.import_module(f"gazeconcepts.{layer}")
            for name in names:
                original = getattr(module, name)
                wrapped = tracer.wrap(f"{layer}.{name}", original)
                for holder in {module, pipeline, cli}:
                    if getattr(holder, name, None) is original:
                        setattr(holder, name, wrapped)
                        patched.append((holder, name, original))
        yield tracer
    finally:
        for holder, name, original in reversed(patched):
            setattr(holder, name, original)


def wall_share(spans) -> dict:
    """Seconds of elapsed time attributed to each span id (see module doc)."""
    parent_of = {s[0]: s[1] for s in spans}
    depth = {}

    def depth_of(span_id):
        if span_id not in depth:
            parent = parent_of.get(span_id)
            depth[span_id] = 0 if parent not in parent_of else depth_of(parent) + 1
        return depth[span_id]

    events = []
    for s in spans:
        d = depth_of(s[0])
        events.append((s[5], 1, d, s[0]))  # opens: outer spans first
        events.append((s[6], 0, -d, s[0]))  # closes before opens, inner first
    events.sort()

    share = {s[0]: 0.0 for s in spans}
    open_children = {}
    running = set()  # open spans with no open child
    last = None
    for t, is_open, _, span_id in events:
        if running and t > last:
            part = (t - last) / 1e9 / len(running)
            for r in running:
                share[r] += part
        last = t
        parent = parent_of[span_id]
        parent_open = parent in open_children
        if is_open:
            open_children[span_id] = 0
            running.add(span_id)
            if parent_open:
                open_children[parent] += 1
                running.discard(parent)
        else:
            del open_children[span_id]
            running.discard(span_id)
            if parent_open:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    running.add(parent)
    return share


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in 0..100); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def layer_metrics(spans, pass_wall_s: float) -> dict:
    """Per-layer metrics of one traced pass, named as in BENCHMARK.json."""
    share = wall_share(spans)
    busy, calls, totals, durations = {}, {}, {}, {}
    windows_seen = set()
    for s in spans:
        name = s[3]
        busy[name] = busy.get(name, 0.0) + share[s[0]]
        calls[name] = calls.get(name, 0) + 1
        durations.setdefault(name, []).append((s[6] - s[5]) / 1e9)
        for key, value in (s[7] or {}).items():
            if key == "window":
                windows_seen.add(value)
            else:
                totals[(name, key)] = totals.get((name, key), 0) + value

    def prefixed(prefix):
        return sum(v for k, v in busy.items() if k.startswith(prefix))

    def total(key, *names):
        return sum(totals.get((n, key), 0) for n in names)

    def ratio(num, den):
        return num / den if den else 0.0

    detectors = ("detect.detect_fixations_ivt", "detect.detect_saccades_ek")
    renders = ("report.render_bar_chart", "report.render_line_chart")
    gaze, attr = "io.load_gaze_csv", "io.load_attribution"
    samples = total("samples", gaze)
    values = total("values", attr)
    window_ms = [d * 1e3 for d in durations.get("pipeline.process_window", [])]

    m = {
        "io.busy_s": prefixed("io."),
        "io.load_gaze_csv.busy_s": busy.get(gaze, 0.0),
        "io.load_gaze_csv.calls": calls.get(gaze, 0),
        "io.load_gaze_csv.ns_per_sample": ratio(busy.get(gaze, 0.0) * 1e9, samples),
        "io.gaze_samples": samples,
        "io.load_attribution.busy_s": busy.get(attr, 0.0),
        "io.load_attribution.calls": calls.get(attr, 0),
        "io.load_attribution.ns_per_value": ratio(busy.get(attr, 0.0) * 1e9, values),
        "io.attr_useful_ratio": ratio(len(windows_seen), calls.get(attr, 0)),
        "io.write.busy_s": sum(busy.get(n, 0.0) for n in IO_WRITES),
        "io.read.busy_s": sum(busy.get(n, 0.0) for n in IO_READS),
        "io.bytes_written": total("bytes", *IO_WRITES),
        "io.bytes_read": total("bytes", *IO_READS),
        "preprocess.busy_s": prefixed("preprocess."),
        "preprocess.windows_excluded": total("windows_excluded", "preprocess.window_sequence"),
        "detect.busy_s": prefixed("detect."),
        "detect.events": total("events", *detectors),
        "detect.retained_ratio": ratio(
            total("retained", *detectors), total("events", *detectors)
        ),
        "dissect.busy_s": prefixed("dissect."),
        "dissect.saccades": total("saccades", "dissect.dissect_all"),
        "dissect.disregarded_frac": ratio(
            total("disregarded", "dissect.dissect_all"),
            total("saccade_samples", "dissect.dissect_all"),
        ),
        "influence.busy_s": prefixed("influence."),
        "influence.skipped_ratio": ratio(
            total("empty", "influence.concept_segmentation"),
            calls.get("influence.concept_segmentation", 0),
        ),
        "binning.busy_s": prefixed("binning."),
        "binning.events_binned": total("events", "binning.bin_events"),
        "report.busy_s": prefixed("report."),
        "report.charts": total("charts", *renders),
        "pipeline.process_window.p50_ms": percentile(window_ms, 50),
        "pipeline.process_window.p99_ms": percentile(window_ms, 99),
        "pipeline.self_s": prefixed("pipeline."),
        "cli.self_s": prefixed("cli."),
        "trace.spans": len(spans),
        "trace.accounted_frac": ratio(sum(share.values()), pass_wall_s),
    }
    for name in LAYER_FUNCTIONS["cli"]:
        if name.startswith("cmd_"):  # a subcommand's whole time, children included
            m[f"cli.{name[4:]}.busy_s"] = sum(durations.get(f"cli.{name}", []))
    return m
