"""Subcommand front-end: synth, preprocess, detect, dissect, influence,
bin, report, and run.

Precedence for every parameter is CLI flag over config file over
built-in default. The config file is INI-style; keys may live in any
section and must name RunConfig fields (e.g. sg_window, sacc_lambda).
Exit codes: 0 success, 1 usage/configuration, 2 data, 3 I/O.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

from . import binning as binning_mod
from . import io as gio
from . import report as report_mod
from .detect import SACCADE, compute_event_properties, retained
from .dissect import dissect_all
from .errors import ConfigError, DataError, GazeError
from .pipeline import (
    ALL_CONCEPTS,
    RunConfig,
    _bin_all,
    _counts,
    _dissection_counts,
    _preprocess_counts,
    _reduce_concepts,
    detect_window,
    preprocess_manifest,
    run,
    window_influence,
    window_topk,
    write_charts,
    write_influence,
)
from .synth import ATTRIBUTION_MODES, CorpusSpec, write_demo_corpus

ENV_OUT = "GAZECONCEPTS_OUT"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _field_defaults():
    return {f.name: getattr(RunConfig(), f.name) for f in fields(RunConfig)}


def _coerce(name: str, raw: str, default):
    try:
        if isinstance(default, bool):
            low = raw.strip().lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
        if isinstance(default, tuple):
            items = [tok.strip() for tok in raw.split(",") if tok.strip()]
            if name == "bin_edges":
                return tuple(float(t) for t in items)
            return tuple(items)
        return raw
    except ValueError:
        raise ConfigError(f"config key {name}: cannot parse {raw!r}") from None


def _load_ini(path) -> dict:
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise OSError(f"config file not found: {path}")
    flat = {}
    for section in cp.sections():
        for key, value in cp.items(section):
            flat[key] = value
    return flat


def resolve_config(args, extra_config: str | None = None) -> RunConfig:
    """defaults < config file < CLI flags."""
    defaults = _field_defaults()
    values = dict(defaults)
    config_path = getattr(args, "config", None) or extra_config
    if config_path:
        for key, raw in _load_ini(config_path).items():
            if key not in defaults:
                raise ConfigError(f"unknown config key {key!r}")
            values[key] = _coerce(key, raw, defaults[key])
    for name in defaults:
        flag = getattr(args, name, None)
        if flag is not None:
            values[name] = tuple(flag) if isinstance(defaults[name], tuple) else flag
    cfg = RunConfig(**values)
    cfg.validate()
    return cfg


def _add_analysis_flags(p: argparse.ArgumentParser):
    g = p.add_argument_group("preprocess")
    g.add_argument("--sg-window", dest="sg_window", type=int)
    g.add_argument("--sg-order", dest="sg_order", type=int)
    g.add_argument("--clamp", dest="clamp", type=float)
    g.add_argument("--window-len", dest="window_len", type=int)
    g.add_argument("--missing-max-frac", dest="missing_max_frac", type=float)
    g.add_argument("--norm-scope", dest="norm_scope", choices=["corpus", "recording", "none"])
    g.add_argument("--eye", dest="eye", choices=["left", "right"])
    g = p.add_argument_group("detect")
    g.add_argument("--fix-max-velocity", dest="fix_max_velocity", type=float)
    g.add_argument("--fix-min-duration-ms", dest="fix_min_duration_ms", type=float)
    g.add_argument("--fix-max-dispersion-deg", dest="fix_max_dispersion_deg", type=float)
    g.add_argument("--sacc-lambda", dest="sacc_lambda", type=float)
    g.add_argument("--sacc-min-duration-ms", dest="sacc_min_duration_ms", type=float)
    g.add_argument("--sacc-max-duration-ms", dest="sacc_max_duration_ms", type=float)
    g.add_argument("--sacc-min-peak-velocity", dest="sacc_min_peak_velocity", type=float)
    g.add_argument("--sacc-max-peak-velocity", dest="sacc_max_peak_velocity", type=float)
    g.add_argument("--eta-floor", dest="eta_floor", type=float)
    g = p.add_argument_group("dissect")
    g.add_argument("--peak-ratio", dest="peak_ratio", type=float)
    g.add_argument("--flank-ratio", dest="flank_ratio", type=float)
    g = p.add_argument_group("influence")
    g.add_argument("--top-frac", dest="top_frac", type=float)
    g.add_argument("--squash", dest="squash", choices=["signed", "abs"])
    g.add_argument("--aggregate", dest="aggregate", choices=["pooled", "mean", "both"])
    g = p.add_argument_group("binning")
    g.add_argument("--bins", dest="bins", type=int)
    g.add_argument("--bin-mode", dest="bin_mode", choices=["width", "quantile", "explicit"])
    g.add_argument(
        "--bin-edges", dest="bin_edges",
        type=lambda s: [float(t) for t in s.split(",") if t.strip()],
    )
    g.add_argument(
        "--property", dest="properties", action="append",
        choices=sorted(binning_mod.PROPERTIES),
    )
    g = p.add_argument_group("report")
    g.add_argument("--format", dest="format", choices=["csv", "json"])
    g.add_argument("--charts", dest="charts", action=argparse.BooleanOptionalAction)


def _out_dir(args, manifest=None) -> Path:
    if getattr(args, "out", None):
        return Path(args.out)
    env = os.environ.get(ENV_OUT)
    if env:
        return Path(env)
    if manifest is not None and manifest.output_dir:
        return manifest.resolve(manifest.output_dir)
    return Path("out")


def cmd_synth(args) -> int:
    spec = CorpusSpec(
        seed=args.seed,
        n_recordings=args.recordings,
        duration_s=args.duration_s,
        window_len=args.window_len if args.window_len else 1000,
        noise_velocity_sigma_dps=args.noise_vel_sigma,
        attribution_mode=args.attr_mode,
        saccade_ms=tuple(args.saccade_ms),
        peak_velocity_dps=tuple(args.peak_dps),
        fixation_ms=tuple(args.fixation_ms),
    )
    out = _out_dir(args)
    manifest_path = write_demo_corpus(out, spec)
    print(f"wrote corpus with manifest {manifest_path}")
    return 0


def cmd_run(args) -> int:
    manifest = gio.load_manifest(args.manifest)
    cfg = resolve_config(args, extra_config=manifest.config)
    if args.jobs is not None:
        cfg.jobs = args.jobs
    out = _out_dir(args, manifest)
    result = run(manifest, cfg, out)
    n_events = sum(len(b.fixations) + len(b.saccades) for b in result.bundles)
    print(
        f"run complete: {len(result.bundles)} windows, {n_events} events, "
        f"artifacts in {out}"
    )
    return 0


def _windows_path(args, out: Path) -> Path:
    return Path(args.windows) if args.windows else out / "windows.npz"


def _manifest_windows(args, manifest, out: Path) -> list:
    """(window, attribution path) per manifest entry, from the windows file."""
    windows = {w.window_id: w for w in gio.read_windows(_windows_path(args, out))}
    pairs = []
    for entry in manifest.entries:
        if entry.window_id not in windows:
            raise DataError(f"manifest window {entry.window_id!r} not in windows file")
        pairs.append((windows[entry.window_id], manifest.resolve(entry.attribution)))
    return pairs


def _events_by_window(out: Path, windows) -> dict:
    """events.csv grouped by window, in window order."""
    by_window = {w.window_id: [] for w in windows}
    for e in gio.read_events(out / "events.csv"):
        if e.window_id not in by_window:
            raise DataError(f"event {e.event_id} references unknown window {e.window_id}")
        by_window[e.window_id].append(e)
    return by_window


def cmd_preprocess(args) -> int:
    manifest = gio.load_manifest(args.manifest)
    cfg = resolve_config(args, extra_config=manifest.config)
    out = _out_dir(args, manifest)
    out.mkdir(parents=True, exist_ok=True)
    pre = preprocess_manifest(manifest, cfg)
    path = _windows_path(args, out)
    gio.write_windows(pre.windows, path)
    report_mod.write_report_json(_preprocess_counts(pre), out / "preprocess_stats.json")
    print(f"wrote {len(pre.windows)} windows to {path}")
    return 0


def cmd_detect(args) -> int:
    cfg = resolve_config(args)
    out = _out_dir(args)
    events = []
    for w in gio.read_windows(_windows_path(args, out)):
        fixations, saccades = detect_window(w, cfg)
        events += fixations + saccades
    gio.write_events(events, out / "events.csv")
    kept = len(retained(events))
    print(f"wrote {len(events)} events ({kept} retained) to {out / 'events.csv'}")
    return 0


def cmd_dissect(args) -> int:
    cfg = resolve_config(args)
    out = _out_dir(args)
    windows = gio.read_windows(_windows_path(args, out))
    by_window = _events_by_window(out, windows)
    dissections = []
    for w in windows:
        saccades = [e for e in by_window[w.window_id] if e.kind == SACCADE]
        dissections += dissect_all(saccades, w, cfg.peak_ratio, cfg.flank_ratio)
    subs = [s for d in dissections for s in d.sub_events]
    gio.write_subevents(subs, out / "subevents.csv")
    events = [e for group in by_window.values() for e in group]
    stats = _dissection_counts(events, dissections)
    report_mod.write_report_json(stats, out / "dissect_stats.json")
    print(f"wrote {len(subs)} sub-events to {out / 'subevents.csv'}")
    return 0


def cmd_influence(args) -> int:
    manifest = gio.load_manifest(args.manifest)
    cfg = resolve_config(args, extra_config=manifest.config)
    out = _out_dir(args, manifest)
    pairs = _manifest_windows(args, manifest, out)
    events = _events_by_window(out, [w for w, _ in pairs])
    subs = {}
    for s in gio.read_subevents(out / "subevents.csv"):
        subs.setdefault(s.parent_event_id.rsplit(":", 1)[0], []).append(s)
    window_results = [
        window_influence(
            w, events[w.window_id], subs.get(w.window_id, []), window_topk(w, attr, cfg)
        )
        for w, attr in pairs
    ]
    corpus_results = _reduce_concepts(window_results)
    written = [write_influence(window_results, corpus_results, out, cfg)]
    written += write_charts(out, cfg, corpus_results=corpus_results)
    print(f"wrote {', '.join(str(p) for p in written)}")
    return 0


def cmd_bin(args) -> int:
    manifest = gio.load_manifest(args.manifest)
    cfg = resolve_config(args, extra_config=manifest.config)
    out = _out_dir(args, manifest)
    pairs = _manifest_windows(args, manifest, out)
    events = _events_by_window(out, [w for w, _ in pairs])
    # events.csv keeps 9 digits; bin on properties recomputed from the
    # exact windows, as `run` does
    kept = [
        compute_event_properties(e, w) for w, _ in pairs for e in retained(events[w.window_id])
    ]
    topk = {w.window_id: window_topk(w, attr, cfg) for w, attr in pairs}
    binned = _bin_all(kept, topk, cfg)
    written = [out / "binned.csv"]
    binning_mod.write_binned(binned, written[0])
    written += write_charts(out, cfg, binned=binned)
    print(f"wrote {', '.join(str(p) for p in written)}")
    return 0


def cmd_report(args) -> int:
    cfg = resolve_config(args)
    out = _out_dir(args)
    counts = _counts(
        json.loads((out / "preprocess_stats.json").read_text(encoding="utf-8")),
        gio.read_events(out / "events.csv"),
        json.loads((out / "dissect_stats.json").read_text(encoding="utf-8")),
    )
    # a concept absent from every window is skipped in all of them
    corpus = {c: (None, counts["windows"]["evaluated"]) for c in ALL_CONCEPTS}
    for r in gio.read_report(out / f"influence.{cfg.format}", cfg.format):
        if r.scope == "corpus":
            corpus[r.concept] = (r, r.n_skipped)
    binned = binning_mod.read_binned(out / "binned.csv")
    binned = {prop: binned.get(prop, []) for prop in cfg.properties}
    doc = report_mod.summarize(cfg.analysis_dict(), counts, corpus, binned)
    report_mod.write_report_json(doc, out / "report.json")
    print(f"wrote {out / 'report.json'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gazeconcepts", description=__doc__)
    sub = parser.add_subparsers(dest="cmd")

    p = sub.add_parser("synth", help="generate the synthetic demo corpus")
    p.add_argument("--out", help=f"output directory (default ${ENV_OUT} or ./out)")
    p.add_argument("--seed", type=int, default=20230403)
    p.add_argument("--recordings", type=int, default=4)
    p.add_argument("--duration-s", type=float, default=130.0)
    p.add_argument("--window-len", type=int, default=None)
    p.add_argument("--noise-vel-sigma", type=float, default=0.5,
                   help="velocity noise sigma in deg/s")
    p.add_argument("--attr-mode", choices=ATTRIBUTION_MODES, default="speed")
    p.add_argument("--saccade-ms", nargs=2, type=float, default=[20.0, 60.0])
    p.add_argument("--peak-dps", nargs=2, type=float, default=[100.0, 400.0])
    p.add_argument("--fixation-ms", nargs=2, type=float, default=[80.0, 250.0])
    p.set_defaults(func=cmd_synth)

    def stage(name, help_, needs_manifest):
        sp = sub.add_parser(name, help=help_)
        if needs_manifest:
            sp.add_argument("--manifest", required=True)
        sp.add_argument("--out")
        sp.add_argument("--config")
        sp.add_argument("--windows", help="windows.npz path (default <out>/windows.npz)")
        _add_analysis_flags(sp)
        return sp

    stage("preprocess", "recordings to velocity windows", True).set_defaults(
        func=cmd_preprocess
    )
    stage("detect", "windows to fixation/saccade events", False).set_defaults(
        func=cmd_detect
    )
    stage("dissect", "saccades to phase sub-events", False).set_defaults(
        func=cmd_dissect
    )
    stage("influence", "concept influence per window and corpus", True).set_defaults(
        func=cmd_influence
    )
    stage("bin", "per-property binned influence", True).set_defaults(func=cmd_bin)
    stage("report", "summary document", False).set_defaults(func=cmd_report)

    p = sub.add_parser("run", help="full pipeline from a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out")
    p.add_argument("--config")
    p.add_argument("--jobs", type=int, default=None)
    _add_analysis_flags(p)
    p.set_defaults(func=cmd_run)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "cmd", None) is None:
            parser.print_help()
            return 1
        return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except GazeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
