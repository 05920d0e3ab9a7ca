"""Subcommand front-end: synth, preprocess, detect, dissect, influence,
bin, report, and run.

The analysis flags are the RunConfig fields (sg_window is --sg-window)
and take the same values as config-file keys. Precedence for every
parameter is CLI flag over config file over built-in default. The config
file is INI-style; keys may live in any section and must name RunConfig
fields. It is --config, else the manifest's `config`, resolved next to
the manifest. Every subcommand but synth takes --manifest; preprocess,
influence, bin and run require it. The output directory is --out, else
$GAZECONCEPTS_OUT, else the manifest's `output_dir`, else ./out. --jobs
is accepted and has no effect.
Exit codes: 0 success, 1 usage/configuration, 2 data, 3 I/O.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
from dataclasses import fields
from pathlib import Path

from . import binning as binning_mod
from . import io as gio
from . import report as report_mod
from .detect import event_properties, retained
from .errors import ConfigError, DataError, FormatError, GazeError
from .influence import InfluenceResult, default_k
from .pipeline import (
    ALL_CONCEPTS,
    CHOICES,
    RunConfig,
    _bin_all,
    _counts,
    _dissection_counts,
    _preprocess_counts,
    detect_windows,
    dissect_windows,
    preprocess_manifest,
    run,
    score_windows,
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
        raise ConfigError(f"parameter {name}: cannot parse {raw!r}") from None


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


def resolve_config(args, config_path) -> RunConfig:
    """defaults < config file < CLI flags, every value parsed by _coerce."""
    defaults = _field_defaults()
    values = dict(defaults)
    if config_path:
        for key, raw in _load_ini(config_path).items():
            if key not in defaults:
                raise ConfigError(f"unknown config key {key!r}")
            values[key] = _coerce(key, raw, defaults[key])
    for name, default in defaults.items():
        flag = getattr(args, name, None)
        if isinstance(flag, str):
            values[name] = _coerce(name, flag, default)
        elif flag is not None:  # --charts/--no-charts, repeated --property
            values[name] = tuple(flag) if isinstance(default, tuple) else flag
    cfg = RunConfig(**values)
    cfg.validate()
    return cfg


def _add_analysis_flags(p: argparse.ArgumentParser):
    """One flag per RunConfig field but jobs: --field-name, read as a
    string; bools as --x/--no-x and properties as repeatable --property."""
    for name, default in _field_defaults().items():
        if name == "jobs":
            continue
        flag = "--" + name.replace("_", "-")
        if name == "properties":
            p.add_argument("--property", dest=name, action="append",
                           choices=sorted(binning_mod.PROPERTIES))
        elif isinstance(default, bool):
            p.add_argument(flag, dest=name, action=argparse.BooleanOptionalAction)
        else:
            p.add_argument(flag, dest=name, choices=CHOICES.get(name))


def _out_dir(args, manifest=None) -> Path:
    if getattr(args, "out", None):
        return Path(args.out)
    env = os.environ.get(ENV_OUT)
    if env:
        return Path(env)
    if manifest is not None and manifest.output_dir:
        return manifest.resolve(manifest.output_dir)
    return Path("out")


def _context(args):
    """(manifest or None, RunConfig, output directory) of a subcommand.
    The config file is --config, else the manifest's config resolved next
    to the manifest."""
    manifest = gio.load_manifest(args.manifest) if args.manifest else None
    config_path = args.config
    if not config_path and manifest is not None and manifest.config:
        config_path = manifest.resolve(manifest.config)
    return manifest, resolve_config(args, config_path), _out_dir(args, manifest)


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
    manifest, cfg, out = _context(args)
    result = run(manifest, cfg, out)
    print(
        f"run complete: {len(result.influence)} windows, {len(result.events)} "
        f"events, artifacts in {out}"
    )
    return 0


def _manifest_windows(manifest, out: Path):
    """The windows file's windows in manifest order (the file's own stack
    when the orders agree) and each one's attribution path."""
    windows = gio.read_windows(out / "windows.npz")
    row_of = {window_id: row for row, window_id in enumerate(windows.window_ids)}
    rows = []
    for entry in manifest.entries:
        if entry.window_id not in row_of:
            raise DataError(f"manifest window {entry.window_id!r} not in windows file")
        rows.append(row_of[entry.window_id])
    if rows != list(range(len(windows))):
        windows = windows.take(rows)
    return windows, [manifest.resolve(entry.attribution) for entry in manifest.entries]


def _read_stats(path: Path, *keys) -> dict:
    """A stage's JSON stats file, which must hold every key in `keys`
    ("a.b" is key b inside block a); FormatError naming the file if not."""
    doc = gio.read_json(path)
    for key in keys:
        block = doc
        for part in key.split("."):
            if not isinstance(block, dict) or part not in block:
                raise FormatError(f"{path}: no {key!r} entry")
            block = block[part]
    return doc


def cmd_preprocess(args) -> int:
    manifest, cfg, out = _context(args)
    out.mkdir(parents=True, exist_ok=True)
    pre = preprocess_manifest(manifest, cfg)
    path = out / "windows.npz"
    gio.write_windows(pre.windows, path)
    report_mod.write_report_json(_preprocess_counts(pre), out / "preprocess_stats.json")
    print(f"wrote {len(pre.windows)} windows to {path}")
    return 0


def cmd_detect(args) -> int:
    _, cfg, out = _context(args)
    windows = gio.read_windows(out / "windows.npz")
    events = detect_windows(windows, cfg)
    gio.write_events(events, out / "events.csv")
    kept = len(retained(events))
    print(f"wrote {len(events)} events ({kept} retained) to {out / 'events.csv'}")
    return 0


def cmd_dissect(args) -> int:
    _, cfg, out = _context(args)
    windows = gio.read_windows(out / "windows.npz")
    events = gio.read_events(out / "events.csv", windows)
    # peaks come from the windows' exact speeds, not events.csv's 9 digits
    subs = dissect_windows(windows, events, cfg)
    gio.write_subevents(subs, out / "subevents.csv")
    report_mod.write_report_json(_dissection_counts(subs), out / "dissect_stats.json")
    print(f"wrote {len(subs)} sub-events to {out / 'subevents.csv'}")
    return 0


def cmd_influence(args) -> int:
    manifest, cfg, out = _context(args)
    windows, attribution_paths = _manifest_windows(manifest, out)
    events = gio.read_events(out / "events.csv", windows)
    subs = gio.read_subevents(out / "subevents.csv", events, windows.length)
    topk, table = score_windows(windows, attribution_paths, events, subs, cfg)
    written = [out / "topk.npz"]
    gio.write_topk(table.window_ids, topk, written[0], cfg.squash)
    written.append(write_influence(table, out, cfg))
    written += write_charts(out, cfg, corpus_results=table.pooled())
    print(f"wrote {', '.join(str(p) for p in written)}")
    return 0


def _read_topk(path: Path, windows, cfg: RunConfig):
    """topk.npz's (n, L) masks, rows aligned with `windows`, and k.
    DataError naming the file if `influence` wrote it for other windows,
    another k or another squash mode."""
    length = windows.length
    window_ids, topk, k, squash = gio.read_topk(path, length)
    if window_ids != windows.window_ids:
        raise DataError(f"{path}: window ids differ from the manifest's; rerun influence")
    want_k = default_k(length, cfg.top_frac)
    if windows and k != want_k:
        raise DataError(
            f"{path}: k={k}, but top_frac {cfg.top_frac} of {length} steps gives "
            f"k={want_k}; rerun influence"
        )
    if squash != cfg.squash:
        raise DataError(
            f"{path}: squash {squash!r}, but this run uses {cfg.squash!r}; rerun influence"
        )
    return topk, k


def cmd_bin(args) -> int:
    manifest, cfg, out = _context(args)
    windows, _ = _manifest_windows(manifest, out)
    # events.csv keeps 9 digits; bin on properties recomputed from the
    # exact windows, as `run` does
    kept = event_properties(retained(gio.read_events(out / "events.csv", windows)), windows)
    binned = _bin_all(kept, *_read_topk(out / "topk.npz", windows, cfg), cfg)
    written = [out / "binned.csv"]
    binning_mod.write_binned(binned, written[0])
    written += write_charts(out, cfg, binned=binned)
    print(f"wrote {', '.join(str(p) for p in written)}")
    return 0


def cmd_report(args) -> int:
    _, cfg, out = _context(args)
    counts = _counts(
        _read_stats(out / "preprocess_stats.json", "windows.evaluated", "channel_stats"),
        gio.read_events(out / "events.csv"),
        _read_stats(out / "dissect_stats.json", "saccades_dissected",
                    "disregarded_samples", "disregarded_fraction"),
    )
    # a concept absent from every window is skipped in all of them
    corpus = {c: (None, counts["windows"]["evaluated"]) for c in ALL_CONCEPTS}
    table = gio.read_report(out / f"influence.{cfg.format}", cfg.format)
    for i, scope in enumerate(table["scope"]):
        if scope == "corpus":
            r = InfluenceResult(**{name: values[i] for name, values in table.items()})
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

    def stage(name, help_, func, manifest_required):
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("--manifest", required=manifest_required)
        sp.add_argument("--out")
        sp.add_argument("--config")
        _add_analysis_flags(sp)
        sp.set_defaults(func=func)
        return sp

    stage("preprocess", "recordings to velocity windows", cmd_preprocess, True)
    stage("detect", "windows to fixation/saccade events", cmd_detect, False)
    stage("dissect", "saccades to phase sub-events", cmd_dissect, False)
    stage("influence", "concept influence per window and corpus", cmd_influence, True)
    stage("bin", "per-property binned influence", cmd_bin, True)
    stage("report", "summary document", cmd_report, False)
    stage("run", "full pipeline from a manifest", cmd_run, True).add_argument(
        "--jobs", help="accepted for compatibility; has no effect"
    )
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
