"""Subcommand front-end: synth, preprocess, detect, dissect, influence,
bin, report, and run.

Every analysis flag, such as --sg-window, is also a config-file key,
sg_window, that takes the same values. A parameter comes from its flag,
else from the config file, else from its built-in default. The config
file is INI-style, with keys in any section, [DEFAULT] too; an unknown
key is an error. It is --config, else the manifest's `config`, resolved
next to the manifest. Every subcommand but synth takes
--manifest; preprocess, influence and run require it. The staged
subcommands run in the order above, each reading what the earlier ones
wrote; a manifest given to one after preprocess must name the windows
that preprocess wrote, in their order. The output directory is --out,
else $GAZECONCEPTS_OUT, else the manifest's `output_dir`, else ./out.
`run --jobs N` with N > 1, the staged subcommands and synth use more
than one process where fork and more than one CPU are available; the
outputs are the bytes of one process. A worker process that dies fails
the command with one error line, exit 3.
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
from .errors import ConfigError, GazeError
from .pipeline import CHOICES, RunConfig, run, staged
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
    """Every key of every section, later sections winning; [DEFAULT] is
    one of them, as no section is named "". ConfigError naming the file
    if it does not parse."""
    cp = configparser.ConfigParser(default_section="")
    try:
        if not cp.read(path, encoding="utf-8-sig"):
            raise OSError(f"config file not found: {path}")
        return {key: value for section in cp.sections() for key, value in cp.items(section)}
    except (configparser.Error, UnicodeDecodeError) as e:
        raise ConfigError(f"config file {path}: {' '.join(str(e).split())}") from None


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
    given = {name: tuple(value) if isinstance(value, list) else value
             for name, value in vars(args).items() if name not in ("cmd", "func", "out")}
    spec = CorpusSpec(**given)
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
    print(f"{'concept':<18} {'c_pooled':>9} {'c_mean':>9} {'top-k hits':>10} {'|S|/L':>7}")
    for concept, (r, _) in sorted(result.corpus_results.items()):
        if r is not None:
            print(f"{concept:<18} {r.c:>9.3f} {r.c_mean:>9.3f} {r.intersection:>10d} "
                  f"{r.S_total / r.L_total:>7.3f}")
    return 0


def _staged(stage: str, args) -> int:
    """A staged subcommand (pipeline.staged), then one line naming every
    file it wrote."""
    print(f"wrote {', '.join(map(str, staged(stage, *_context(args))))}")
    return 0


def cmd_preprocess(args) -> int:
    return _staged("preprocess", args)


def cmd_detect(args) -> int:
    return _staged("detect", args)


def cmd_dissect(args) -> int:
    return _staged("dissect", args)


def cmd_influence(args) -> int:
    return _staged("influence", args)


def cmd_bin(args) -> int:
    return _staged("bin", args)


def cmd_report(args) -> int:
    return _staged("report", args)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gazeconcepts", description=__doc__)
    sub = parser.add_subparsers(dest="cmd")

    # no defaults here: what is not given takes CorpusSpec's
    p = sub.add_parser("synth", help="generate the synthetic demo corpus",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--out", help=f"output directory (default ${ENV_OUT} or ./out)")
    p.add_argument("--seed", type=int)
    p.add_argument("--recordings", dest="n_recordings", type=int)
    p.add_argument("--duration-s", type=float)
    p.add_argument("--window-len", type=int)
    p.add_argument("--noise-vel-sigma", dest="noise_velocity_sigma_dps", type=float,
                   help="velocity noise sigma in deg/s")
    p.add_argument("--attr-mode", dest="attribution_mode", choices=ATTRIBUTION_MODES)
    p.add_argument("--saccade-ms", nargs=2, type=float)
    p.add_argument("--peak-dps", dest="peak_velocity_dps", nargs=2, type=float)
    p.add_argument("--fixation-ms", nargs=2, type=float)
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
    stage("bin", "per-property binned influence", cmd_bin, False)
    stage("report", "summary document", cmd_report, False)
    stage("run", "full pipeline from a manifest", cmd_run, True).add_argument(
        "--jobs", help="processes (default 1); every value gives the same outputs"
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
