"""One benchmark step in a fresh process: corpus set-up or one timed pass.

    python3 perfbench/worker.py setup --corpus DIR --spec JSON
    python3 perfbench/worker.py pass --mode run|staged --corpus DIR --out DIR
        --config JSON [--spans FILE --pass-id N]

The last line on stdout is a JSON object with the step's measurements.
gazeconcepts is imported from the checkout's `src/`, inside the timed
region for set-up and before it for a pass. A pass with --spans runs
under the tracer and writes its spans to FILE after the timed region.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
STAGED_CHAIN = (
    ("preprocess", True),
    ("detect", False),
    ("dissect", False),
    ("influence", True),
    ("bin", True),
    ("report", False),
)


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def setup(corpus: Path, spec: dict) -> dict:
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    from gazeconcepts.synth import CorpusSpec, write_demo_corpus

    fields = {k: tuple(v) if isinstance(v, list) else v for k, v in spec.items()}
    write_demo_corpus(corpus, CorpusSpec(**fields))
    return {"setup_s": time.perf_counter() - start, "numpy": numpy.__version__}


def run_pass(mode: str, corpus: Path, out: Path, config: dict, spans_path, pass_id) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from gazeconcepts import cli, pipeline
    from gazeconcepts import io as gio

    manifest_path = corpus / "manifest.json"

    def one_pass():
        if mode == "run":
            manifest = gio.load_manifest(manifest_path)
            pipeline.run(manifest, pipeline.RunConfig(**config), out)
            return
        for sub, needs_manifest in STAGED_CHAIN:
            argv = [sub, "--out", str(out)]
            if needs_manifest:
                argv += ["--manifest", str(manifest_path)]
            if cli.main(argv) != 0:
                raise SystemExit(f"gazeconcepts {sub} failed")

    tracer = None
    quiet = contextlib.redirect_stdout(io.StringIO())  # cli prints progress
    if spans_path:
        import spans  # perfbench/ is sys.path[0] for this script

        tracer = spans.Tracer(pass_id)
        traced = spans.instrument(tracer)
    else:
        traced = contextlib.nullcontext()
    with quiet, traced:
        cpu0 = _cpu_s()
        start = time.perf_counter()
        one_pass()
        wall = time.perf_counter() - start
        cpu = _cpu_s() - cpu0
    if tracer is not None:
        Path(spans_path).write_text(json.dumps(tracer.spans), encoding="utf-8")
    windows = len(json.loads(manifest_path.read_text(encoding="utf-8"))["entries"])
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "windows": windows,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="step", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--corpus", type=Path, required=True)
    p.add_argument("--spec", type=json.loads, required=True)
    p = sub.add_parser("pass")
    p.add_argument("--mode", choices=("run", "staged"), required=True)
    p.add_argument("--corpus", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--config", type=json.loads, default={})
    p.add_argument("--spans")
    p.add_argument("--pass-id", type=int, default=0)
    args = parser.parse_args(argv)
    if args.step == "setup":
        result = setup(args.corpus, args.spec)
    else:
        result = run_pass(
            args.mode, args.corpus, args.out, args.config, args.spans, args.pass_id
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
