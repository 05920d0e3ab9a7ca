"""gazeconcepts benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload demo_run --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`. The corpus is generated from --seed with
`gazeconcepts.synth.write_demo_corpus`; every set-up and every pass runs
in a fresh process (perfbench/worker.py), one at a time. Passes repeat
until their timed wall time adds up to --seconds, and every pass's
outputs are checked outside the timed region.

--trace 0 prints the end-to-end metrics of BENCHMARK.json, medians over
passes. --trace 1 alternates untraced and traced passes and prints the
per-layer metrics, medians over the traced passes, plus
trace.overhead_frac (traced / untraced median wall time - 1).

Human-readable lines come first; the last stdout line is the JSON
result. Work files live in .perfbench/<workload>/ and are removed at the
end; the result (with git SHA, nproc, Python and numpy versions) is kept
in .perfbench/results/ and a traced run's spans in .perfbench/traces/.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
SETUPS = 3  # set-ups per untraced run; setup_s is their median
STEP_TIMEOUT_S = 170
DEADLINE_S = 165  # no new pass starts if it would likely end past this


@dataclass(frozen=True)
class Workload:
    mode: str  # "run": pipeline.run; "staged": cli.main per subcommand
    corpus: dict = field(default_factory=dict)  # CorpusSpec fields besides seed
    config: dict = field(default_factory=dict)  # RunConfig fields


def workloads(nproc: int) -> dict:
    return {
        # CorpusSpec() defaults: 4 x 130 s at 1 kHz, 520 windows of 1000.
        "demo_run": Workload("run", config={"jobs": 1}),
        # 4 x 65 s, windows of 250 (k=5), short events, uniform-random maps.
        "dense_run": Workload(
            "run",
            corpus={
                "duration_s": 65.0,
                "window_len": 250,
                "fixation_ms": [60.0, 120.0],
                "saccade_ms": [12.0, 40.0],
                "attribution_mode": "uniform_random",
            },
            config={"window_len": 250, "jobs": min(2, nproc)},
        ),
        # demo_run's corpus through the six staged subcommands.
        "staged_chain": Workload("staged"),
    }


def git_sha(root: Path) -> str:
    """HEAD of a checkout's .git directory, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def step(*args) -> dict:
    """Run one worker step in a fresh process; its last stdout line is JSON."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *map(str, args)],
        capture_output=True, text=True, timeout=STEP_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def check_pass(name: str, out: Path, corpus: Path, reference: Path | None):
    """Problems with one pass's outputs, and the staged divergence count."""
    if name == "demo_run":
        return checks.check_speed_proxy(out, corpus, window_len=1000), None
    if name == "dense_run":
        return checks.check_uniform_calibration(out), None
    diverged = checks.divergent_artifacts(out, reference)
    return checks.check_staged(diverged), len(diverged)


def median(values) -> float:
    return float(statistics.median(values))


def run_passes(args, wl: Workload, work: Path, reference, began: float) -> list:
    """Timed passes until --seconds of timed wall time (untraced and traced
    alternately with --trace 1), each checked after its timed region."""
    corpus = work / "corpus"
    kinds = itertools.cycle((False, True)) if args.trace else itertools.repeat(False)
    passes, report_digest = [], None
    timed = longest = 0.0
    for index, traced in enumerate(kinds):
        enough = timed >= args.seconds and (not args.trace or len(passes) >= 2)
        late = passes and time.monotonic() - began + longest > DEADLINE_S
        if enough or late:
            return passes
        out = work / f"pass{index}"
        span_file = work / f"spans{index}.json"
        extra = ("--spans", span_file, "--pass-id", index) if traced else ()
        started = time.monotonic()
        record = {"pass": index, "traced": traced, "problems": []}
        try:
            record.update(step(
                "pass", "--mode", wl.mode, "--corpus", corpus, "--out", out,
                "--config", json.dumps(wl.config), *extra,
            ))
        except (RuntimeError, subprocess.TimeoutExpired) as e:
            record["problems"].append(str(e))
        else:
            timed += record["wall_s"]
            record["bytes_written"] = dir_bytes(out)
            problems, record["divergent"] = check_pass(args.workload, out, corpus, reference)
            record["problems"] += problems
            d = checks.digest(out / "report.json")
            report_digest = report_digest or d
            if d != report_digest:
                record["problems"].append("report.json differs from the first pass")
            if traced:
                record["spans"] = json.loads(span_file.read_text(encoding="utf-8"))
        shutil.rmtree(out, ignore_errors=True)
        longest = max(longest, time.monotonic() - started)
        passes.append(record)


def metric_values(args, passes: list, setups: list) -> dict:
    """End-to-end metrics from untraced passes, or per-layer ones from
    traced passes (--trace 1)."""
    ok = [p for p in passes if "wall_s" in p]
    plain = [p for p in ok if not p["traced"]]
    if not args.trace:
        return {
            "wall_s": median(p["wall_s"] for p in plain),
            "windows_per_s": median(p["windows"] / p["wall_s"] for p in plain),
            "cpu_s": median(p["cpu_s"] for p in plain),
            "peak_rss_mb": median(p["peak_rss_mb"] for p in plain),
            "bytes_written_mb": median(p["bytes_written"] / 1e6 for p in plain),
            "setup_s": median(s["setup_s"] for s in setups),
        }
    traced = [p for p in ok if p["traced"]]
    layers = [spans.layer_metrics(p["spans"], p["wall_s"]) for p in traced]
    values = {name: median(m[name] for m in layers) for name in layers[0]}
    values["trace.overhead_frac"] = (
        median(p["wall_s"] for p in traced) / median(p["wall_s"] for p in plain) - 1.0
    )
    values["staged_divergent_artifacts"] = max(
        (p["divergent"] for p in ok if p["divergent"] is not None), default=0
    )
    return values


def main(argv=None) -> int:
    nproc = len(os.sched_getaffinity(0))
    table = workloads(nproc)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(table), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "gazeconcepts" / "__init__.py").is_file() or not bench_file.is_file():
        print(f"error: {ROOT} is not a gazeconcepts checkout (need src/ and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    declared = json.loads(bench_file.read_text(encoding="utf-8"))[
        "per_layer" if args.trace else "end_to_end"
    ]
    wl = table[args.workload]
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(args, wl, work, declared, nproc)
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, wl: Workload, work: Path, declared: list, nproc: int) -> int:
    began = time.monotonic()
    spec = {"seed": args.seed, **wl.corpus}
    corpus = work / "corpus"
    setups = []
    for _ in range(1 if args.trace else SETUPS):
        shutil.rmtree(corpus, ignore_errors=True)
        setups.append(step("setup", "--corpus", corpus, "--spec", json.dumps(spec)))

    reference = None
    if wl.mode == "staged":  # what `run` writes for the same corpus, untimed
        reference = work / "reference"
        step("pass", "--mode", "run", "--corpus", corpus, "--out", reference)

    passes = run_passes(args, wl, work, reference, began)
    failed = sum(bool(p["problems"]) for p in passes)
    measured = {p["traced"] for p in passes if "wall_s" in p}
    if measured != ({False, True} if args.trace else {False}):
        for p in passes:
            print(f"pass {p['pass']}: {'; '.join(p['problems'])}", file=sys.stderr)
        return 1
    values = metric_values(args, passes, setups)
    if sorted(values) != sorted(m["name"] for m in declared):
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "corpus_spec": spec,
        "run_config": wl.config,
        "git_sha": git_sha(ROOT),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": setups[0]["numpy"],
    }
    divergent = [p["divergent"] for p in passes if p.get("divergent") is not None]
    print("meta " + json.dumps(meta))
    for p in passes:
        status = "; ".join(p["problems"]) or "ok"
        print(f"pass {p['pass']} traced={int(p['traced'])} "
              f"wall_s={p.get('wall_s', float('nan')):.4f} check={status}")
    print(f"failed_frac {failed / len(passes):.4f} ({failed}/{len(passes)} passes)")
    if divergent and "staged_divergent_artifacts" not in metrics:
        print(f"staged_divergent_artifacts {max(divergent)} count")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    all_spans = [s for p in passes for s in p.pop("spans", [])]
    if all_spans:
        (WORK / "traces").mkdir(exist_ok=True)
        (WORK / "traces" / f"{stem}.json").write_text(json.dumps(all_spans))
    (WORK / "results").mkdir(exist_ok=True)
    (WORK / "results" / f"{stem}.json").write_text(json.dumps(
        {"meta": meta, "setups": setups, "passes": passes, "metrics": metrics}, indent=1
    ))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(passes),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
