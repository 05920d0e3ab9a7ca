#!/usr/bin/env python3
"""End-to-end demo: synthesize a corpus, run the pipeline, print the
concept influence table.

The run mirrors the headline experiment: speed-proxy attributions make
saccades (and especially their peak phase) highly influential while
fixations stay near zero; rerunning with --attr-mode uniform_random
calibrates every concept to an influence near 1.
"""

import argparse
import json
import tempfile
from pathlib import Path

from gazeconcepts.io import load_manifest
from gazeconcepts.pipeline import RunConfig, run
from gazeconcepts.synth import ATTRIBUTION_MODES, CorpusSpec, write_demo_corpus


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default=None, help="working directory (default: temp)")
    ap.add_argument("--seed", type=int, default=20230403)
    ap.add_argument("--recordings", type=int, default=2)
    ap.add_argument("--duration-s", type=float, default=30.0)
    ap.add_argument("--attr-mode", default="speed", choices=ATTRIBUTION_MODES)
    args = ap.parse_args(argv)

    root = Path(args.out) if args.out else Path(tempfile.mkdtemp(prefix="gazeconcepts_"))
    corpus = root / "corpus"
    spec = CorpusSpec(
        seed=args.seed,
        n_recordings=args.recordings,
        duration_s=args.duration_s,
        attribution_mode=args.attr_mode,
    )
    manifest_path = write_demo_corpus(corpus, spec)
    manifest = load_manifest(manifest_path)
    result = run(manifest, RunConfig(), root / "out")

    print(f"windows evaluated: {len(result.influence)}")
    print(f"{'concept':<18} {'c_pooled':>9} {'c_mean':>9} {'top-k hits':>10} {'|S|/L':>7}")
    for concept in sorted(result.corpus_results):
        agg, skipped = result.corpus_results[concept]
        if agg is None:
            continue
        rel = agg.S_total / agg.L_total
        print(f"{concept:<18} {agg.c:>9.3f} {agg.c_mean:>9.3f} "
              f"{agg.intersection:>10d} {rel:>7.3f}")
    report = root / "out" / "report.json"
    doc = json.loads(report.read_text())
    print(f"\nevents: {doc['counts']['events']}")
    print(f"artifacts in {root / 'out'}")


if __name__ == "__main__":
    main()
