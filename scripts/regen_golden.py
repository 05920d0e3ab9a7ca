#!/usr/bin/env python3
"""Overwrite tests/golden/ with what the current code produces.

Regenerating is a deliberate act: do it only when an artifact is meant
to change, or when tests/test_golden.py reports that the generated
corpus inputs changed, and record each regeneration in CHANGES.md.

    python scripts/regen_golden.py
"""

import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from test_golden import GOLDEN, STAGE_ONLY, files_under, inputs_digest, produce  # noqa: E402


def main():
    with tempfile.TemporaryDirectory(prefix="gazeconcepts_golden_") as tmp:
        corpus, run_out, staged = produce(Path(tmp))
        shutil.rmtree(GOLDEN, ignore_errors=True)
        shutil.copytree(run_out, GOLDEN / "run")
        (GOLDEN / "staged").mkdir()
        for name in STAGE_ONLY:
            shutil.copy2(staged / name, GOLDEN / "staged" / name)
        shutil.copy2(corpus / "gt_events.csv", GOLDEN / "gt_events.csv")
        digest = inputs_digest(corpus)
        (GOLDEN / "inputs.sha256").write_text(f"{digest}  corpus inputs\n")
    print(f"wrote {len(files_under(GOLDEN))} files to {GOLDEN}; inputs sha256 {digest}")


if __name__ == "__main__":
    main()
