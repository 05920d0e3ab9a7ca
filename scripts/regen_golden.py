#!/usr/bin/env python3
"""Overwrite tests/golden/ with what the current code produces.

Regenerating is a deliberate act: do it only when an artifact is meant
to change, or when tests/test_golden.py reports that the generated
corpus inputs changed, and record each regeneration in CHANGES.md. It
prints every golden file it changed, added or removed.

    python scripts/regen_golden.py
"""

import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from test_golden import GOLDEN, files_under, inputs_digest, produce  # noqa: E402


def snapshot() -> dict:
    """Every golden file's bytes by its path under tests/golden/."""
    return {name: (GOLDEN / name).read_bytes() for name in files_under(GOLDEN)}


def main():
    before = snapshot()
    with tempfile.TemporaryDirectory(prefix="gazeconcepts_golden_") as tmp:
        corpus, run_out, _ = produce(Path(tmp))
        shutil.rmtree(GOLDEN, ignore_errors=True)
        shutil.copytree(run_out, GOLDEN / "run")
        shutil.copy2(corpus / "gt_events.csv", GOLDEN / "gt_events.csv")
        digest = inputs_digest(corpus)
        (GOLDEN / "inputs.sha256").write_text(f"{digest}  corpus inputs\n")
    after = snapshot()
    for name in sorted(before.keys() | after.keys()):
        if name not in after:
            print(f"removed {name}")
        elif name not in before:
            print(f"added {name}")
        elif before[name] != after[name]:
            print(f"changed {name}")
    print(f"wrote {len(after)} files to {GOLDEN}; inputs sha256 {digest}")


if __name__ == "__main__":
    main()
