"""scripts/run_demo.py end to end on a one-recording corpus."""

import importlib.util
from pathlib import Path

from gazeconcepts.influence import ALL_CONCEPTS

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_demo.py"


def test_run_demo_prints_every_concept(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("run_demo", SCRIPT)
    run_demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run_demo)
    run_demo.main(["--recordings", "1", "--duration-s", "4", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert "windows evaluated: 4" in out
    printed = [line.split()[0] for line in out.splitlines() if line.strip()]
    assert [c for c in printed if c in ALL_CONCEPTS] == sorted(ALL_CONCEPTS)
    assert (tmp_path / "out" / "report.json").exists()
