"""Golden artifacts: `run` and the staged chain on a small seeded corpus
must reproduce the files under tests/golden/ byte for byte.

The corpus is `CorpusSpec(seed=1, n_recordings=2, duration_s=20,
window_len=250)` (160 windows) run with `--window-len 250`. Its input
files are pinned by one sha256 first: numpy does not promise the same
random streams across versions, and a changed input is a reason to
regenerate the golden files (`python scripts/regen_golden.py`), not a
pipeline regression.
"""

import difflib
import hashlib
from pathlib import Path

import pytest

from gazeconcepts.cli import main
from gazeconcepts.synth import CorpusSpec, write_demo_corpus

GOLDEN = Path(__file__).parent / "golden"
SPEC = CorpusSpec(seed=1, n_recordings=2, duration_s=20, window_len=250)
FLAGS = ("--window-len", "250")
STAGES = (("preprocess", True), ("detect", False), ("dissect", False),
          ("influence", True), ("bin", False), ("report", False))


def inputs_digest(corpus: Path) -> str:
    """sha256 over the names and bytes of every file `run` reads."""
    h = hashlib.sha256()
    files = [corpus / "manifest.json"]
    files += sorted((corpus / "recordings").iterdir())
    files += sorted((corpus / "attributions").iterdir())
    for p in files:
        h.update(p.relative_to(corpus).as_posix().encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def produce(root: Path):
    """Write the corpus, then run it and the staged chain under `root`.
    Returns (corpus dir, run output dir, staged output dir)."""
    manifest = write_demo_corpus(root / "corpus", SPEC)
    run_out, staged = root / "run", root / "staged"
    assert main(["run", "--manifest", str(manifest), "--out", str(run_out), *FLAGS]) == 0
    for sub, needs_manifest in STAGES:
        argv = [sub, "--out", str(staged), *FLAGS]
        argv += ["--manifest", str(manifest)] if needs_manifest else []
        assert main(argv) == 0, sub
    return manifest.parent, run_out, staged


def files_under(root: Path) -> list:
    return sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file())


def _mismatch(name: str, expected: bytes, actual: bytes) -> str:
    try:
        diff = difflib.unified_diff(
            expected.decode().splitlines(), actual.decode().splitlines(),
            f"golden/{name}", name, lineterm="", n=1,
        )
        return "\n".join(list(diff)[:40])
    except UnicodeDecodeError:
        return f"{name}: binary contents differ"


def assert_same_files(pairs):
    """pairs: (name, golden path, produced path); one report for all."""
    problems = [
        _mismatch(name, want.read_bytes(), got.read_bytes())
        for name, want, got in pairs
        if want.read_bytes() != got.read_bytes()
    ]
    assert not problems, "artifacts differ from tests/golden:\n" + "\n\n".join(problems)


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    corpus, run_out, staged = produce(tmp_path_factory.mktemp("golden"))
    pinned = (GOLDEN / "inputs.sha256").read_text().split()[0]
    if inputs_digest(corpus) != pinned:
        pytest.fail(
            "the generated corpus inputs changed (numpy random stream or gaze/"
            "attribution writer); this is not a pipeline regression. Check the "
            "cause, then regenerate with `python scripts/regen_golden.py` and "
            "record the regeneration in CHANGES.md"
        )
    return corpus, run_out, staged


def test_run_matches_golden(produced):
    corpus, run_out, _ = produced
    assert files_under(run_out) == files_under(GOLDEN / "run")
    pairs = [(name, GOLDEN / "run" / name, run_out / name) for name in files_under(run_out)]
    pairs.append(("gt_events.csv", GOLDEN / "gt_events.csv", corpus / "gt_events.csv"))
    assert_same_files(pairs)


def test_staged_chain_matches_golden(produced):
    """The staged chain writes `run`'s artifacts but run_log.json, plus its
    two binary stage files, which are checked through the artifacts
    computed from them."""
    _, run_out, staged = produced
    expected = [n for n in files_under(GOLDEN / "run") if n != "run_log.json"]
    assert files_under(staged) == sorted(expected + ["topk.npz", "windows.npz"])
    assert_same_files([(n, GOLDEN / "run" / n, staged / n) for n in expected])
