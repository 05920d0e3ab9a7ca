"""Dead-code gate: every top-level function and class in src/gazeconcepts/
is reachable from an entry point, or is listed in ALLOWED with a reason.

The roots are `cli.main`, the names `gazeconcepts/__init__.py` exports
and every name that module-level code (imports aside) mentions. A
definition reaches each top-level definition whose name it mentions, as
a name or as an attribute, in any module. The scan over-approximates:
it may miss dead code, but it does not flag live code.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gazeconcepts"
SPANS = ROOT / "perfbench" / "spans.py"

PINNED = "pinned by perfbench/spans.py until ROADMAP item 2 step 2"
# unreachable definitions kept on purpose, each with its reason
ALLOWED = {name: PINNED for name in (
    "detect_fixations_ivt", "detect_saccades_ek", "dissect_all",
    "concept_segmentation", "concept_influence", "aggregate_influence", "ConceptSegmentation",
    "normalized_windows", "window_segmentations",
    "compute_channel_stats", "zscore_normalize", "ChannelStats",
)}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
IMPORTS = (ast.Import, ast.ImportFrom)


def _mentions(node) -> set:
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


@pytest.fixture(scope="module")
def scan():
    """({name: [(path, line)]} of every top-level definition, reached names)."""
    where, edges, roots = {}, {}, {"main"}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if isinstance(node, DEFINITIONS):
                where.setdefault(node.name, []).append((path.relative_to(ROOT), node.lineno))
                edges.setdefault(node.name, set()).update(_mentions(node))
            elif path.name == "__init__.py" and isinstance(node, ast.ImportFrom):
                roots.update(alias.asname or alias.name for alias in node.names)
            elif not isinstance(node, IMPORTS):
                roots.update(_mentions(node))
    reached, todo = set(), [name for name in roots if name in where]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += [m for m in edges[name] if m in where and m not in reached]
    return where, reached


def test_every_definition_is_reachable_or_allowed(scan):
    where, reached = scan
    dead = [f"{path}:{line} {name}" for name, places in sorted(where.items())
            if name not in reached and name not in ALLOWED for path, line in places]
    assert not dead, "unreachable from cli.main, the exports and module-level code:\n" + (
        "\n".join(dead))


def test_every_allowed_name_is_still_defined_and_unreachable(scan):
    where, reached = scan
    stale = sorted(name for name in ALLOWED if name not in where or name in reached)
    assert not stale, f"ALLOWED lists names that are gone or reachable: {stale}"


def test_every_traced_function_is_reachable_or_allowed(scan):
    _, reached = scan
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    unreached = [f"{layer}.{name}" for layer, names in spans.LAYER_FUNCTIONS.items()
                 for name in names if name not in reached and name not in ALLOWED]
    assert not unreached, f"perfbench/spans.py traces code no entry point runs: {unreached}"


def test_no_name_is_defined_in_two_modules(scan):
    """The scan matches bare names, so a use of one definition would keep
    a same-named one in another module reachable."""
    where, _ = scan
    shared = {name: sorted(str(path) for path, _ in places) for name, places in where.items()
              if len({path for path, _ in places}) > 1}
    assert not shared, f"top-level names defined in more than one module: {shared}"
