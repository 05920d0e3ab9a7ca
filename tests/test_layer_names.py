"""The benchmark tracer wraps gazeconcepts functions by name: every name
in perfbench/spans.py's LAYER_FUNCTIONS must still resolve in its
module, or every traced benchmark pass fails in spans.instrument()."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{layer}.{name}"
        for layer, names in spans.LAYER_FUNCTIONS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"gazeconcepts.{layer}"), name, None))
    ]
    assert not missing, f"perfbench/spans.py wraps functions that do not exist: {missing}"
