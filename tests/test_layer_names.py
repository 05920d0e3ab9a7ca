"""The benchmark tracer wraps gazeconcepts functions by name: every name
in perfbench/spans.py's LAYER_FUNCTIONS must still resolve in its
module, or every traced benchmark pass fails in spans.instrument(). Its
byte counters read the file a wrapped io.write_* call wrote from its
second argument, and the file an io.read_* call read from its first."""

import importlib
import importlib.util
import inspect
from pathlib import Path

from gazeconcepts import io as gio

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_function_resolves():
    spans = _spans()
    missing = [
        f"{layer}.{name}"
        for layer, names in spans.LAYER_FUNCTIONS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"gazeconcepts.{layer}"), name, None))
    ]
    assert not missing, f"perfbench/spans.py wraps functions that do not exist: {missing}"


def test_traced_io_functions_take_the_path_where_the_counters_read_it():
    spans = _spans()
    names = spans.LAYER_FUNCTIONS["io"]
    counted = {name: 1 for name in names if name.startswith("write_")}
    counted.update({name: 0 for name in names if name.startswith("read_")})
    assert {f"io.{name}" for name in counted} == set(spans.IO_WRITES + spans.IO_READS)
    assert "write_windows" in counted and "read_windows" in counted
    parameters = {name: list(inspect.signature(getattr(gio, name)).parameters)
                  for name in counted}
    wrong = {name: given for name, given in parameters.items()
             if given[counted[name]:counted[name] + 1] != ["path"]}
    assert not wrong, f"the path is not where perfbench/spans.py's counters read it: {wrong}"
