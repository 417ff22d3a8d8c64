"""Every program name the benchmark traces must exist.

``perfbench/spans.py`` replaces the listed module attributes and methods
with timing wrappers; a name that a refactor drops would crash a traced
benchmark run.  This test reads that list and changes nothing in it.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _spans_module()


@pytest.mark.parametrize(
    "module, attr", [(m, a) for m, a, _name in spans.FUNCTION_TARGETS]
)
def test_traced_function_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize(
    "module, cls, method", [(m, c, a) for m, c, a, _name in spans.METHOD_TARGETS]
)
def test_traced_method_resolves(module, cls, method):
    owner = getattr(importlib.import_module(module), cls)
    assert callable(owner.__dict__[method])
