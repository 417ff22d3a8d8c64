"""Every program name the benchmark traces or calls must exist.

``perfbench/spans.py`` replaces the listed module attributes and methods
with timing wrappers; a name that a refactor drops would crash a traced
benchmark run.  This test reads that list and changes nothing in it.  The
call shapes below are the positional calls that ``perfbench/layers.py``
and ``perfbench/run.py`` make; a signature that stops accepting one would
fail the benchmark run.
"""

import importlib
import inspect
import importlib.util
import math
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
    # the tracer reads and replaces the module's own attribute, so a name
    # served lazily (a module __getattr__) would crash a traced run
    namespace = vars(importlib.import_module(module))
    assert attr in namespace
    assert callable(namespace[attr])


@pytest.mark.parametrize(
    "module, cls, method", [(m, c, a) for m, c, a, _name in spans.METHOD_TARGETS]
)
def test_traced_method_resolves(module, cls, method):
    owner = getattr(importlib.import_module(module), cls)
    assert callable(owner.__dict__[method])


# (module, attribute, number of positional arguments the benchmark passes)
CALL_SHAPES = [
    ("qpii.cli", "main", 1),
    ("qpii.gaussian", "GaussianRational.parse", 1),
    ("qpii.gaussian", "GaussianRational.inverse", 1),
    ("qpii.ncalg", "default_algebra", 0),
    ("qpii.laxderive", "build_lax", 1),
    ("qpii.laxderive", "derive_qpii", 1),
    ("qpii.laxderive", "riccati_derivation", 1),
    ("qpii.laxderive", "verify_symmetric_relations", 1),
    ("qpii.laxderive", "symmetric_relations_report", 1),
    ("qpii.laxderive", "zero_curvature_residual", 2),
    ("qpii.quasidet", "load_matrix_json", 1),
    ("qpii.quasidet", "all_quasideterminants", 1),
    ("qpii.quasidet", "quasideterminant_via_inverse", 3),
    ("qpii.quasidet", "commutative_reduction_check", 3),
    ("qpii.quasidet", "invert_complex_matrix", 1),
    ("qpii.darboux", "vacuum_seed", 4),
    ("qpii.darboux", "integrate_linear_system", 4),
    ("qpii.darboux", "darboux_once", 2),
    ("qpii.darboux", "DressingChain", 2),
    ("qpii.darboux", "DressingChain.solution", 2),
    ("qpii.darboux", "darboux_nfold", 2),
    ("qpii.darboux", "quasidet_solution_form", 2),
    ("qpii.darboux", "riccati_residual_numeric", 2),
    ("qpii.darboux", "qpii_residual_numeric", 2),
]


@pytest.mark.parametrize("module, attr, nargs", CALL_SHAPES)
def test_benchmark_call_shape_binds(module, attr, nargs):
    target = importlib.import_module(module)
    for name in attr.split("."):
        target = getattr(target, name)
    inspect.signature(target).bind(*range(nargs))


# the size constants of perfbench/layers.py at the smallest sizes its sweeps and
# the workloads use
SMALLEST_SWEEP = {
    "EXACT_SWEEP": (3,),
    "BLOCK_SWEEP_D": 2,
    "BLOCK_SWEEP": (4,),
    "KERNEL_DIMS": (1,),
    "GRID_COUNTS": (201,),
    "GRID_DIMS": (1,),
    "CHAIN_SHAPE": (1, 201, 2),
}


def test_layer_sweep_metrics_are_finite(monkeypatch, tmp_path):
    # every traced benchmark run ends in this sweep, which divides span
    # times by span counts: a traced function the program stops calling
    # would end the run in ZeroDivisionError
    monkeypatch.syspath_prepend(str(SPANS.parent))
    layers = importlib.import_module("layers")
    for name, value in SMALLEST_SWEEP.items():
        monkeypatch.setattr(layers, name, value)
    tracer = spans.Tracer()
    tracer.install()
    try:
        metrics = layers.sweep(tracer, 1, tmp_path)
    finally:
        tracer.uninstall()
    assert metrics
    assert all(math.isfinite(value) for value in metrics.values()), metrics
