"""Spans recorded around calls into the program's layers.

The program has no tracing of its own, so ``Tracer.install`` replaces the
layers' public functions, as the module attributes their callers look up,
with wrappers that record a span per call: name, start, end, parent span
and job id.  ``uninstall`` puts the originals back.  Spans stay in memory
until the run writes them out.

Gaussian-rational arithmetic is not wrapped: it runs millions of times per
exact job, so a span per operation would dwarf the work.  Its time counts
as self time of the layer that calls it; ``layers.py`` times it on its own.
Recursive functions (``det_cofactor``, ``jsonable``) are wrapped only where
another layer calls them, for the same reason.
"""

from __future__ import annotations

import gzip
import json
import time
from contextlib import contextmanager
from pathlib import Path

# (module, attribute, span name); a function imported into several modules
# is listed once per module that calls it through its own namespace.
FUNCTION_TARGETS = (
    ("qpii.ncalg", "normal_form", "ncalg.normal_form"),
    ("qpii.laxderive", "normal_form", "ncalg.normal_form"),
    ("qpii.ncalg", "derive", "ncalg.derive"),
    ("qpii.laxderive", "derive", "ncalg.derive"),
    ("qpii.ncalg", "parse_poly", "ncalg.parse_poly"),
    ("qpii.laxderive", "parse_poly", "ncalg.parse_poly"),
    ("qpii.ncalg", "classical_limit", "ncalg.classical_limit"),
    ("qpii.laxderive", "zero_curvature_residual", "laxderive.zero_curvature_residual"),
    ("qpii.laxderive", "derive_qpii", "laxderive.derive_qpii"),
    ("qpii.laxderive", "riccati_derivation", "laxderive.riccati_derivation"),
    ("qpii.laxderive", "symmetric_relations_report", "laxderive.symmetric_relations_report"),
    ("qpii.laxderive", "verify_symmetric_relations", "laxderive.verify_symmetric_relations"),
    ("qpii.quasidet", "load_matrix_json", "quasidet.load_matrix_json"),
    ("qpii.cli", "load_matrix_json", "quasidet.load_matrix_json"),
    ("qpii.quasidet", "all_quasideterminants", "quasidet.all_quasideterminants"),
    ("qpii.cli", "all_quasideterminants", "quasidet.all_quasideterminants"),
    ("qpii.quasidet", "quasideterminant_expand", "quasidet.quasideterminant_expand"),
    ("qpii.darboux", "quasideterminant_expand", "quasidet.quasideterminant_expand"),
    ("qpii.quasidet", "quasideterminant_via_inverse", "quasidet.quasideterminant_via_inverse"),
    ("qpii.quasidet", "commutative_reduction_check", "quasidet.commutative_reduction_check"),
    ("qpii.quasidet", "invert_complex_matrix", "quasidet.invert_complex_matrix"),
    ("qpii.darboux", "invert_complex_matrix", "quasidet.invert_complex_matrix"),
    ("qpii.darboux", "integrate_linear_system", "darboux.integrate_linear_system"),
    ("qpii.darboux", "darboux_once", "darboux.darboux_once"),
    ("qpii.darboux", "darboux_nfold", "darboux.darboux_nfold"),
    ("qpii.darboux", "dress_eigenfunctions", "darboux.dress_eigenfunctions"),
    ("qpii.darboux", "quasidet_dressed_pair", "darboux.quasidet_dressed_pair"),
    ("qpii.darboux", "quasidet_solution_form", "darboux.quasidet_solution_form"),
    ("qpii.darboux", "riccati_residual_numeric", "darboux.riccati_residual_numeric"),
    ("qpii.darboux", "qpii_residual_numeric", "darboux.qpii_residual_numeric"),
    ("qpii.darboux", "run_config", "darboux.run_config"),
    ("qpii.reportio", "dumps", "reportio.dumps"),
    ("qpii.cli", "dumps", "reportio.dumps"),
    ("qpii.cli", "jsonable", "reportio.jsonable"),
)
# (module, class, method, span name)
METHOD_TARGETS = (
    ("qpii.ncalg", "NCPolynomial", "to_text", "ncalg.to_text"),
    ("qpii.darboux", "DressingChain", "compute_level", "darboux.DressingChain.compute_level"),
)


class Tracer:
    """In-memory span recorder; spans are ``[name, start_ns, end_ns, parent, job]``."""

    def __init__(self):
        self.spans: list[list] = []
        self.job = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, 0, 0, self._stack[-1] if self._stack else None, self.job])
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter_ns()
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, name: str, fn):
        spans, stack, now = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0, 0, stack[-1] if stack else None, self.job])
            stack.append(idx)
            spans[idx][1] = now()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][2] = now()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        import importlib

        for module, attr, name in FUNCTION_TARGETS:
            mod = importlib.import_module(module)
            self._replace(mod, attr, self.wrap(name, getattr(mod, attr)))
        for module, cls_name, attr, name in METHOD_TARGETS:
            cls = getattr(importlib.import_module(module), cls_name)
            self._replace(cls, attr, self.wrap(name, cls.__dict__[attr]))

    def _replace(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def write(self, path: Path) -> None:
        """Gzipped JSON lines: id, name, start and end (ns), parent id, job."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for idx, (name, start, end, parent, job) in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans: list[list], lo: int = 0) -> dict[str, float]:
    """Seconds per layer over ``spans[lo:]``: each span's duration minus its
    direct children's.  Spans from ``lo`` on must not be children of earlier
    ones."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _job in spans[lo:]:
        if parent is not None:
            child_ns[parent] += end - start
    out: dict[str, float] = {}
    for idx in range(lo, len(spans)):
        name, start, end, _parent, _job = spans[idx]
        layer = layer_of(name)
        out[layer] = out.get(layer, 0.0) + (end - start - child_ns[idx]) / 1e9
    return out


def totals(spans: list[list], name: str, lo: int = 0) -> tuple[int, float]:
    """Calls and inclusive seconds of the spans of ``name`` in ``spans[lo:]``
    that are not nested in another span of the same name."""
    calls, ns = 0, 0
    for span_name, start, end, parent, _job in spans[lo:]:
        if span_name == name and (parent is None or spans[parent][0] != name):
            calls += 1
            ns += end - start
    return calls, ns / 1e9
