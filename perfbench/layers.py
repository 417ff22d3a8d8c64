"""Per-layer sweep of the traced run.

Calls each layer's public functions directly, on inputs drawn from the
seed the same way the workloads draw theirs, with the tracer's wrappers
installed, and turns the spans into the per-layer metrics.  Times are
medians of a few repeats where one call is cheap and single calls where it
is not (exact n >= 6, block n = 16, grids of 2001 points).
"""

from __future__ import annotations

import operator
import random
import statistics
import time

import numpy as np

import jobs
from spans import totals

EXACT_SWEEP = (3, 4, 5, 6, 7)
EXACT_ONE_POSITION_FROM = 7
BLOCK_SWEEP_D = 3
BLOCK_SWEEP = (4, 8, 16)
KERNEL_DIMS = (1, 2, 3)
GRID_COUNTS = (201, 2001)
GRID_DIMS = (1, 2)
CHAIN_SHAPE = (2, 2001, 3)  # (d, count, N) of the dressing-chain sweep


def _timed(fn, repeats: int) -> float:
    """Median seconds of ``repeats`` calls."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def _per_op_ns(op, lhs, rhs=None, repeats: int = 7) -> float:
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        if rhs is None:
            list(map(op, lhs))
        else:
            list(map(op, lhs, rhs))
        samples.append((time.perf_counter_ns() - t0) / len(lhs))
    return statistics.median(samples)


def gaussian_metrics(exact_docs) -> dict:
    from qpii.gaussian import GaussianRational

    entries = [GaussianRational.parse(e) for doc in exact_docs for row in doc for e in row]
    lhs = entries * 20
    rhs = (entries[1:] + entries[:1]) * 20
    nonzero = [e for e in lhs if not e.is_zero()]
    return {
        "gaussian.add_ns": _per_op_ns(operator.add, lhs, rhs),
        "gaussian.mul_ns": _per_op_ns(operator.mul, lhs, rhs),
        "gaussian.inverse_ns": _per_op_ns(GaussianRational.inverse, nonzero),
    }


def derive_metrics(tracer, rounds: int = 5) -> dict:
    """One round is the work of the three derive jobs, through the layers' APIs."""
    import qpii.laxderive as lax
    import qpii.ncalg as ncalg

    terms_out = [0]
    patched = [(m, m.normal_form) for m in (ncalg, lax)]

    def counting(inner):
        def normal_form(*args, **kwargs):
            out = inner(*args, **kwargs)
            terms_out[0] += len(out.terms())
            return out

        return normal_form

    def one_round():
        alg = ncalg.default_algebra()
        system = lax.derive_qpii(alg)
        system.ode.to_text()
        system.constraint.to_text()
        system.report.to_dict()
        poly, _report = lax.riccati_derivation(alg)
        poly.to_text()
        lax.verify_symmetric_relations(alg).to_text()
        lax.symmetric_relations_report(alg)

    per_round: dict[str, list] = {}
    for mod, fn in patched:
        mod.normal_form = counting(fn)
    try:
        for r in range(rounds):
            tracer.job = f"layers:derive:{r}"
            terms_out[0] = 0
            lo = len(tracer.spans)
            one_round()
            row = {"ncalg.normal_form.terms_out": terms_out[0]}
            calls, row["ncalg.normal_form_s"] = totals(tracer.spans, "ncalg.normal_form", lo)
            row["ncalg.normal_form.calls"] = calls
            row["ncalg.derive_s"] = totals(tracer.spans, "ncalg.derive", lo)[1]
            row["ncalg.to_text_s"] = totals(tracer.spans, "ncalg.to_text", lo)[1]
            for name in ("zero_curvature_residual", "derive_qpii", "riccati_derivation",
                         "symmetric_relations_report"):
                calls, seconds = totals(tracer.spans, f"laxderive.{name}", lo)
                row[f"laxderive.{name}_s"] = seconds / calls
            for key, value in row.items():
                per_round.setdefault(key, []).append(value)
    finally:
        for mod, fn in patched:
            mod.normal_form = fn
    out = {key: statistics.median(values) for key, values in per_round.items()}
    alg = ncalg.default_algebra()
    residual = lax.zero_curvature_residual(*lax.build_lax(alg))
    out["laxderive.residual_terms"] = sum(
        len(residual[(r, c)].terms()) for r in range(2) for c in range(2)
    )
    return out


def exact_metrics(tracer, rng: random.Random) -> dict:
    from qpii import quasidet as qd

    docs = {n: jobs.exact_matrix(rng, n) for n in EXACT_SWEEP}
    out = {}
    tracer.job = "layers:exact"
    out["quasidet.load_matrix_json_s"] = _timed(
        lambda: [qd.load_matrix_json(doc) for doc in docs.values()], 5
    )
    positions = vacuous = 0
    for n, doc in docs.items():
        m = qd.load_matrix_json(doc)
        repeats = 3 if n <= 5 else 1
        out[f"quasidet.exact.all_quasideterminants_s.n{n}"] = _timed(
            lambda: qd.all_quasideterminants(m), repeats
        )
        out[f"quasidet.exact.via_inverse_s.n{n}"] = _timed(
            lambda: qd.quasideterminant_via_inverse(m, 0, 0), repeats
        )
        cells = [(0, 0)] if n >= EXACT_ONE_POSITION_FROM else [(i, j) for i in range(n) for j in range(n)]
        samples = []
        for i, j in cells:
            t0 = time.perf_counter()
            result = qd.commutative_reduction_check(m, i, j)
            samples.append(time.perf_counter() - t0)
            positions += 1
            vacuous += result is None
        out[f"quasidet.exact.reduction_check_s.n{n}"] = statistics.median(samples)
    out["quasidet.exact.positions"] = positions
    out["quasidet.exact.vacuous_ratio"] = vacuous / positions
    return out


def block_metrics(tracer, rng: random.Random) -> dict:
    from qpii import quasidet as qd

    out = {}
    tracer.job = "layers:block"
    for n in BLOCK_SWEEP:
        m = qd.load_matrix_json(jobs.block_matrix(rng, n, BLOCK_SWEEP_D))
        out[f"quasidet.block.all_quasideterminants_s.n{n}"] = _timed(
            lambda: qd.all_quasideterminants(m), 3 if n <= 8 else 1
        )
        out[f"quasidet.block.via_inverse_s.n{n}"] = _timed(
            lambda: qd.quasideterminant_via_inverse(m, 0, 0), 3
        )
    tracer.job = "layers:kernel"
    for d in KERNEL_DIMS:
        gen = np.random.default_rng(rng.randrange(2**32))
        shape = (200, d, d)
        blocks = 3 * np.eye(d) + gen.uniform(-1, 1, shape) + 1j * gen.uniform(-1, 1, shape)
        samples = []
        for _ in range(5):
            t0 = time.perf_counter()
            for b in blocks:
                qd.invert_complex_matrix(b)
            samples.append((time.perf_counter() - t0) / len(blocks))
        out[f"quasidet.invert_complex_matrix_us.d{d}"] = statistics.median(samples) * 1e6
    return out


def _pairs(dbx, doc):
    seed = dbx.vacuum_seed(doc["grid"]["z0"], doc["grid"]["h"], doc["grid"]["count"], doc["d"])
    pairs = []
    for lam, init in zip(doc["lambdas"], doc["inits"]):
        chi = np.array([[complex(*e) for e in row] for row in init["chi"]])
        phi = np.array([[complex(*e) for e in row] for row in init["phi"]])
        pairs.append(dbx.integrate_linear_system(seed, complex(*lam), chi, phi))
    return seed, pairs


def darboux_metrics(tracer, rng: random.Random) -> dict:
    from qpii import darboux as dbx

    out = {}
    tracer.job = "layers:integrate"
    for count in GRID_COUNTS:
        for d in GRID_DIMS:
            doc = jobs.dressing_config(rng, d, count, 1)
            lo = len(tracer.spans)
            for _ in range(3 if count < 1000 else 1):
                _pairs(dbx, doc)
            calls, seconds = totals(tracer.spans, "darboux.integrate_linear_system", lo)
            out[f"darboux.integrate_linear_system_s.c{count}.d{d}"] = seconds / calls
    tracer.job = "layers:chain"
    d, count, levels = CHAIN_SHAPE
    seed, pairs = _pairs(dbx, jobs.dressing_config(rng, d, count, levels))
    out["darboux.darboux_once_s"] = _timed(lambda: dbx.darboux_once(seed, pairs[0]), 1)
    chain = dbx.DressingChain(seed, pairs)
    out["darboux.darboux_nfold_s"] = _timed(lambda: dbx.darboux_nfold(chain, levels), 1)
    out["darboux.quasidet_solution_form_s"] = _timed(
        lambda: dbx.quasidet_solution_form(chain, levels), 1
    )
    out["darboux.riccati_residual_numeric_s"] = _timed(
        lambda: dbx.riccati_residual_numeric(pairs[0], seed), 1
    )
    u_final = chain.solution(levels)
    out["darboux.qpii_residual_numeric_s"] = _timed(
        lambda: dbx.qpii_residual_numeric(u_final, 0j), 3
    )
    out["darboux.grid_point_levels"] = count * levels
    return out


def sweep(tracer, seed: int, input_dir) -> dict:
    """Every per-layer metric that does not depend on the workload."""
    rng = random.Random(f"layers:{seed}")
    out = derive_metrics(tracer)
    out.update(exact_metrics(tracer, rng))
    exact_pass = jobs.make_passes("exact_quasidet", seed, input_dir)[0]
    out.update(gaussian_metrics([job.doc for job in exact_pass]))
    out.update(block_metrics(tracer, rng))
    out.update(darboux_metrics(tracer, rng))
    return out
