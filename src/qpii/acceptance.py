"""Acceptance suite: every gate criterion as a structured, reusable check.

Each criterion function returns a JSON-able dict with a boolean ``pass``
plus the measured values.  The pytest gate asserts on these dicts; the CLI
``selftest`` subcommand serializes the combined report.  Time budgets are
reported as booleans so that identical runs produce byte-identical reports.

Criteria 1 and 3 fail on shipped reference values that the exact
computation contradicts (README, "Acceptance status").  ``EXPECTED_FAILURES``
pins each one, like a strict xfail, by the computed text the README quotes.
``run_all`` lists the pins under ``expected_failures`` and every outcome
they do not allow under ``unexpected``, which ``qpii selftest`` turns into
exit 1.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import numpy as np

from . import darboux as dbx
from . import laxderive as lax
from .gaussian import gauss
from .ncalg import classical_limit, default_algebra, parse_poly
from .quasidet import (
    BlockMatrix,
    ComplexMatrixCarrier,
    ExactScalarCarrier,
    commutative_reduction,
    inverse_characterization,
    quasideterminant_expand,
)
from .reportio import dumps

DEFAULT_SEED = 20250811

# criterion id -> (field, computed text) of each documented contradiction
EXPECTED_FAILURES = {
    1: ("constraint_derived", "(0+1i) h^1 * f2 + (-1+0i) * f2 z + (1+0i) * z f2"),
    3: ("derived", "(4+0i) h^1 l^1"),
}


def criterion_1_qpii_derivation() -> dict:
    """Symbolic derivation: ode, constraint, step log, time budget."""
    alg = default_algebra()
    start = time.monotonic()
    system = lax.derive_qpii(alg)
    elapsed = time.monotonic() - start
    ode_target = lax.headline_ode(alg)
    constraint_target = lax.headline_constraint(alg)
    anchors = set(system.report.anchors())
    ode_ok = system.ode == ode_target
    constraint_ok = system.constraint == constraint_target
    log_ok = {"V1", "V2", "V3", "RM1", "L7"} <= anchors
    time_ok = elapsed < 5.0
    return {
        "id": 1,
        "name": "qpii-derivation",
        "ode_exact": ode_ok,
        "ode_derived": system.ode.to_text(),
        "constraint_exact": constraint_ok,
        "constraint_derived": system.constraint.to_text(),
        "constraint_target": constraint_target.to_text(),
        "step_log_complete": log_ok,
        "within_time_budget": time_ok,
        "calibration": system.report.calibration,
        "flags": system.report.flags,
        "pass": ode_ok and constraint_ok and log_ok and time_ok,
    }


def criterion_2_classical_limit() -> dict:
    alg = default_algebra()
    system = lax.derive_qpii(alg)
    target = parse_poly(
        alg, "(-1+0i) c^1 + (1+0i) * f2'' + (4+0i) * f2 z + (-2+0i) * f2 f2 f2"
    )
    got = classical_limit(system.ode)
    ok = got == target
    return {
        "id": 2,
        "name": "classical-limit",
        "derived": got.to_text(),
        "target": target.to_text(),
        "pass": ok,
    }


def criterion_3_symmetric_lemma() -> dict:
    alg = default_algebra()
    value = lax.verify_symmetric_relations(alg)
    target = parse_poly(alg, "(-4+0i) h^1 l^1")
    ok = value == target
    return {
        "id": 3,
        "name": "symmetric-form-lemma",
        "derived": value.to_text(),
        "target": target.to_text(),
        "detail": lax.symmetric_relations_report(alg),
        "pass": ok,
    }


def criterion_4_riccati() -> dict:
    alg = default_algebra()
    got, report = lax.riccati_derivation(alg)
    target = parse_poly(
        alg,
        "(0-4i) l^1 * Delta + (1+0i) * f2 + (1+0i) * f2 Delta "
        "+ (-1+0i) * Delta f2 + (-1+0i) * Delta f2 Delta",
    )
    ok = got == target
    flagged = any(f["id"] == "riccati-spectral-term" for f in report["flags"])
    return {
        "id": 4,
        "name": "riccati-derivation",
        "derived": got.to_text(),
        "target": target.to_text(),
        "spectral_discrepancy_flagged": flagged,
        "pass": ok and flagged,
    }


def criterion_5_commutative_reduction(seed: int = DEFAULT_SEED) -> dict:
    rng = random.Random(seed)
    carrier = ExactScalarCarrier()
    checked = failures = vacuous = 0
    for _ in range(200):
        n = rng.choice((2, 3, 4))
        rows = [
            [
                gauss(
                    Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                    Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                )
                for _ in range(n)
            ]
            for _ in range(n)
        ]
        for out in commutative_reduction(BlockMatrix(carrier, rows)):
            if out is None:
                vacuous += 1
                continue
            checked += 1
            if out is not True:
                failures += 1
    return {
        "id": 5,
        "name": "quasideterminant-commutative-reduction",
        "seed": seed,
        "matrices": 200,
        "positions_checked": checked,
        "positions_vacuous": vacuous,
        "failures": failures,
        "pass": failures == 0 and checked > 0,
    }


def criterion_6_inverse_characterization(seed: int = DEFAULT_SEED) -> dict:
    rng = random.Random(seed + 1)
    dim = 3
    carrier = ComplexMatrixCarrier(dim)
    worst = 0.0
    compared = undefined = 0
    for _ in range(100):
        n = rng.choice((2, 3))
        rows = []
        for r in range(n):
            row = []
            for c in range(n):
                block = np.array(
                    [
                        [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(dim)]
                        for _ in range(dim)
                    ]
                )
                if r == c:
                    block = block + 3.0 * np.eye(dim)
                row.append(block)
            rows.append(row)
        M = BlockMatrix(carrier, rows)
        for k, b in enumerate(inverse_characterization(M)):
            if b is None:
                undefined += 1
                continue
            a = quasideterminant_expand(M, *divmod(k, n))
            worst = max(worst, float(np.max(np.abs(a - b))))
            compared += 1
    result = {
        "id": 6,
        "name": "quasideterminant-inverse-characterization",
        "seed": seed + 1,
        "matrices": 100,
        "positions_compared": compared,
        "max_deviation": worst,
        "tolerance": 1e-9,
        "pass": worst <= 1e-9 and not undefined,
    }
    # the key appears only when some reading is None, so other reports keep their bytes
    if undefined:
        result["positions_undefined"] = undefined
    return result


def criterion_7_integrator_order() -> dict:
    start = time.monotonic()
    table = dbx.integrator_convergence_table(d=1, lam=1 + 0.5j)
    elapsed = time.monotonic() - start
    ratios = table["halving_ratios"]
    in_band = all(12.0 <= r <= 20.0 for r in ratios)
    time_ok = elapsed < 10.0
    return {
        "id": 7,
        "name": "integrator-order",
        "halving_ratios": ratios,
        "band": [12.0, 20.0],
        "within_time_budget": time_ok,
        "pass": in_band and time_ok,
    }


def criterion_8_riccati_numeric() -> dict:
    worst = 0.0
    per_dim = {}
    for d in (1, 2):
        seed = dbx.vacuum_seed(0.0, 1e-3, 1001, d)
        pair = dbx.integrate_linear_system(seed, 1 + 0.5j, np.eye(d), np.eye(d))
        res = dbx.riccati_residual_numeric(pair, seed)
        per_dim[str(d)] = float(np.max(res))
        worst = max(worst, per_dim[str(d)])
    ok = worst <= 1e-6
    return {
        "id": 8,
        "name": "riccati-numeric-closure",
        "lambda": 1 + 0.5j,
        "max_residual_by_dim": per_dim,
        "tolerance": 1e-6,
        "pass": ok,
    }


def criterion_9_dressing_consistency() -> dict:
    lams = [1 + 0.5j, 0.3 - 0.2j, -0.7 + 0.4j]
    inits_by_dim = {
        1: None,
        2: [
            (np.eye(2), np.array([[1.0, 0.3], [-0.2, 1.0]])),
            (np.array([[1.0, 0.1], [0.0, 1.0]]), np.eye(2)),
            (np.eye(2), np.array([[1.2, 0.0], [0.1, 0.9]])),
        ],
    }
    worst = 0.0
    details = []
    bitwise_ok = True
    for d in (1, 2):
        seed = dbx.vacuum_seed(0.0, 5e-3, 201, d)
        inits = inits_by_dim[d] or [(np.eye(d), np.eye(d))] * len(lams)
        pairs = dbx.integrate_eigenpairs(seed, lams, inits)
        chain = dbx.DressingChain(seed, pairs)
        once = dbx.darboux_once(seed, pairs[0])
        u1 = dbx.darboux_nfold(chain, 1)
        q1 = dbx.quasidet_solution_form(chain, 1)
        bitwise = np.array_equal(u1.values, once.values) and np.array_equal(
            q1.values, once.values
        )
        bitwise_ok = bitwise_ok and bitwise
        for n in (2, 3):
            u_rec = dbx.darboux_nfold(chain, n)
            u_qd = dbx.quasidet_solution_form(chain, n)
            dev = float(np.max(np.linalg.norm(u_rec.values - u_qd.values, axis=(1, 2))))
            worst = max(worst, dev)
            details.append({"d": d, "N": n, "deviation": dev})
    ok = worst <= dbx.CONSISTENCY_TOL and bitwise_ok
    return {
        "id": 9,
        "name": "dressing-consistency",
        "deviations": details,
        "max_deviation": worst,
        "tolerance": dbx.CONSISTENCY_TOL,
        "one_fold_bit_identical": bitwise_ok,
        "pass": ok,
    }


def criterion_10_kernel_property() -> dict:
    worst = 0.0
    for d in (1, 2):
        seed = dbx.vacuum_seed(0.0, 1e-2, 101, d)
        pair = dbx.integrate_linear_system(seed, 1 + 0.5j, np.eye(d), np.eye(d))
        chi1, phi1 = dbx.dress_eigenfunctions(pair.chi, pair.phi, pair.lam, pair)
        worst = max(worst, chi1.max_norm(), phi1.max_norm())
    ok = worst <= 1e-10
    return {
        "id": 10,
        "name": "kernel-property",
        "max_norm": worst,
        "tolerance": 1e-10,
        "pass": ok,
    }


def criterion_11_determinism(body: dict) -> dict:
    """Compare the criteria 1-10 ``body`` byte for byte with a fresh rebuild."""
    first = dumps(body)
    second = dumps(_report_body(body["seed"]))
    ok = first == second
    return {
        "id": 11,
        "name": "selftest-determinism",
        "byte_identical": ok,
        "report_bytes": len(first.encode()),
        "pass": ok,
    }


def _report_body(seed: int) -> dict:
    criteria = [
        criterion_1_qpii_derivation(),
        criterion_2_classical_limit(),
        criterion_3_symmetric_lemma(),
        criterion_4_riccati(),
        criterion_5_commutative_reduction(seed),
        criterion_6_inverse_characterization(seed),
        criterion_7_integrator_order(),
        criterion_8_riccati_numeric(),
        criterion_9_dressing_consistency(),
        criterion_10_kernel_property(),
    ]
    return _summary(seed, criteria)


def _summary(seed: int, criteria: list[dict]) -> dict:
    passed = sum(1 for c in criteria if c["pass"])
    return {
        "suite": "acceptance",
        "seed": seed,
        "criteria": criteria,
        "passed": passed,
        "failed": len(criteria) - passed,
        "total": len(criteria),
    }


def unexpected_outcomes(criteria: list[dict]) -> list[str]:
    """Each outcome that ``EXPECTED_FAILURES`` does not allow: a criterion
    outside it that fails, or a pinned one that passes or whose computed
    text changed."""
    found = []
    for criterion in criteria:
        cid = criterion["id"]
        if cid not in EXPECTED_FAILURES:
            if not criterion["pass"]:
                found.append(f"criterion {cid} fails")
            continue
        field, text = EXPECTED_FAILURES[cid]
        if criterion["pass"]:
            found.append(f"criterion {cid} passes, but is pinned as an expected failure")
        elif criterion.get(field) != text:
            found.append(f"criterion {cid} {field} reads {criterion.get(field)!r}, pinned {text!r}")
    return found


def run_all(seed: int = DEFAULT_SEED) -> dict:
    """Run every criterion and return the combined, deterministic report,
    with the pinned expected failures and the outcomes they do not allow."""
    body = _report_body(seed)
    report = _summary(seed, body["criteria"] + [criterion_11_determinism(body)])
    report["expected_failures"] = [
        {"id": cid, "field": field, "computed": text} for cid, (field, text) in EXPECTED_FAILURES.items()
    ]
    report["unexpected"] = unexpected_outcomes(report["criteria"])
    return report
