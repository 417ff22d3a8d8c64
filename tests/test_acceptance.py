"""Acceptance gate: one test per criterion, each printing PASS/FAIL.

Two criteria assert targets that the exact computation provably cannot
produce from the shipped ingredients; they are marked strict-xfail so the
defect stays visible instead of being masked:

* criterion 1 (constraint clause): the diagonal of the curvature residual
  of the shipped linear-problem matrices forces z f2 - f2 z = -i h f2;
  no documented calibration changes that coefficient to +i/2.
* criterion 3: the symmetric table [f0,f2] = [f2,f1] = -2 l h forces
  [f1 - f0, f2] = +4 l h, not -4 l h; the two printed constants are
  mutually inconsistent and the table is kept faithful.
"""

import pytest

from qpii import acceptance, quasidet


@pytest.fixture(scope="session")
def selftest_report() -> dict:
    """The full acceptance report, built once for the tests that read all of it."""
    return acceptance.run_all()


def _announce(result: dict) -> None:
    status = "PASS" if result["pass"] else "FAIL"
    print(f"criterion {result['id']:>2} ({result['name']}): {status}")


def test_criterion_1_ode_step_log_and_time():
    result = acceptance.criterion_1_qpii_derivation()
    _announce(result)
    assert result["ode_exact"], result["ode_derived"]
    assert result["step_log_complete"]
    assert result["within_time_budget"]


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the diagonal residual of the shipped matrices yields the coefficient "
        "-i on the h*f2 term; the +i/2 target is unreachable by any documented "
        "calibration (see the decisions ledger)"
    ),
)
def test_criterion_1_constraint_clause():
    result = acceptance.criterion_1_qpii_derivation()
    assert result["constraint_exact"], (
        f"derived {result['constraint_derived']!r}, "
        f"target {result['constraint_target']!r}"
    )


def test_criterion_2_classical_limit():
    result = acceptance.criterion_2_classical_limit()
    _announce(result)
    assert result["pass"], result


@pytest.mark.xfail(
    strict=True,
    reason=(
        "[f1 - f0, f2] under the shipped pairwise constants (-2 l h) is "
        "+4 l h; the -4 l h target contradicts the table it is derived from "
        "(see the decisions ledger)"
    ),
)
def test_criterion_3_symmetric_lemma():
    result = acceptance.criterion_3_symmetric_lemma()
    _announce(result)
    assert result["pass"], result


def test_criterion_4_riccati():
    result = acceptance.criterion_4_riccati()
    _announce(result)
    assert result["pass"], result


def test_criterion_5_commutative_reduction():
    result = acceptance.criterion_5_commutative_reduction()
    _announce(result)
    assert result["failures"] == 0
    assert result["positions_checked"] > 0
    assert result["pass"]


def test_criterion_5_computes_det_once_per_matrix(monkeypatch):
    # 200 matrices: one det A each, plus one minor determinant per position
    calls = []
    det = quasidet.det_by_elimination
    monkeypatch.setattr(quasidet, "det_by_elimination", lambda M: calls.append(M.n) or det(M))
    result = acceptance.criterion_5_commutative_reduction()
    assert (result["positions_checked"], result["positions_vacuous"], result["failures"]) == (2012, 3, 0)
    assert len(calls) == 200 + 2012 + 3


def test_criterion_6_inverse_characterization():
    result = acceptance.criterion_6_inverse_characterization()
    _announce(result)
    assert result["max_deviation"] <= 1e-9, result["max_deviation"]
    assert result["pass"]


def test_criterion_7_integrator_order():
    result = acceptance.criterion_7_integrator_order()
    _announce(result)
    assert all(12.0 <= r <= 20.0 for r in result["halving_ratios"]), result
    assert result["within_time_budget"]
    assert result["pass"]


def test_criterion_8_riccati_numeric():
    result = acceptance.criterion_8_riccati_numeric()
    _announce(result)
    for d, value in result["max_residual_by_dim"].items():
        assert value <= 1e-6, (d, value)
    assert result["pass"]


def test_criterion_9_dressing_consistency():
    result = acceptance.criterion_9_dressing_consistency()
    _announce(result)
    assert result["one_fold_bit_identical"]
    assert result["max_deviation"] <= 1e-8, result["deviations"]
    assert result["pass"]


def test_criterion_10_kernel_property():
    result = acceptance.criterion_10_kernel_property()
    _announce(result)
    assert result["max_norm"] <= 1e-10, result["max_norm"]
    assert result["pass"]


def test_criterion_11_determinism(selftest_report):
    # run_all builds the body twice for criterion 11 and compares the bytes
    result = next(c for c in selftest_report["criteria"] if c["id"] == 11)
    _announce(result)
    assert result["byte_identical"]
    assert result["pass"]


def test_suite_summary_counts(selftest_report):
    # criteria 1 and 3 are the two honestly red ones
    failing = {c["id"] for c in selftest_report["criteria"] if not c["pass"]}
    assert failing == {1, 3}
    assert selftest_report["passed"] == selftest_report["total"] - 2
