"""Tests for the symbolic zero-curvature pipeline.

The residual oracle below is a self-contained free-algebra expander over
plain dicts; it shares no code with the package so the two computations
cross-check each other term by term.
"""

import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from qpii.gaussian import gauss
from qpii.laxderive import (
    ConstraintExtractionError,
    LaxEntryError,
    Matrix2,
    build_lax,
    derive_qpii,
    headline_constraint,
    headline_ode,
    matrix_commutator,
    matrix_grid_derivative,
    matrix_spectral_derivative,
    pauli_matrices,
    riccati_derivation,
    symmetric_relations_report,
    verify_symmetric_relations,
    zero_curvature_residual,
)
from qpii.ncalg import (
    RewriteRule,
    RewriteSystem,
    classical_limit,
    default_algebra,
    normal_form,
    parse_poly,
)

# ---------------------------------------------------------------------------
# Oracle: minimal free-algebra expansion on plain dicts.
# Keys: (word, (h, c, l)); values: (Fraction re, Fraction im).
# ---------------------------------------------------------------------------

ZERO = {}


def _mk(word=(), h=0, c=0, l=0, re=0, im=0):
    return {(tuple(word), (h, c, l)): (Fraction(re), Fraction(im))}


def _add(*ps):
    out = {}
    for p in ps:
        for k, (re, im) in p.items():
            cre, cim = out.get(k, (Fraction(0), Fraction(0)))
            nre, nim = cre + re, cim + im
            if nre == 0 and nim == 0:
                out.pop(k, None)
            else:
                out[k] = (nre, nim)
    return out


def _neg(p):
    return {k: (-re, -im) for k, (re, im) in p.items()}


def _mul(p, q):
    out = {}
    for (w1, e1), (a, b) in p.items():
        for (w2, e2), (c, d) in q.items():
            k = (w1 + w2, tuple(x + y for x, y in zip(e1, e2)))
            re, im = a * c - b * d, a * d + b * c
            cre, cim = out.get(k, (Fraction(0), Fraction(0)))
            nre, nim = cre + re, cim + im
            if nre == 0 and nim == 0:
                out.pop(k, None)
            else:
                out[k] = (nre, nim)
    return out


def _oracle_lax():
    A11 = _add(
        _mk(h=0, l=2, im=8),
        _mk(word=("f2", "f2"), im=1),
        _mk(word=("z",), im=-2),
    )
    A12 = _add(
        _mk(word=("f2'",), im=-1),
        _mk(c=1, l=-1, re=Fraction(1, 4)),
        _mk(word=("f2",), l=1, re=-4),
        _mk(h=1, re=1),
    )
    A21 = _add(
        _mk(word=("f2'",), im=1),
        _mk(c=1, l=-1, re=Fraction(1, 4)),
        _mk(word=("f2",), l=1, re=-4),
        _mk(h=1, re=-1),
    )
    A22 = _neg(A11)
    B11 = _add(_mk(l=1, im=-2), _mk(word=("f2",), re=1))
    B12 = _mk(word=("f2",), re=1)
    B21 = _mk(word=("f2",), re=1)
    B22 = _add(_mk(l=1, im=2), _mk(word=("f2",), re=1))
    return (A11, A12, A21, A22), (B11, B12, B21, B22)


def _oracle_residual():
    (A11, A12, A21, A22), (B11, B12, B21, B22) = _oracle_lax()

    def dz(p):
        # z -> 1, f2 -> f2', f2' -> f2'' by Leibniz on words
        img = {"z": _mk(re=1), "f2": _mk(word=("f2'",), re=1), "f2'": _mk(word=("f2''",), re=1)}
        out = {}
        for (w, e), (re, im) in p.items():
            for idx, g in enumerate(w):
                piece = _mk(word=w[:idx], re=1)
                piece = _mul(piece, img[g])
                piece = _mul(piece, _mk(word=w[idx + 1 :], re=1))
                out = _add(out, _mul({((), e): (re, im)}, piece))
        return out

    def dlam(p):
        out = {}
        for (w, e), (re, im) in p.items():
            h, c, l = e
            if l == 0:
                continue
            out = _add(out, {((w), (h, c, l - 1)): (re * l, im * l)})
        return out

    A = [[A11, A12], [A21, A22]]
    B = [[B11, B12], [B21, B22]]
    R = []
    for r in range(2):
        row = []
        for cc in range(2):
            ba = _add(*[_mul(B[r][k], A[k][cc]) for k in range(2)])
            ab = _add(*[_mul(A[r][k], B[k][cc]) for k in range(2)])
            row.append(_add(dz(A[r][cc]), _neg(dlam(B[r][cc])), _neg(ba), ab))
        R.append(row)
    return R


def _poly_to_dict(p):
    return {(w, e): (g.re, g.im) for (w, e), g in p.terms()}


@pytest.fixture(scope="module")
def alg():
    return default_algebra()


# ---------------------------------------------------------------------------
# Lax pair construction
# ---------------------------------------------------------------------------


def test_b_entries(alg):
    _A, B = build_lax(alg)
    assert B[(0, 0)] == parse_poly(alg, "(0-2i) l^1 + (1+0i) * f2")
    assert B[(0, 1)] == alg.gen("f2")
    assert B[(1, 1)] == parse_poly(alg, "(0+2i) l^1 + (1+0i) * f2")


def test_a_offdiagonal_entry(alg):
    A, _B = build_lax(alg)
    want = parse_poly(
        alg, "(1+0i) h^1 + (1/4+0i) c^1 l^-1 + (0-1i) * f2' + (-4+0i) l^1 * f2"
    )
    assert A[(0, 1)] == want


def test_a_with_field_and_deformation_zeroed(alg):
    A, _B = build_lax(alg)
    sub = A.map(
        lambda p: p.substitute_generator("f2", alg.zero())
        .substitute_generator("f2'", alg.zero())
        .set_central("h", 0)
    )
    diag = parse_poly(alg, "(0+8i) l^2 + (0-2i) * z")
    offd = parse_poly(alg, "(1/4+0i) c^1 l^-1")
    assert sub[(0, 0)] == diag
    assert sub[(0, 1)] == offd
    assert sub[(1, 0)] == offd
    assert sub[(1, 1)] == -diag


# ---------------------------------------------------------------------------
# Residual against the oracle
# ---------------------------------------------------------------------------


def test_residual_matches_oracle_exactly(alg):
    A, B = build_lax(alg)
    R = zero_curvature_residual(A, B)
    oracle = _oracle_residual()
    for r in range(2):
        for c in range(2):
            assert _poly_to_dict(R[(r, c)]) == oracle[r][c]


def test_residual_12_has_second_derivative_unit(alg):
    A, B = build_lax(alg)
    R = zero_curvature_residual(A, B)
    coeff = R[(0, 1)].coefficient(("f2''",))
    assert coeff.monomial() == (alg.exps(), gauss(0, -1))


def test_residual_diagonal_is_spectral_free(alg):
    A, B = build_lax(alg)
    R = zero_curvature_residual(A, B)
    l_idx = alg.central_index("l")
    for (w, e), _g in R[(0, 0)].terms():
        assert e[l_idx] == 0


def test_residual_vanishes_for_trivial_data(alg):
    A, B = build_lax(alg)

    def strip(p):
        return (
            p.substitute_generator("f2", alg.zero())
            .substitute_generator("f2'", alg.zero())
            .substitute_generator("f2''", alg.zero())
            .set_central("h", 0)
            .set_central("c", 0)
        )

    R = zero_curvature_residual(A.map(strip), B.map(strip))
    assert R.is_zero()


@pytest.mark.parametrize("bad_side", ["A", "B"])
def test_residual_rejects_eigenfunction_generators(alg, bad_side):
    A, B = build_lax(alg)
    bad = Matrix2(alg, alg.gen("chi"), alg.zero(), alg.zero(), alg.zero())
    args = (bad, B) if bad_side == "A" else (A, bad)
    with pytest.raises(LaxEntryError, match="chi"):
        zero_curvature_residual(*args)


def test_derive_qpii_computes_each_curvature_part_once(alg, monkeypatch):
    # the report steps V1-V3 and the residual share one computation, and the
    # residual stays one call the benchmark's tracer can time
    import qpii.laxderive as lax

    calls = Counter()
    names = ("matrix_grid_derivative", "matrix_commutator", "zero_curvature_residual",
             "default_derivation_table")
    for name in names:
        def counted(*args, _name=name, _inner=getattr(lax, name), **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)

        monkeypatch.setattr(lax, name, counted)
    report = derive_qpii(alg).report
    assert calls == {name: 1 for name in names}
    monkeypatch.undo()
    residual = next(s.after for s in report.steps if s.anchor == "RM1")
    assert residual == zero_curvature_residual(*build_lax(alg)).to_text_dict()


_BAD_ENTRY_MESSAGE = """
from qpii.laxderive import LaxEntryError, Matrix2, build_lax, zero_curvature_residual
from qpii.ncalg import default_algebra
alg = default_algebra()
A, B = build_lax(alg)
try:
    zero_curvature_residual(Matrix2(alg, alg.gen("chi"), alg.zero(), alg.zero(), alg.zero()), B)
except LaxEntryError as exc:
    print(exc)
"""


def test_lax_entry_message_does_not_depend_on_the_hash_seed():
    src = Path(__file__).resolve().parents[1] / "src"
    messages = []
    for seed in ("1", "2", "3"):
        proc = subprocess.run(
            [sys.executable, "-c", _BAD_ENTRY_MESSAGE],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed},
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        messages.append(proc.stdout)
    assert "chi" in messages[0]
    assert messages[0] == messages[1] == messages[2]


def test_commutator_trace_vanishes_before_rewriting(alg):
    A, B = build_lax(alg)
    free = RewriteSystem.free(alg)
    tr = normal_form(matrix_commutator(B, A).trace(), free)
    assert tr.is_zero()


def test_residual_pieces_are_additive_in_a(alg):
    A, B = build_lax(alg)
    scale = alg.central("l") * alg.scalar(3, 1)
    A2 = scale * A
    assert matrix_grid_derivative(A2) == scale * matrix_grid_derivative(A)
    lhs = matrix_commutator(B, A + A2)
    rhs = matrix_commutator(B, A) + matrix_commutator(B, A2)
    free = RewriteSystem.free(alg)
    assert lhs.map(lambda p: normal_form(p, free)) == rhs.map(
        lambda p: normal_form(p, free)
    )


# ---------------------------------------------------------------------------
# Full derivation
# ---------------------------------------------------------------------------


def test_derive_qpii_ode_exact(alg):
    system = derive_qpii(alg)
    assert system.ode == headline_ode(alg)


def test_derive_qpii_constraint_honest_value(alg):
    # The computed diagonal forces z f2 - f2 z = -i h f2.  The shipped table
    # carries +i/2; the derivation must report the computed value, not the
    # table's.
    system = derive_qpii(alg)
    want = parse_poly(alg, "(0+1i) h^1 * f2 + (1+0i) * z f2 + (-1+0i) * f2 z")
    assert system.constraint == want
    assert system.constraint != headline_constraint(alg)
    cal = system.report.calibration["diagonal"]
    assert cal["shape"] == "kappa*h*f2"
    assert cal["kappa"] == "0-1i"
    assert cal["matches_table"] is False


def test_derive_qpii_step_log_names_required_anchors(alg):
    system = derive_qpii(alg)
    anchors = set(system.report.anchors())
    assert {"V1", "V2", "V3", "RM1", "L7"} <= anchors


def test_derive_qpii_entry_asymmetry_flagged(alg):
    system = derive_qpii(alg)
    cal = system.report.calibration["off_diagonal"]
    assert cal["eliminant_by_entry"] == {"12": "lemma", "21": "table"}
    assert cal["consistent_single_constant"] is False
    flag_ids = {f["id"] for f in system.report.flags}
    assert "commutator-constant-entry-asymmetry" in flag_ids
    assert "quantum-relation-coefficient" in flag_ids


def test_derived_forms_are_canonical_under_remaining_rules(alg):
    # The constraint must be extracted, not rewritten away: both outputs are
    # fixed points of the rule table minus the rule under derivation.
    system = derive_qpii(alg)
    lam_h = alg.central("l") * alg.central("h")
    only_f2p = RewriteSystem(
        alg, [RewriteRule(("f2'", "f2"), alg.word(("f2", "f2'")) - 4 * lam_h)]
    )
    assert normal_form(system.ode, only_f2p) == system.ode
    assert normal_form(system.constraint, only_f2p) == system.constraint


def test_classical_limit_of_ode(alg):
    system = derive_qpii(alg)
    want = parse_poly(
        alg, "(-1+0i) c^1 + (1+0i) * f2'' + (4+0i) * f2 z + (-2+0i) * f2 f2 f2"
    )
    assert classical_limit(system.ode) == want


# ---------------------------------------------------------------------------
# Symmetric-form lemma
# ---------------------------------------------------------------------------


def test_symmetric_lemma_value(alg):
    # [f1 - f0, f2] under [f0,f2] = [f2,f1] = -2 l h comes out to +4 l h.
    value = verify_symmetric_relations(alg)
    assert value == parse_poly(alg, "(4+0i) h^1 l^1")
    assert value.is_constant()


def test_symmetric_lemma_classical_limit(alg):
    assert verify_symmetric_relations(alg).set_central("h", 0).is_zero()


def test_symmetric_pairwise_values(alg):
    report = symmetric_relations_report(alg)
    assert report["pairwise"]["[f0,f2]"] == "(-2+0i) h^1 l^1"
    assert report["pairwise"]["[f2,f1]"] == "(-2+0i) h^1 l^1"
    assert report["matches_table"] is False
    assert report["central"] is True


# ---------------------------------------------------------------------------
# Riccati reduction
# ---------------------------------------------------------------------------


def test_riccati_exact(alg):
    got = riccati_derivation(alg)[0]
    want = parse_poly(
        alg,
        "(0-4i) l^1 * Delta + (1+0i) * f2 + (1+0i) * f2 Delta "
        "+ (-1+0i) * Delta f2 + (-1+0i) * Delta f2 Delta",
    )
    assert got == want


def test_riccati_eliminates_eigenfunctions(alg):
    got = riccati_derivation(alg)[0]
    assert not (got.generators_used() & {"chi", "phi", "chi^-1", "phi^-1"})


def test_riccati_with_field_zeroed(alg):
    got = riccati_derivation(alg)[0].substitute_generator("f2", alg.zero())
    assert got == parse_poly(alg, "(0-4i) l^1 * Delta")


def test_riccati_with_spectral_zeroed(alg):
    got = riccati_derivation(alg)[0].set_central("l", 0)
    want = parse_poly(
        alg,
        "(1+0i) * f2 + (1+0i) * f2 Delta + (-1+0i) * Delta f2 "
        "+ (-1+0i) * Delta f2 Delta",
    )
    assert got == want


def test_riccati_report_flags_spectral_term(alg):
    _poly, report = riccati_derivation(alg)
    assert report["linear_term_carries_spectral_factor"] is True
    assert any(f["id"] == "riccati-spectral-term" for f in report["flags"])


def test_pauli_squares(alg):
    s1, s2, s3, ident = pauli_matrices(alg)
    for s in (s1, s2, s3):
        assert (s @ s) == ident
