"""Symbolic zero-curvature pipeline for the deformed second Painlevé system.

Builds the 2x2 linear-problem matrices, computes the exact curvature
residual in the free algebra, and extracts the nonlinear system from it by
calibrated elimination.  Every reduction is exact; every convention choice
the calibration makes is recorded in the derivation report together with
any mismatch against the constants carried by the shipped rewrite tables.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Callable

from .gaussian import GaussianRational, gauss
from .ncalg import (
    Algebra,
    DerivationError,
    Exps,
    NCAlgebraError,
    NCPolynomial,
    RewriteRule,
    RewriteSystem,
    default_algebra,
    default_derivation_table,
    derive,
    normal_form,
    parse_poly,
    quantum_f2prime_f2_constant,
    quantum_z_f2_constant,
)

LAX_GENERATORS = ("z", "f2", "f2'", "f2''")


class LaxDeriveError(NCAlgebraError):
    """Base class for failures of the derivation pipeline."""


class LaxEntryError(LaxDeriveError):
    """A matrix entry mentions generators outside the Lax alphabet."""


class ConstraintExtractionError(LaxDeriveError):
    """The diagonal residual does not have the expected commutator shape."""


class NonVanishingRemainderError(LaxDeriveError):
    """Off-diagonal reduction left terms that no calibrated constant kills."""

    def __init__(self, message: str, leftover: str):
        super().__init__(f"{message}; leftover terms: {leftover}")
        self.leftover = leftover


# ---------------------------------------------------------------------------
# 2x2 matrices over the algebra
# ---------------------------------------------------------------------------


class Matrix2:
    """2x2 matrix with noncommutative-polynomial entries (order preserved)."""

    __slots__ = ("entries",)

    def __init__(self, e11, e12, e21, e22):
        self.entries = ((e11, e12), (e21, e22))

    def __getitem__(self, rc: tuple[int, int]) -> NCPolynomial:
        r, c = rc
        return self.entries[r][c]

    def map(self, fn: Callable[[NCPolynomial], NCPolynomial]) -> "Matrix2":
        (a, b), (c, d) = self.entries
        return Matrix2(fn(a), fn(b), fn(c), fn(d))

    def __add__(self, other: "Matrix2") -> "Matrix2":
        (a, b), (c, d) = self.entries
        (e, f), (g, h) = other.entries
        return Matrix2(a + e, b + f, c + g, d + h)

    def __sub__(self, other: "Matrix2") -> "Matrix2":
        return self + other.map(lambda p: -p)

    def __neg__(self) -> "Matrix2":
        return self.map(lambda p: -p)

    def __matmul__(self, other: "Matrix2") -> "Matrix2":
        (a, b), (c, d) = self.entries
        (e, f), (g, h) = other.entries
        return Matrix2(
            a * e + b * g,
            a * f + b * h,
            c * e + d * g,
            c * f + d * h,
        )

    def __rmul__(self, scalar: NCPolynomial) -> "Matrix2":
        if not isinstance(scalar, NCPolynomial):
            return NotImplemented
        return self.map(lambda p: scalar * p)

    def trace(self) -> NCPolynomial:
        return self.entries[0][0] + self.entries[1][1]

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix2) and self.entries == other.entries

    def to_text_dict(self) -> dict[str, str]:
        return {
            "11": self.entries[0][0].to_text(),
            "12": self.entries[0][1].to_text(),
            "21": self.entries[1][0].to_text(),
            "22": self.entries[1][1].to_text(),
        }


def pauli_matrices(alg: Algebra) -> tuple[Matrix2, Matrix2, Matrix2, Matrix2]:
    """sigma1, sigma2, sigma3 and the identity over the given algebra."""
    one, zero = alg.one(), alg.zero()
    i, neg_i = alg.i(), alg.scalar(0, -1)
    sigma1 = Matrix2(zero, one, one, zero)
    sigma2 = Matrix2(zero, neg_i, i, zero)
    sigma3 = Matrix2(one, zero, zero, -one)
    ident = Matrix2(one, zero, zero, one)
    return sigma1, sigma2, sigma3, ident


# ---------------------------------------------------------------------------
# Lax pair and curvature residual
# ---------------------------------------------------------------------------


def build_lax(alg: Algebra | None = None) -> tuple[Matrix2, Matrix2]:
    """The spectral-problem matrix A and the grid-flow matrix B."""
    alg = alg or default_algebra()
    s1, s2, s3, ident = pauli_matrices(alg)
    lam, h, c = alg.central("l"), alg.central("h"), alg.central("c")
    f2, f2p, z = alg.gen("f2"), alg.gen("f2'"), alg.gen("z")
    i = alg.i()

    a_diag = 8 * i * alg.central("l", 2) + i * (f2 * f2) - 2 * i * z
    a_offd = alg.scalar(Fraction(1, 4)) * c * alg.central("l", -1) - 4 * lam * f2
    A = a_diag * s3 + f2p * s2 + a_offd * s1 + (i * h) * s2
    B = (alg.scalar(0, -2) * lam) * s3 + f2 * s1 + f2 * ident
    return A, B


def _guard_lax_entries(M: Matrix2) -> None:
    allowed = set(LAX_GENERATORS)
    for row in M.entries:
        for e in row:
            bad = e.generators_used() - allowed
            if bad:
                raise LaxEntryError(
                    f"Lax entries may only involve {sorted(allowed)}; found {sorted(bad)}"
                )


def matrix_grid_derivative(M: Matrix2) -> Matrix2:
    """Entrywise d/dz of a matrix over the Lax generators."""
    _guard_lax_entries(M)
    table = default_derivation_table(default_algebra())
    return M.map(lambda p: derive(p, table))


def matrix_spectral_derivative(M: Matrix2) -> Matrix2:
    """Entrywise formal Laurent derivative in the spectral symbol."""
    _guard_lax_entries(M)
    return M.map(lambda p: p.lambda_derivative())


def matrix_commutator(B: Matrix2, A: Matrix2) -> Matrix2:
    """BA - AB with entry products kept in order."""
    return (B @ A) - (A @ B)


def _curvature_parts(A: Matrix2, B: Matrix2) -> tuple[Matrix2, Matrix2, Matrix2]:
    """A_z, B_lambda and BA - AB, the commutator in free canonical form."""
    Az, Bl = matrix_grid_derivative(A), matrix_spectral_derivative(B)
    free = RewriteSystem.free(default_algebra())
    return Az, Bl, matrix_commutator(B, A).map(lambda p: normal_form(p, free))


def zero_curvature_residual(A: Matrix2, B: Matrix2, *, _parts=None) -> Matrix2:
    """A_z - B_lambda - (BA - AB), each entry in free canonical form.

    ``derive_qpii`` passes the ``_curvature_parts`` it has already reported.
    The free normal form is linear, so reducing the commutator first gives
    the same residual.
    """
    Az, Bl, Cm = _parts or _curvature_parts(A, B)
    free = RewriteSystem.free(default_algebra())
    return (Az - Bl - Cm).map(lambda p: normal_form(p, free))


# ---------------------------------------------------------------------------
# Derivation report plumbing
# ---------------------------------------------------------------------------


@dataclass
class DerivationStep:
    name: str
    anchor: str
    before: dict | str | None
    after: dict | str | None
    note: str = ""


@dataclass
class DerivationReport:
    steps: list[DerivationStep] = field(default_factory=list)
    calibration: dict = field(default_factory=dict)
    flags: list[dict] = field(default_factory=list)

    def add(self, name, anchor, before=None, after=None, note=""):
        self.steps.append(DerivationStep(name, anchor, before, after, note))

    def flag(self, flag_id: str, detail: str):
        self.flags.append({"id": flag_id, "detail": detail})

    def anchors(self) -> list[str]:
        return [s.anchor for s in self.steps]

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class DerivedSystem:
    ode: NCPolynomial
    constraint: NCPolynomial
    report: DerivationReport


# ---------------------------------------------------------------------------
# Constraint extraction (diagonal) and ode extraction (off-diagonal)
# ---------------------------------------------------------------------------


def _monomial(coeff: dict[Exps, GaussianRational]) -> tuple[Exps, GaussianRational]:
    """The one ``(exps, gaussian)`` of a single-monomial coefficient."""
    if len(coeff) != 1:
        raise NCAlgebraError("coefficient is not a single monomial")
    return next(iter(coeff.items()))


def _coefficient_text(coeff: dict[Exps, GaussianRational]) -> str:
    """Canonical text of a coefficient, as the scalar polynomial it is."""
    return NCPolynomial({((), e): g for e, g in coeff.items()}).to_text()


def _extract_constraint(alg: Algebra, r11: NCPolynomial, report: DerivationReport) -> NCPolynomial:
    unit = r11.coefficient(("z", "f2"))
    if len(unit) != 1:
        raise ConstraintExtractionError(
            f"diagonal residual lacks a single z f2 term: {r11.to_text()}"
        )
    constraint = r11.divide_by_monomial(*_monomial(unit))
    if constraint.coefficient(("z", "f2")).get(alg.exps(), gauss(0)) != gauss(1):
        raise ConstraintExtractionError("could not normalize the z f2 term")
    if constraint.coefficient(("f2", "z")) != {alg.exps(): gauss(-1)}:
        raise ConstraintExtractionError(
            f"diagonal residual is not a commutator in z and f2: {r11.to_text()}"
        )
    extra_words = [w for w in constraint.words() if w not in ((), ("z", "f2"), ("f2", "z"))]
    if extra_words != [("f2",)] and extra_words != []:
        raise ConstraintExtractionError(
            f"unexpected diagonal remainder words {extra_words}"
        )

    # Shape and scale of the remainder: either kappa*h*f2 or kappa*h.
    f2_part = constraint.coefficient(("f2",))
    const_part = constraint.coefficient(())
    if f2_part:
        exps, g = _monomial(f2_part)
        if exps != alg.exps(h=1):
            raise ConstraintExtractionError(
                "f2 remainder is not linear in the deformation constant: "
                f"{_coefficient_text(f2_part)}"
            )
        shape, kappa = "kappa*h*f2", -g
    elif const_part:
        exps, g = _monomial(const_part)
        if exps != alg.exps(h=1):
            raise ConstraintExtractionError(
                "constant remainder is not linear in the deformation constant: "
                f"{_coefficient_text(const_part)}"
            )
        shape, kappa = "kappa*h", -g
    else:
        shape, kappa = "classical", gauss(0)

    table_kappa = _monomial(quantum_z_f2_constant(alg).coefficient(()))[1]
    report.calibration["diagonal"] = {
        "orientation": "z-before-f2",
        "unit": _coefficient_text(unit),
        "shape": shape,
        "kappa": str(kappa),
        "table_kappa": str(table_kappa),
        "matches_table": kappa == table_kappa,
    }
    if kappa != table_kappa:
        report.flag(
            "quantum-relation-coefficient",
            f"diagonal reduction yields kappa = {kappa} in "
            f"z f2 - f2 z = kappa h f2, while the shipped rewrite table "
            f"carries kappa = {table_kappa}",
        )
    return constraint


def _extract_ode(
    alg: Algebra,
    R: Matrix2,
    candidates: list[tuple[str, NCPolynomial]],
    report: DerivationReport,
) -> NCPolynomial:
    lam_idx = alg.central_index("l")
    results = {}
    for pos, label in (((0, 1), "12"), ((1, 0), "21")):
        entry = R[pos]
        chosen = None
        for cand_name, cand in candidates:
            rule = RewriteRule(("f2'", "f2"), alg.word(("f2", "f2'")) + cand)
            system = RewriteSystem(alg, [rule])
            s = normal_form(entry, system)
            unit = s.coefficient(("f2''",))
            if len(unit) != 1:
                continue
            p = s.divide_by_monomial(*_monomial(unit))
            leftover = [
                ((w, e), g) for (w, e), g in p.terms() if e[lam_idx] != 0
            ]
            if leftover:
                continue
            chosen = (cand_name, cand, unit, p)
            break
        if chosen is None:
            # report the best attempt's leftovers for diagnosis
            rule = RewriteRule(("f2'", "f2"), alg.word(("f2", "f2'")) + candidates[0][1])
            s = normal_form(entry, RewriteSystem(alg, [rule]))
            bad = NCPolynomial({k: g for k, g in s._terms.items() if k[1][lam_idx] != 0})
            raise NonVanishingRemainderError(
                f"entry ({label}) does not reduce to a scalar multiple of a "
                f"spectral-free polynomial for any candidate commutator constant",
                bad.to_text(),
            )
        results[label] = chosen

    p12, p21 = results["12"][3], results["21"][3]
    if p12 != p21:
        raise NonVanishingRemainderError(
            "the two off-diagonal reductions disagree", (p12 - p21).to_text()
        )

    used = {label: results[label][0] for label in ("12", "21")}
    report.calibration["off_diagonal"] = {
        "eliminant_by_entry": used,
        "units": {label: _coefficient_text(results[label][2]) for label in ("12", "21")},
        "consistent_single_constant": used["12"] == used["21"],
    }
    if used["12"] != used["21"]:
        report.flag(
            "commutator-constant-entry-asymmetry",
            "the (1,2) entry eliminates with the opposite sign of the "
            "f2'-f2 commutator constant than the (2,1) entry; no single "
            "constant clears both off-diagonal entries",
        )
    return p12


# ---------------------------------------------------------------------------
# Public pipeline operations
# ---------------------------------------------------------------------------


def verify_symmetric_relations(alg: Algebra | None = None) -> NCPolynomial:
    """Canonical form of [f1 - f0, f2] under the symmetric relation table."""
    alg = alg or default_algebra()
    f2p = alg.gen("f1") - alg.gen("f0")
    f2 = alg.gen("f2")
    expr = f2p * f2 - f2 * f2p
    return normal_form(expr, RewriteSystem.symmetric(alg))


def symmetric_relations_report(alg: Algebra | None = None) -> dict:
    """The lemma value plus the pairwise relations it was derived from."""
    alg = alg or default_algebra()
    return _symmetric_report(alg, verify_symmetric_relations(alg))


def _symmetric_report(alg: Algebra, value: NCPolynomial) -> dict:
    """``symmetric_relations_report`` for the already computed lemma value."""
    symmetric = RewriteSystem.symmetric(alg)

    def bracket(a: str, b: str) -> NCPolynomial:
        return normal_form(
            alg.gen(a) * alg.gen(b) - alg.gen(b) * alg.gen(a), symmetric
        )

    table_value = quantum_f2prime_f2_constant(alg)
    report = {
        "anchor": "L7",
        "pairwise": {
            "[f0,f2]": bracket("f0", "f2").to_text(),
            "[f2,f1]": bracket("f2", "f1").to_text(),
        },
        "lemma_value": value.to_text(),
        "table_value": table_value.to_text(),
        "matches_table": value == table_value,
        "central": value.is_constant(),
    }
    if value != table_value:
        report["flag"] = (
            "the lemma value derived from the pairwise relations has the "
            "opposite sign of the constant carried by the quantum rewrite table"
        )
    return report


def derive_qpii(alg: Algebra | None = None) -> DerivedSystem:
    """Run the full zero-curvature extraction and return the derived system.

    The diagonal of the residual supplies the commutation constraint between
    the grid variable and the field; the off-diagonal entries, after the
    commutator constant of f2' and f2 is eliminated, supply the second-order
    equation.  Elimination constants are calibrated per entry (shipped table
    constant first, then the lemma value) and the choice is reported.
    """
    alg = alg or default_algebra()
    report = DerivationReport()

    A, B = build_lax(alg)
    report.add("linear-problem-matrices", "RDTa", None, {"A": A.to_text_dict(), "B": B.to_text_dict()})

    Az, Bl, Cm = parts = _curvature_parts(A, B)
    report.add("grid-derivative", "V1", None, Az.to_text_dict())
    report.add("spectral-derivative", "V2", None, Bl.to_text_dict())
    report.add("commutator", "V3", None, Cm.to_text_dict())

    R = zero_curvature_residual(A, B, _parts=parts)
    report.add("curvature-residual", "RM1", None, R.to_text_dict())

    if not (R[(1, 1)] + R[(0, 0)]).is_zero():
        raise ConstraintExtractionError("diagonal residual entries are not opposite")

    constraint = _extract_constraint(alg, R[(0, 0)], report)
    report.add(
        "constraint-extraction",
        "L8",
        R[(0, 0)].to_text(),
        constraint.to_text(),
        note="normalized so the z f2 term has coefficient one",
    )

    lemma_value = verify_symmetric_relations(alg)
    lemma_report = _symmetric_report(alg, lemma_value)
    report.add("pairwise-relations", "L6", None, lemma_report["pairwise"])
    report.add(
        "commutator-lemma",
        "L7",
        None,
        lemma_value.to_text(),
        note=lemma_report.get("flag", ""),
    )
    if not lemma_report["matches_table"]:
        report.flag("commutator-lemma-vs-table", lemma_report["flag"])

    table_const = quantum_f2prime_f2_constant(alg)
    candidates = [("table", table_const), ("lemma", lemma_value)]
    ode = _extract_ode(alg, R, candidates, report)
    report.add(
        "ode-extraction",
        "L5",
        {"12": R[(0, 1)].to_text(), "21": R[(1, 0)].to_text()},
        ode.to_text(),
        note="off-diagonal entries divided by their f2'' unit after elimination",
    )
    report.add(
        "derived-system",
        "L8",
        None,
        {"ode": ode.to_text(), "constraint": constraint.to_text()},
    )
    return DerivedSystem(ode=ode, constraint=constraint, report=report)


def riccati_derivation(alg: Algebra | None = None) -> tuple[NCPolynomial, dict]:
    """Eliminate the eigenfunctions from d/dz of chi phi^-1.

    Returns the reduced polynomial in Delta and f2 together with a report
    that records the printed-form discrepancy in the linear term.
    """
    alg = alg or default_algebra()
    table = default_derivation_table(alg)
    free = RewriteSystem.free(alg)

    ratio = alg.word(("chi", "phi^-1"))
    raw = normal_form(derive(ratio, table), free)
    fold = RewriteSystem(alg, [RewriteRule(("chi", "phi^-1"), alg.gen("Delta"))])
    reduced = normal_form(raw, fold)

    residual_gens = reduced.generators_used() & {"chi", "phi", "chi^-1", "phi^-1"}
    if residual_gens:
        raise DerivationError(
            f"could not eliminate the eigenfunctions; residual generators "
            f"{sorted(residual_gens)} in {reduced.to_text()}"
        )

    exps, g = _monomial(reduced.coefficient(("Delta",)))
    carries_spectral = exps == alg.exps(l=1)
    report = {
        "anchor": "NCQPIIf",
        "steps": [
            {"name": "ratio-derivative", "anchor": "NCQPIIc", "after": raw.to_text()},
            {"name": "ratio-folding", "anchor": "NCQPIIe", "after": reduced.to_text()},
        ],
        "linear_term": f"({g}) l^{exps[alg.central_index('l')]} * Delta",
        "linear_term_carries_spectral_factor": carries_spectral,
        "flags": [],
    }
    if carries_spectral:
        report["flags"].append(
            {
                "id": "riccati-spectral-term",
                "detail": "the derived linear term is -4i l Delta; the "
                "spectral-free variant -4i Delta was checked and does not "
                "match the computed reduction",
            }
        )
    return reduced, report


# -- reference polynomials used by tests and the acceptance gate -------------


def headline_ode(alg: Algebra) -> NCPolynomial:
    """f2'' - 2 f2^3 + 2(z f2 + f2 z) - c."""
    return parse_poly(
        alg,
        "(-1+0i) c^1 + (1+0i) * f2'' + (2+0i) * f2 z + (2+0i) * z f2 "
        "+ (-2+0i) * f2 f2 f2",
    )


def headline_constraint(alg: Algebra) -> NCPolynomial:
    """z f2 - f2 z - (i/2) h f2, the constraint shape the rewrite table carries."""
    return parse_poly(alg, "(0-1/2i) h^1 * f2 + (1+0i) * z f2 + (-1+0i) * f2 z")
