"""Output checks, independent of the program's own code.

Each check takes the job and the parsed JSON report and returns a list of
problems; an empty list means the report is correct.  The checks import
nothing from ``qpii``: the derive forms are parsed from their canonical
text here, quasideterminants are compared with numpy inverses, and the
first dressing level with the vacuum closed form.
"""

from __future__ import annotations

import re
from fractions import Fraction

import numpy as np

from jobs import assemble_blocks

# Criterion 1 (ode) and criterion 4 (first-order reduction), and the values
# the README documents as the exact computation for the constraint
# (z f2 - f2 z = -i h f2) and the commutator lemma (+4 l h).
ODE = "(-1+0i) c^1 + (1+0i) * f2'' + (2+0i) * f2 z + (2+0i) * z f2 + (-2+0i) * f2 f2 f2"
CONSTRAINT = "(0+1i) h^1 * f2 + (-1+0i) * f2 z + (1+0i) * z f2"
RICCATI = (
    "(1+0i) * f2 + (0-4i) l^1 * Delta + (1+0i) * f2 Delta "
    "+ (-1+0i) * Delta f2 + (-1+0i) * Delta f2 Delta"
)
LEMMA = "(4+0i) h^1 l^1"
# Criterion 2: the classical limit of the ode (h -> 0, letters commute).
CLASSICAL_ODE = "(-1+0i) c^1 + (1+0i) * f2'' + (4+0i) * f2 z + (-2+0i) * f2 f2 f2"

EXACT_RTOL = 1e-9
# Absolute for blocks of magnitude up to 1, relative above: off-diagonal
# positions of n >= 8 matrices reach magnitudes of 1e3 and more.
BLOCK_TOL = 1e-9
CONSISTENCY_TOL = 1e-8
RICCATI_TOL = 1e-6
CLOSED_FORM_RTOL = 1e-6

_GAUSS_RE = re.compile(r"^([+-]?\d+(?:/\d+)?)([+-]\d+(?:/\d+)?)i$")
_TERM_RE = re.compile(r"^\(([^)]+)\)((?:\s+[A-Za-z]\w*\^-?\d+)*)(?:\s+\*\s+(.+))?$")


def parse_gauss(text: str) -> tuple[Fraction, Fraction]:
    m = _GAUSS_RE.match(text)
    if m is None:
        raise ValueError(f"not a Gaussian rational: {text!r}")
    return Fraction(m.group(1)), Fraction(m.group(2))


def parse_terms(text: str) -> dict:
    """Canonical polynomial text -> {(centrals, word): (re, im)}, order-free."""
    out: dict = {}
    for chunk in text.split(" + "):
        m = _TERM_RE.match(chunk.strip())
        if m is None:
            raise ValueError(f"cannot parse term {chunk!r}")
        centrals = tuple(sorted(m.group(2).split()))
        word = tuple((m.group(3) or "").split())
        re_, im = parse_gauss(m.group(1))
        old = out.get((centrals, word), (0, 0))
        out[(centrals, word)] = (old[0] + re_, old[1] + im)
    return {k: v for k, v in out.items() if v != (0, 0)}


def classical_limit(terms: dict) -> dict:
    """Drop every term carrying h and let the letters commute."""
    out: dict = {}
    for (centrals, word), (re_, im) in terms.items():
        if any(c.startswith("h^") for c in centrals):
            continue
        key = (centrals, tuple(sorted(word)))
        old = out.get(key, (0, 0))
        out[key] = (old[0] + re_, old[1] + im)
    return {k: v for k, v in out.items() if v != (0, 0)}


def _same_poly(got, want: str, what: str) -> list[str]:
    try:
        same = parse_terms(got) == parse_terms(want)
    except (TypeError, ValueError) as exc:
        return [f"{what}: {exc}"]
    return [] if same else [f"{what} is {got!r}, expected {want!r}"]


def check_derive(target: str, report: dict) -> list[str]:
    if target == "qpii":
        problems = _same_poly(report.get("ode"), ODE, "ode")
        problems += _same_poly(report.get("constraint"), CONSTRAINT, "constraint")
        if not problems and classical_limit(parse_terms(report["ode"])) != parse_terms(CLASSICAL_ODE):
            problems.append("classical limit of the ode differs from criterion 2")
        return problems
    if target == "riccati":
        return _same_poly(report.get("expression"), RICCATI, "riccati expression")
    return _same_poly(report.get("value"), LEMMA, "lemma value")


def _positions(report: dict, n: int) -> list[str]:
    positions = report.get("positions") or {}
    missing = [f"{i},{j}" for i in range(n) for j in range(n) if f"{i},{j}" not in positions]
    return [f"missing positions {missing}"] if missing else []


def check_exact(doc, report: dict) -> list[str]:
    """Every position against 1/inv(A)[j,i] in floats; no failed reduction."""
    n = len(doc)
    problems = _positions(report, n)
    if problems:
        return problems
    a = np.array([[complex(*map(float, parse_gauss(e))) for e in row] for row in doc])
    inv = np.linalg.inv(a)
    for i in range(n):
        for j in range(n):
            try:
                got = complex(*map(float, parse_gauss(report["positions"][f"{i},{j}"])))
            except (TypeError, ValueError) as exc:
                problems.append(f"position {i},{j}: {exc}")
                continue
            want = 1.0 / inv[j, i]
            if abs(got - want) > EXACT_RTOL * max(1.0, abs(want)):
                problems.append(f"position {i},{j} is {got}, float oracle {want}")
    checks = report.get("commutative_reduction") or {}
    if len(checks) != n * n:
        problems.append(f"commutative_reduction has {len(checks)} entries, expected {n * n}")
    failed = sorted(k for k, v in checks.items() if v is False)
    if failed:
        problems.append(f"commutative_reduction false at {failed}")
    return problems


def check_block(doc, report: dict) -> list[str]:
    """Every position against the inverse of block (j,i) of numpy's inverse."""
    n, d = len(doc), len(doc[0][0])
    problems = _positions(report, n)
    if problems:
        return problems
    inv = np.linalg.inv(assemble_blocks(doc))
    for i in range(n):
        for j in range(n):
            want = np.linalg.inv(inv[j * d:(j + 1) * d, i * d:(i + 1) * d])
            try:
                pairs = np.array(report["positions"][f"{i},{j}"], dtype=np.float64)
                got = pairs[..., 0] + 1j * pairs[..., 1]
            except (TypeError, ValueError, IndexError) as exc:
                problems.append(f"position {i},{j}: {exc}")
                continue
            scale = max(1.0, float(np.max(np.abs(want))))
            if got.shape != want.shape or np.max(np.abs(got - want)) > BLOCK_TOL * scale:
                problems.append(f"position {i},{j} differs from the numpy oracle")
    return problems


def closed_form_level1(doc) -> float:
    """max_z |u1| for the vacuum seed: 4|l| ||phi0 chi0^-1|| max_z exp(-4 Im(l) z)."""
    lam = complex(*doc["lambdas"][0])
    init = doc["inits"][0]
    chi0 = np.array([[complex(*e) for e in row] for row in init["chi"]])
    phi0 = np.array([[complex(*e) for e in row] for row in init["phi"]])
    grid = doc["grid"]
    zs = grid["z0"] + grid["h"] * np.arange(grid["count"])
    ratio = np.linalg.norm(phi0 @ np.linalg.inv(chi0))
    return float(4 * abs(lam) * ratio * np.max(np.exp(-4 * lam.imag * zs)))


def check_dressing(doc, report: dict) -> list[str]:
    problems = []
    levels = report.get("levels") or []
    if len(levels) != len(doc["lambdas"]):
        return [f"{len(levels)} levels, expected {len(doc['lambdas'])}"]
    for level in levels:
        if level.get("within_tolerance") is not True:
            problems.append(f"level {level.get('level')} not within_tolerance")
        if not level.get("path_deviation_max", np.inf) <= CONSISTENCY_TOL:
            problems.append(f"level {level.get('level')} deviation above {CONSISTENCY_TOL}")
    riccati = report.get("riccati_residual") or []
    if len(riccati) != len(doc["lambdas"]):
        problems.append("one riccati residual per spectral value expected")
    for entry in riccati:
        if not entry.get("max", np.inf) <= RICCATI_TOL:
            problems.append(f"riccati max {entry.get('max')} above {RICCATI_TOL}")
    want = closed_form_level1(doc)
    got = levels[0].get("max_norm_u")
    if not isinstance(got, (int, float)) or abs(got - want) > CLOSED_FORM_RTOL * want:
        problems.append(f"level 1 max_norm_u {got}, vacuum closed form {want}")
    return problems


def check(job, report: dict) -> list[str]:
    """Dispatch on the job kind; a report carrying an error always fails."""
    if not isinstance(report, dict) or "error" in report:
        return [f"error report: {report.get('error') if isinstance(report, dict) else report!r}"]
    if job.kind == "derive":
        return check_derive(job.doc, report)
    if job.kind == "exact":
        return check_exact(job.doc, report)
    if job.kind == "block":
        return check_block(job.doc, report)
    return check_dressing(job.doc, report)
