"""Seeded job lists for the four benchmark workloads.

Every workload is a fixed list of passes; a pass is a fixed sequence of CLI
jobs whose shape (target, matrix size, grid) is the same for every seed, so
throughput is comparable across seeds.  The seed draws only the contents:
the derive order, the matrix entries, the spectral values and the initial
conditions.  The program only ever sees the JSON files written here.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

WORKLOADS = ("derive", "exact_quasidet", "block_quasidet", "dressing")

DERIVE_TARGETS = ("qpii", "riccati", "symmetric")
# n = 5 twice, so that the median job falls inside one size class.
EXACT_SIZES = (3, 4, 5, 5, 6)
BLOCK_SHAPES = tuple((d, n) for d in (2, 3) for n in (4, 8, 12))
# (d, count, N): each d, each count and each (d, N) and (count, N) pair once
# per level count, six of the nine (d, count) cells; the full 18-job factorial
# takes about 30 s per pass at this commit.
DRESSING_SHAPES = (
    (1, 501, 2),
    (2, 2001, 2),
    (3, 1001, 2),
    (1, 2001, 3),
    (2, 1001, 3),
    (3, 501, 3),
)
# Box of the spectral values in the shipped configs.
LAMBDA_RE = (-0.7, 1.0)
LAMBDA_IM = (-0.2, 0.5)
LAMBDA_MIN_SEPARATION = 0.2
LAMBDA_MIN_ABS = 0.2
INIT_PERTURBATION = 0.3
# The darboux report's consistency check is absolute (1e-8) while the
# round-off of both dressing paths grows like 1e-14 max|u|; spectral data
# that put a pole of a dressed solution near the grid (max|u| >= 5e4 fails
# the check) are redrawn.  The median draw has max|u| of about 40.
DRESSED_NORM_LIMIT = 1e3

PASSES = {"derive": 1, "exact_quasidet": 6, "block_quasidet": 5, "dressing": 2}
DERIVE_ROUNDS_PER_PASS = 10

TINY_EXACT_SIZES = (3, 4)
TINY_BLOCK_SHAPES = ((2, 2), (2, 3))
TINY_DRESSING_SHAPES = ((1, 201, 2), (2, 201, 3))


@dataclass
class Job:
    """One CLI call: ``argv`` excludes the global ``--output`` flag."""

    kind: str
    label: str
    argv: list
    doc: object = None


# ---------------------------------------------------------------------------
# Exact Gaussian-rational matrices (criterion 5's entry distribution)
# ---------------------------------------------------------------------------


def _exact_entry(rng: random.Random) -> tuple[Fraction, Fraction]:
    return (
        Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
        Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
    )


def _gauss_text(re: Fraction, im: Fraction) -> str:
    sign = "+" if im >= 0 else "-"
    return f"{re}{sign}{abs(im)}i"


def _cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _cdiv(a, b):
    n = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / n, (a[1] * b[0] - a[0] * b[1]) / n)


def exact_det_is_zero(rows) -> bool:
    """Exact singularity test by Gaussian elimination over Fraction pairs."""
    m = [list(r) for r in rows]
    n = len(m)
    for k in range(n):
        pivot = next((r for r in range(k, n) if m[r][k] != (0, 0)), None)
        if pivot is None:
            return True
        m[k], m[pivot] = m[pivot], m[k]
        for r in range(k + 1, n):
            if m[r][k] == (0, 0):
                continue
            f = _cdiv(m[r][k], m[k][k])
            for c in range(k, n):
                p = _cmul(f, m[k][c])
                m[r][c] = (m[r][c][0] - p[0], m[r][c][1] - p[1])
    return False


def _minor(rows, i, j):
    return [[e for c, e in enumerate(row) if c != j] for r, row in enumerate(rows) if r != i]


def exact_matrix(rng: random.Random, n: int) -> list[list[str]]:
    """An n x n exact matrix with no singular (n-1)-minor, as entry strings.

    A singular minor makes the CLI stop with exit 1, so such draws are
    redrawn; they are rare under this entry distribution.
    """
    while True:
        rows = [[_exact_entry(rng) for _ in range(n)] for _ in range(n)]
        if not any(exact_det_is_zero(_minor(rows, i, j)) for i in range(n) for j in range(n)):
            return [[_gauss_text(*e) for e in row] for row in rows]


# ---------------------------------------------------------------------------
# Complex block matrices (criterion 6's block distribution)
# ---------------------------------------------------------------------------


def block_matrix(rng: random.Random, n: int, d: int) -> list:
    """n x n blocks of d x d complex entries in [-1, 1]^2, +3I on the diagonal."""
    rows = []
    for r in range(n):
        row = []
        for c in range(n):
            block = [
                [[rng.uniform(-1, 1) + (3.0 if r == c and a == b else 0.0), rng.uniform(-1, 1)]
                 for b in range(d)]
                for a in range(d)
            ]
            row.append(block)
        rows.append(row)
    return rows


def assemble_blocks(doc) -> np.ndarray:
    """The (n*d) x (n*d) complex matrix of a block document."""
    arr = np.array(doc, dtype=np.float64)
    cplx = arr[..., 0] + 1j * arr[..., 1]
    n, _, d, _ = cplx.shape
    return cplx.transpose(0, 2, 1, 3).reshape(n * d, n * d)


# ---------------------------------------------------------------------------
# Dressing configs
# ---------------------------------------------------------------------------


def _lambdas(rng: random.Random, count: int) -> list[complex]:
    out: list[complex] = []
    while len(out) < count:
        lam = complex(rng.uniform(*LAMBDA_RE), rng.uniform(*LAMBDA_IM))
        if abs(lam) < LAMBDA_MIN_ABS:
            continue
        if all(abs(lam - other) >= LAMBDA_MIN_SEPARATION for other in out):
            out.append(lam)
    return out


def _perturbed_identity(rng: random.Random, d: int) -> list:
    return [
        [[(1.0 if a == b else 0.0) + rng.uniform(-INIT_PERTURBATION, INIT_PERTURBATION), 0.0]
         for b in range(d)]
        for a in range(d)
    ]


def max_dressed_norm(doc: dict) -> float:
    """Largest Frobenius norm of any dressed level on the grid, from the
    vacuum closed form chi = exp(-2i l z) chi0, phi = exp(2i l z) phi0 and
    the one-fold recursion, computed here with numpy."""
    grid = doc["grid"]
    zs = (grid["z0"] + grid["h"] * np.arange(grid["count"]))[:, None, None]
    lams = [complex(*lam) for lam in doc["lambdas"]]

    def mat(rows):
        return np.array([[complex(*e) for e in row] for row in rows])

    chis = [np.exp(-2j * lam * zs) * mat(i["chi"]) for lam, i in zip(lams, doc["inits"])]
    phis = [np.exp(2j * lam * zs) * mat(i["phi"]) for lam, i in zip(lams, doc["inits"])]
    u = np.zeros_like(chis[0])
    worst = 0.0
    try:
        for k, lam in enumerate(lams):
            chi_inv, phi_inv = np.linalg.inv(chis[k]), np.linalg.inv(phis[k])
            t = phis[k] @ chi_inv
            u = -4 * lam * t + t @ u @ t
            worst = max(worst, float(np.max(np.linalg.norm(u, axis=(1, 2)))))
            for m in range(k + 1, len(lams)):
                chis[m], phis[m] = (
                    lams[m] * phis[m] - lam * phis[k] @ chi_inv @ chis[m],
                    lams[m] * chis[m] - lam * chis[k] @ phi_inv @ phis[m],
                )
    except np.linalg.LinAlgError:
        return float("inf")
    return worst


def dressing_config(rng: random.Random, d: int, count: int, levels: int) -> dict:
    """Vacuum seed on z in [0, 1]; convergence probe off; no pole near the grid."""
    while True:
        lams = _lambdas(rng, levels)
        doc = {
            "d": d,
            "grid": {"z0": 0.0, "h": 1.0 / (count - 1), "count": count},
            "lambdas": [[lam.real, lam.imag] for lam in lams],
            "c": [0.0, 0.0],
            "seed": "vacuum",
            "inits": [
                {"chi": _perturbed_identity(rng, d), "phi": _perturbed_identity(rng, d)}
                for _ in lams
            ],
            "convergence_probe": False,
        }
        if max_dressed_norm(doc) <= DRESSED_NORM_LIMIT:
            return doc


# ---------------------------------------------------------------------------
# Job lists
# ---------------------------------------------------------------------------


def _write(path: Path, doc) -> str:
    path.write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")
    return str(path)


def make_passes(workload: str, seed: int, input_dir: Path, tiny: bool = False) -> list[list[Job]]:
    """The workload's fixed job list, as passes; inputs are written to ``input_dir``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    input_dir.mkdir(parents=True, exist_ok=True)
    passes: list[list[Job]] = []
    for p in range(1 if tiny else PASSES[workload]):
        jobs: list[Job] = []
        if workload == "derive":
            order = rng.sample(DERIVE_TARGETS, len(DERIVE_TARGETS))
            rounds = 1 if tiny else DERIVE_ROUNDS_PER_PASS
            jobs = [Job("derive", f"derive {t}", ["derive", t], t) for _ in range(rounds) for t in order]
        elif workload == "exact_quasidet":
            sizes = TINY_EXACT_SIZES if tiny else EXACT_SIZES
            for n in rng.sample(sizes, len(sizes)):
                doc = exact_matrix(rng, n)
                path = _write(input_dir / f"exact-p{p}-{len(jobs)}-n{n}.json", doc)
                jobs.append(Job("exact", f"exact n={n}", ["quasidet", "--input", path], doc))
        elif workload == "block_quasidet":
            shapes = TINY_BLOCK_SHAPES if tiny else BLOCK_SHAPES
            for d, n in rng.sample(shapes, len(shapes)):
                doc = block_matrix(rng, n, d)
                path = _write(input_dir / f"block-p{p}-d{d}-n{n}.json", doc)
                jobs.append(Job("block", f"block d={d} n={n}", ["quasidet", "--input", path], doc))
        else:
            shapes = TINY_DRESSING_SHAPES if tiny else DRESSING_SHAPES
            for d, count, levels in rng.sample(shapes, len(shapes)):
                doc = dressing_config(rng, d, count, levels)
                path = _write(input_dir / f"dressing-p{p}-d{d}-c{count}-N{levels}.json", doc)
                jobs.append(
                    Job("dressing", f"dressing d={d} count={count} N={levels}",
                        ["darboux", "--config", path], doc)
                )
        passes.append(jobs)
    return passes
