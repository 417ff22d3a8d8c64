"""Numeric dressing-chain backend on uniform grids.

Integrates the first-order linear system for matrix-valued seeds with the
classical four-stage Runge-Kutta scheme, applies one-fold and N-fold
transformations, builds the quasideterminant eigenfunction forms, and
computes residual diagnostics.  The deformation constant is fixed to zero
here: with a scalar grid variable the commutation constraint can only hold
trivially, so the deformed content is verified symbolically while the
matrix-valued (noncommutative) content is exercised numerically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .quasidet import (
    BlockMatrix,
    ComplexMatrixCarrier,
    NonInvertibleMinor,
    invert_complex_matrix,
    quasideterminant_expand,
)

SINGULARITY_TOL = 1e-12
CONSISTENCY_TOL = 1e-8


class DarbouxError(Exception):
    pass


class SingularEigenfunction(DarbouxError):
    """An eigenfunction failed the inversion tolerance at a grid index."""

    def __init__(self, z_index: int, what: str = "eigenfunction"):
        super().__init__(f"{what} is singular at grid index {z_index}")
        self.z_index = z_index


class DivergenceError(DarbouxError):
    """Integration produced a non-finite state."""

    def __init__(self, z: float):
        super().__init__(f"integration diverged near z = {z}")
        self.z = z


class LevelOrderViolation(DarbouxError):
    """Dressing levels must be consumed in order."""


class ConfigError(DarbouxError):
    pass


# ---------------------------------------------------------------------------
# Grid functions and eigenpairs
# ---------------------------------------------------------------------------


class GridFunction:
    """Matrix-valued function sampled on a uniform grid; immutable."""

    __slots__ = ("z0", "h", "values")

    def __init__(self, z0: float, h: float, values: np.ndarray):
        values = np.asarray(values, dtype=np.complex128)
        if values.ndim != 3 or values.shape[1] != values.shape[2]:
            raise DarbouxError("values must have shape (count, d, d)")
        if values.shape[0] < 2:
            raise DarbouxError("a grid needs at least two samples")
        if h <= 0:
            raise DarbouxError("grid step must be positive")
        if not np.all(np.isfinite(values)):
            raise DarbouxError("grid values must be finite")
        self.z0 = float(z0)
        self.h = float(h)
        self.values = values.copy()
        self.values.setflags(write=False)

    @property
    def count(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]

    @property
    def zs(self) -> np.ndarray:
        return self.z0 + self.h * np.arange(self.count)

    def same_grid(self, other: "GridFunction") -> bool:
        return (
            self.z0 == other.z0
            and self.h == other.h
            and self.count == other.count
            and self.d == other.d
        )

    def max_norm(self) -> float:
        return float(np.max(np.linalg.norm(self.values, axis=(1, 2))))

    @classmethod
    def zeros(cls, z0: float, h: float, count: int, d: int) -> "GridFunction":
        return cls(z0, h, np.zeros((count, d, d), dtype=np.complex128))


def vacuum_seed(z0: float, h: float, count: int, d: int) -> GridFunction:
    """The trivial seed: identically zero with c = 0."""
    return GridFunction.zeros(z0, h, count, d)


@dataclass
class Eigenpair:
    """A solution pair of the linear system at one spectral value."""

    lam: complex
    chi: GridFunction
    phi: GridFunction

    def __post_init__(self):
        if not self.chi.same_grid(self.phi):
            raise DarbouxError("chi and phi must share grid and dimension")


def _require_same_grid(a: GridFunction, b: GridFunction, what: str) -> None:
    if not a.same_grid(b):
        raise DarbouxError(f"{what} must share the grid")


# ---------------------------------------------------------------------------
# Integration
# ---------------------------------------------------------------------------


def _midpoint_samples(values: np.ndarray) -> np.ndarray:
    """Cubic interpolation of per-cell midpoints (exact for cubics, O(h^4))."""
    n = values.shape[0]
    if n < 4:
        raise DarbouxError("midpoint interpolation needs at least four samples")
    mids = np.empty((n - 1, *values.shape[1:]), dtype=np.complex128)
    f = values
    mids[1 : n - 2] = (-f[: n - 3] + 9 * f[1 : n - 2] + 9 * f[2 : n - 1] - f[3:]) / 16.0
    w0 = np.array([5, 15, -5, 1], dtype=np.float64) / 16.0
    mids[0] = sum(w0[m] * f[m] for m in range(4))
    mids[-1] = sum(w0[m] * f[n - 1 - m] for m in range(4))
    return mids


def integrate_linear_system(
    u: GridFunction, lam: complex, init_chi: np.ndarray, init_phi: np.ndarray
) -> Eigenpair:
    """Classical four-stage Runge-Kutta for the coupled first-order system.

    chi' = (-2 i lam + u) chi + u phi,  phi' = u chi + (2 i lam + u) phi.
    Midpoint seed values come from cubic interpolation, so the single-step
    order of the scheme is preserved for smooth seeds.
    """
    d = u.d
    init_chi = np.asarray(init_chi, dtype=np.complex128).reshape(d, d)
    init_phi = np.asarray(init_phi, dtype=np.complex128).reshape(d, d)
    n, h = u.count, u.h
    mids = _midpoint_samples(u.values)
    two_i_lam = 2j * lam * np.eye(d)

    def rhs(uval, chi, phi):
        return (
            (-two_i_lam + uval) @ chi + uval @ phi,
            uval @ chi + (two_i_lam + uval) @ phi,
        )

    chis = np.empty((n, d, d), dtype=np.complex128)
    phis = np.empty((n, d, d), dtype=np.complex128)
    chis[0], phis[0] = init_chi, init_phi
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n - 1):
            u0, um, u1 = u.values[k], mids[k], u.values[k + 1]
            c, p = chis[k], phis[k]
            k1c, k1p = rhs(u0, c, p)
            k2c, k2p = rhs(um, c + 0.5 * h * k1c, p + 0.5 * h * k1p)
            k3c, k3p = rhs(um, c + 0.5 * h * k2c, p + 0.5 * h * k2p)
            k4c, k4p = rhs(u1, c + h * k3c, p + h * k3p)
            chis[k + 1] = c + (h / 6.0) * (k1c + 2 * k2c + 2 * k3c + k4c)
            phis[k + 1] = p + (h / 6.0) * (k1p + 2 * k2p + 2 * k3p + k4p)
    # a non-finite entry stays non-finite in every later step, so the first
    # bad step is the first non-finite sample after the initial one
    bad = ~(np.isfinite(chis[1:]).all(axis=(1, 2)) & np.isfinite(phis[1:]).all(axis=(1, 2)))
    if bad.any():
        raise DivergenceError(u.z0 + (int(np.argmax(bad)) + 1) * h)
    return Eigenpair(
        lam,
        GridFunction(u.z0, h, chis),
        GridFunction(u.z0, h, phis),
    )


# ---------------------------------------------------------------------------
# Transformations
# ---------------------------------------------------------------------------


def _inv(values: np.ndarray, tol: float, what: str) -> np.ndarray:
    """Stacked inverse; the first singular matrix raises at its grid index."""
    try:
        return invert_complex_matrix(values, tol)
    except ZeroDivisionError as exc:
        raise SingularEigenfunction(exc.index, what) from exc


def _dt_step(
    u_values: np.ndarray,
    chi_values: np.ndarray,
    phi_values: np.ndarray,
    lam: complex,
    tol: float = SINGULARITY_TOL,
) -> np.ndarray:
    """Pointwise -4 lam T + T u T with T = phi chi^-1, order preserved."""
    t = phi_values @ _inv(chi_values, tol, "chi")
    return -4.0 * lam * t + t @ u_values @ t


def darboux_once(
    u: GridFunction, pair: Eigenpair, tol: float = SINGULARITY_TOL
) -> GridFunction:
    """One-fold transformation of the seed by a particular eigenpair."""
    _require_same_grid(u, pair.chi, "seed and eigenfunctions")
    values = _dt_step(u.values, pair.chi.values, pair.phi.values, pair.lam, tol)
    return GridFunction(u.z0, u.h, values)


def dress_eigenfunctions(
    chi: GridFunction,
    phi: GridFunction,
    lam: complex,
    pair1: Eigenpair,
    tol: float = SINGULARITY_TOL,
) -> tuple[GridFunction, GridFunction]:
    """Map an arbitrary solution pair through the one-fold transformation.

    chi[1] = lam phi - lam1 phi1 chi1^-1 chi,
    phi[1] = lam chi - lam1 chi1 phi1^-1 phi.
    Applied to its own seed pair at lam = lam1 both outputs vanish.
    """
    _require_same_grid(chi, pair1.chi, "solutions and the seed pair")
    _require_same_grid(chi, phi, "chi and phi")
    try:
        chi1_inv = _inv(pair1.chi.values, tol, "chi")
    except SingularEigenfunction as exc:
        # report the first singular grid index of either family; chi wins a tie
        _inv(pair1.phi.values[: exc.z_index], tol, "phi")
        raise
    phi1_inv = _inv(pair1.phi.values, tol, "phi")
    lam1 = pair1.lam
    new_chi = lam * phi.values - lam1 * (pair1.phi.values @ chi1_inv @ chi.values)
    new_phi = lam * chi.values - lam1 * (pair1.chi.values @ phi1_inv @ phi.values)
    return (
        GridFunction(chi.z0, chi.h, new_chi),
        GridFunction(phi.z0, phi.h, new_phi),
    )


# ---------------------------------------------------------------------------
# Dressing chain
# ---------------------------------------------------------------------------


class DressingChain:
    """Recursive dressing state: level k uses only levels below it.

    Levels are computed in order; ``compute_level`` refuses out-of-order
    requests.  ``solution(k)`` returns u[k] with u[0] the seed.
    """

    def __init__(
        self,
        seed: GridFunction,
        eigenpairs: list[Eigenpair],
        tol: float = SINGULARITY_TOL,
    ):
        if not eigenpairs:
            raise DarbouxError("a dressing chain needs at least one eigenpair")
        lams = [p.lam for p in eigenpairs]
        if len(set(lams)) != len(lams):
            raise DarbouxError("spectral values must be pairwise distinct")
        for p in eigenpairs:
            _require_same_grid(seed, p.chi, "seed and eigenfunctions")
        self.seed = seed
        self.eigenpairs = list(eigenpairs)
        self.tol = tol
        self._solutions: list[GridFunction] = [seed]
        self._dressed: list[tuple[complex, GridFunction, GridFunction]] = [
            (p.lam, p.chi, p.phi) for p in eigenpairs
        ]
        self._levels_done = 0
        self.audit: list[dict] = []

    @property
    def depth(self) -> int:
        return len(self.eigenpairs)

    def solution(self, k: int) -> GridFunction:
        if not (0 <= k <= self._levels_done):
            raise LevelOrderViolation(
                f"solution {k} not available; {self._levels_done} levels computed"
            )
        return self._solutions[k]

    def compute_level(self, k: int) -> GridFunction:
        if k != self._levels_done + 1:
            raise LevelOrderViolation(
                f"level {k} requested but next level is {self._levels_done + 1}"
            )
        if k > self.depth:
            raise LevelOrderViolation(f"chain has only {self.depth} eigenpairs")
        lam, chi, phi = self._dressed[k - 1]
        u_prev = self._solutions[k - 1]
        u_next = GridFunction(
            u_prev.z0,
            u_prev.h,
            _dt_step(u_prev.values, chi.values, phi.values, lam, self.tol),
        )
        head = Eigenpair(lam, chi, phi)
        for m in range(k, self.depth):
            lam_m, chi_m, phi_m = self._dressed[m]
            chi_new, phi_new = dress_eigenfunctions(chi_m, phi_m, lam_m, head, self.tol)
            self._dressed[m] = (lam_m, chi_new, phi_new)
        dets = np.abs(np.linalg.det(chi.values))
        self.audit.append(
            {
                "level": k,
                "lambda": lam,
                "min_abs_det_chi": float(np.min(dets)),
                "max_norm_u": u_next.max_norm(),
            }
        )
        self._solutions.append(u_next)
        self._levels_done = k
        return u_next

    def ensure(self, n: int) -> None:
        while self._levels_done < n:
            self.compute_level(self._levels_done + 1)


def darboux_nfold(chain: DressingChain, n: int) -> GridFunction:
    """u[N] by iterating the one-fold step through the dressed chain."""
    if not (1 <= n <= chain.depth):
        raise DarbouxError(f"N must lie in [1, {chain.depth}]")
    chain.ensure(n)
    return chain.solution(n)


# ---------------------------------------------------------------------------
# Quasideterminant solution forms
# ---------------------------------------------------------------------------


def _omega_arrays(
    pairs: list[Eigenpair], k: int
) -> tuple[list[list[np.ndarray]], list[list[np.ndarray]]]:
    """The level-k arrays, each entry a whole-grid ``(count, d, d)`` stack.

    Columns are pairs (k-1, ..., 1, k); row m carries spectral weight
    gamma^m and alternates between the two eigenfunction families, starting
    from chi for the chi-form and from phi for the phi-form.  The
    quasideterminant position is the boxed bottom-right corner.
    """
    order = list(range(k - 2, -1, -1)) + [k - 1]
    chi_rows, phi_rows = [], []
    for m in range(k):
        chi_row, phi_row = [], []
        for p in order:
            pr = pairs[p]
            w = pr.lam**m
            first, second = (pr.chi, pr.phi) if m % 2 == 0 else (pr.phi, pr.chi)
            chi_row.append(w * first.values)
            phi_row.append(w * second.values)
        chi_rows.append(chi_row)
        phi_rows.append(phi_row)
    return chi_rows, phi_rows


def quasidet_dressed_pair(
    pairs: list[Eigenpair],
    k: int,
    tol: float = SINGULARITY_TOL,
) -> tuple[np.ndarray, np.ndarray]:
    """Level-k dressed eigenfunctions as pointwise quasideterminants."""
    if k == 1:
        return pairs[0].chi.values.copy(), pairs[0].phi.values.copy()
    carrier = ComplexMatrixCarrier(pairs[0].chi.d, tol)
    try:
        return tuple(
            quasideterminant_expand(BlockMatrix(carrier, rows), k - 1, k - 1)
            for rows in _omega_arrays(pairs, k)
        )
    except NonInvertibleMinor as exc:
        msg = f"level {k} minor singular at grid index {exc.__cause__.index}"
        raise NonInvertibleMinor(exc.row, exc.col, msg) from exc


def quasidet_solution_form(chain: DressingChain, n: int) -> GridFunction:
    """u[N] assembled from quasideterminant eigenfunction forms.

    Level factors are the quasideterminants of the spectral-weighted arrays
    of the raw eigenpairs; assembly is the same per-level sandwich as the
    recursive path, so the two routes cross-check each other.  Row/column
    alternation beyond level 3 extrapolates the printed pattern; the
    darboux report flags this.
    """
    if not (1 <= n <= chain.depth):
        raise DarbouxError(f"N must lie in [1, {chain.depth}]")
    u_values = chain.seed.values
    for k in range(1, n + 1):
        chi_vals, phi_vals = quasidet_dressed_pair(chain.eigenpairs, k, chain.tol)
        u_values = _dt_step(u_values, chi_vals, phi_vals, chain.eigenpairs[k - 1].lam, chain.tol)
    return GridFunction(chain.seed.z0, chain.seed.h, u_values)


# ---------------------------------------------------------------------------
# Residual diagnostics
# ---------------------------------------------------------------------------


def _fd_first_derivative(values: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order centered first derivative, one-sided at the edges."""
    n = values.shape[0]
    if n < 5:
        raise DarbouxError("derivative stencil needs at least five samples")
    d = np.empty_like(values)
    f = values
    d[2 : n - 2] = (f[: n - 4] - 8 * f[1 : n - 3] + 8 * f[3 : n - 1] - f[4:]) / (12 * h)
    d[0] = (-25 * f[0] + 48 * f[1] - 36 * f[2] + 16 * f[3] - 3 * f[4]) / (12 * h)
    d[1] = (-3 * f[0] - 10 * f[1] + 18 * f[2] - 6 * f[3] + f[4]) / (12 * h)
    d[n - 1] = (25 * f[n - 1] - 48 * f[n - 2] + 36 * f[n - 3] - 16 * f[n - 4] + 3 * f[n - 5]) / (
        12 * h
    )
    d[n - 2] = (3 * f[n - 1] + 10 * f[n - 2] - 18 * f[n - 3] + 6 * f[n - 4] - f[n - 5]) / (
        12 * h
    )
    return d


def riccati_residual_numeric(
    pair: Eigenpair, u: GridFunction, tol: float = SINGULARITY_TOL
) -> np.ndarray:
    """Per-point norm of the first-order closure of the eigenfunction ratio.

    Delta = chi phi^-1 pointwise, its derivative by centered finite
    differences, and the defect against
    -4 i lam Delta + u + [u, Delta] - Delta u Delta
    in Frobenius norm (the spectral factor stays in the linear term).
    """
    _require_same_grid(u, pair.chi, "seed and eigenfunctions")
    delta = pair.chi.values @ _inv(pair.phi.values, tol, "phi")
    d_delta = _fd_first_derivative(delta, u.h)
    rhs = (
        -4j * pair.lam * delta
        + u.values
        + np.matmul(u.values, delta)
        - np.matmul(delta, u.values)
        - np.matmul(np.matmul(delta, u.values), delta)
    )
    return np.linalg.norm(d_delta - rhs, axis=(1, 2))


def qpii_residual_numeric(u: GridFunction, c: complex) -> np.ndarray:
    """Second-difference defect of the target equation at interior points.

    Returns the Frobenius norm of u'' - 2 u^3 + 4 z u - c I per interior
    grid point; with a scalar grid variable the anticommutator collapses to
    4 z u.  Recorded as a diagnostic; no acceptance gate consumes it.
    """
    if u.count < 5:
        raise DarbouxError("second-difference stencil needs at least five samples")
    f = u.values
    h = u.h
    upp = (f[:-2] - 2 * f[1:-1] + f[2:]) / (h * h)
    zs = u.zs[1:-1].reshape(-1, 1, 1)
    inner = f[1:-1]
    cube = np.matmul(np.matmul(inner, inner), inner)
    eye = np.eye(u.d, dtype=np.complex128)
    residual = upp - 2 * cube + 4 * zs * inner - c * eye
    return np.linalg.norm(residual, axis=(1, 2))


# ---------------------------------------------------------------------------
# Config and report
# ---------------------------------------------------------------------------


@dataclass
class DarbouxConfig:
    """Run description: grid, seed, spectral values, initial conditions."""

    d: int
    z0: float
    h: float
    count: int
    lambdas: list[complex]
    c: complex = 0j
    seed: object = "vacuum"
    inits: list[tuple[np.ndarray, np.ndarray]] | None = None
    singularity_tol: float = SINGULARITY_TOL
    consistency_tol: float = CONSISTENCY_TOL
    convergence_probe: bool = False
    echo: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.d < 1:
            raise ConfigError("matrix dimension must be at least 1")
        if len(set(self.lambdas)) != len(self.lambdas):
            raise ConfigError("spectral values must be pairwise distinct")
        if not self.lambdas:
            raise ConfigError("at least one spectral value is required")
        if self.count < 5:
            raise ConfigError("grid must have at least five samples")
        if self.h <= 0:
            raise ConfigError("grid step must be positive")
        if self.inits is None:
            eye = np.eye(self.d, dtype=np.complex128)
            self.inits = [(eye, eye) for _ in self.lambdas]
        if len(self.inits) != len(self.lambdas):
            raise ConfigError("one initial-condition pair per spectral value")

    @classmethod
    def from_json(cls, doc) -> "DarbouxConfig":
        if isinstance(doc, str):
            doc = json.loads(doc)
        try:
            grid = doc["grid"]
            lambdas = [_cplx(v) for v in doc["lambdas"]]
            inits = None
            if "inits" in doc:
                inits = [
                    (_cmat(item["chi"]), _cmat(item["phi"])) for item in doc["inits"]
                ]
            tol = doc.get("tolerances", {})
            cfg = cls(
                d=int(doc["d"]),
                z0=float(grid["z0"]),
                h=float(grid["h"]),
                count=int(grid["count"]),
                lambdas=lambdas,
                c=_cplx(doc.get("c", [0.0, 0.0])),
                seed=doc.get("seed", "vacuum"),
                inits=inits,
                singularity_tol=float(tol.get("singularity", SINGULARITY_TOL)),
                consistency_tol=float(tol.get("consistency", CONSISTENCY_TOL)),
                convergence_probe=bool(doc.get("convergence_probe", False)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid darboux config: {exc}") from exc
        cfg.echo = doc
        return cfg

    def seed_grid(self) -> GridFunction:
        if self.seed == "vacuum":
            return vacuum_seed(self.z0, self.h, self.count, self.d)
        if isinstance(self.seed, dict) and "values" in self.seed:
            values = np.array(
                [_cmat(v) for v in self.seed["values"]], dtype=np.complex128
            )
            if values.shape != (self.count, self.d, self.d):
                raise ConfigError(
                    f"seed values shape {values.shape} does not match the grid"
                )
            return GridFunction(self.z0, self.h, values)
        if isinstance(self.seed, dict) and "file" in self.seed:
            with open(self.seed["file"], "r", encoding="utf-8") as fh:
                payload = json.load(fh)
            return DarbouxConfig(
                d=self.d,
                z0=self.z0,
                h=self.h,
                count=self.count,
                lambdas=self.lambdas,
                seed={"values": payload["values"]},
            ).seed_grid()
        raise ConfigError(f"unknown seed specification {self.seed!r}")


def _cplx(v) -> complex:
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, list) and len(v) == 2:
        return complex(float(v[0]), float(v[1]))
    raise ConfigError(f"cannot parse complex value {v!r}")


def _cmat(v) -> np.ndarray:
    return np.array([[_cplx(e) for e in row] for row in v], dtype=np.complex128)


def run_config(config: DarbouxConfig) -> dict:
    """Full pipeline: integrate, dress both ways, collect residuals."""
    seed = config.seed_grid()
    pairs = [
        integrate_linear_system(seed, lam, init_chi, init_phi)
        for lam, (init_chi, init_phi) in zip(config.lambdas, config.inits)
    ]
    chain = DressingChain(seed, pairs, tol=config.singularity_tol)
    n = len(pairs)

    levels = []
    for k in range(1, n + 1):
        u_rec = darboux_nfold(chain, k)
        u_qd = quasidet_solution_form(chain, k)
        deviation = float(
            np.max(np.linalg.norm(u_rec.values - u_qd.values, axis=(1, 2)))
        )
        levels.append(
            {
                "level": k,
                "lambda": chain.eigenpairs[k - 1].lam,
                "path_deviation_max": deviation,
                "within_tolerance": deviation <= config.consistency_tol,
                "max_norm_u": u_rec.max_norm(),
            }
        )

    riccati = []
    for pair in pairs:
        res = riccati_residual_numeric(pair, seed, tol=config.singularity_tol)
        riccati.append(
            {
                "lambda": pair.lam,
                "max": float(np.max(res)),
                "mean": float(np.mean(res)),
                "per_point": res.tolist(),
            }
        )

    u_final = chain.solution(n)
    qpii_seed = qpii_residual_numeric(seed, config.c)
    qpii_final = qpii_residual_numeric(u_final, config.c)

    report = {
        "schema": "darboux-report-v1",
        "config": config.echo or None,
        "grid": {"z0": config.z0, "h": config.h, "count": config.count, "d": config.d},
        "tolerances": {
            "singularity": config.singularity_tol,
            "consistency": config.consistency_tol,
        },
        "levels": levels,
        "audit": chain.audit,
        "riccati_residual": riccati,
        "qpii_residual": {
            "note": (
                "defect of the target equation for transformed outputs is "
                "recorded as an experiment; no acceptance gate consumes it"
            ),
            "seed_max": float(np.max(qpii_seed)),
            "final_max": float(np.max(qpii_final)),
            "final_per_point": qpii_final.tolist(),
        },
        "parity_note": (
            "row alternation of the level arrays beyond level 3 extrapolates "
            "the printed pattern"
        ),
    }
    if config.convergence_probe:
        report["convergence"] = integrator_convergence_table(
            d=config.d, lam=config.lambdas[0]
        )
    return report


def integrator_convergence_table(
    d: int = 1,
    lam: complex = 1 + 0.5j,
    z0: float = 0.0,
    z1: float = 1.0,
    steps: tuple[float, ...] = (1e-2, 5e-3, 2.5e-3, 1.25e-3),
) -> dict:
    """Endpoint error against the trivial-seed closed form per step size."""
    errors = []
    for h in steps:
        count = int(round((z1 - z0) / h)) + 1
        u = vacuum_seed(z0, h, count, d)
        pair = integrate_linear_system(u, lam, np.eye(d), np.eye(d))
        z_end = z0 + (count - 1) * h
        chi_exact = np.exp(-2j * lam * (z_end - z0)) * np.eye(d)
        phi_exact = np.exp(2j * lam * (z_end - z0)) * np.eye(d)
        err = max(
            float(np.linalg.norm(pair.chi.values[-1] - chi_exact)),
            float(np.linalg.norm(pair.phi.values[-1] - phi_exact)),
        )
        errors.append({"h": h, "endpoint_error": err})
    ratios = [
        errors[i]["endpoint_error"] / errors[i + 1]["endpoint_error"]
        for i in range(len(errors) - 1)
    ]
    return {"errors": errors, "halving_ratios": ratios}
