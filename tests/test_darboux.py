import json
import operator
import random
from fractions import Fraction
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

import qpii.darboux as dbx
from qpii.darboux import (
    CONSISTENCY_TOL,
    ConfigError,
    DarbouxConfig,
    DivergenceError,
    DressingChain,
    Eigenpair,
    GridFunction,
    LevelOrderViolation,
    SINGULARITY_TOL,
    SingularEigenfunction,
    darboux_nfold,
    darboux_once,
    dress_eigenfunctions,
    integrate_linear_system,
    integrator_convergence_table,
    qpii_residual_numeric,
    quasidet_dressed_pair,
    quasidet_solution_form,
    riccati_residual_numeric,
    _dress_level,
    _omega_arrays,
    _ratio,
    run_config,
    vacuum_seed,
)
from qpii.gaussian import gauss
from qpii import quasidet
from qpii.quasidet import (
    BlockMatrix,
    ComplexMatrixCarrier,
    ExactScalarCarrier,
    NonInvertibleMinor,
    quasideterminant_expand,
)
from qpii.reportio import dumps

ROOT = Path(__file__).resolve().parents[1]
LAM = 1 + 0.5j


def vacuum_pair(lam, z0=0.0, h=1e-2, count=101, d=1, init_chi=None, init_phi=None):
    u = vacuum_seed(z0, h, count, d)
    init_chi = np.eye(d) if init_chi is None else init_chi
    init_phi = np.eye(d) if init_phi is None else init_phi
    return u, integrate_linear_system(u, lam, init_chi, init_phi)


# -- integration ---------------------------------------------------------------


def test_vacuum_closed_form():
    u, pair = vacuum_pair(LAM)
    zs = u.zs
    chi_exact = np.exp(-2j * LAM * zs)
    phi_exact = np.exp(2j * LAM * zs)
    assert np.max(np.abs(pair.chi.values[:, 0, 0] - chi_exact)) < 5e-8
    assert np.max(np.abs(pair.phi.values[:, 0, 0] - phi_exact)) < 5e-8


def test_zero_spectral_value_constant():
    u, pair = vacuum_pair(0.0)
    assert np.max(np.abs(pair.chi.values - pair.chi.values[0])) == 0.0
    assert np.max(np.abs(pair.phi.values - pair.phi.values[0])) == 0.0


def test_integrator_order():
    table = integrator_convergence_table()
    for ratio in table["halving_ratios"]:
        assert 8.0 <= ratio <= 32.0


def test_convergence_probe_at_zero_spectral_value():
    # the constant solution at lam = 0 is met exactly at every step size, so
    # no halving ratio is defined; the probe reports None, not ZeroDivisionError
    table = integrator_convergence_table(d=2, lam=0)
    assert [e["endpoint_error"] for e in table["errors"]] == [0.0] * 4
    assert table["halving_ratios"] == [None] * 3


def test_divergence_detected():
    u = vacuum_seed(0.0, 1e-2, 101, 1)
    with pytest.raises(DivergenceError):
        integrate_linear_system(u, 1e200, np.eye(1), np.eye(1))


def test_divergence_reports_first_non_finite_step():
    # one huge seed sample overflows the state mid-grid; z is the first step
    # whose state is not finite, as a check after every step reports it
    values = np.zeros((101, 2, 2), dtype=np.complex128)
    values[50] = 1e300 * np.eye(2)
    u = GridFunction(0.0, 1e-2, values)
    with pytest.raises(DivergenceError) as err:
        integrate_linear_system(u, LAM, np.eye(2), np.eye(2))
    assert err.value.z == 0.49


def rk4_step_loop(u, lam, init_chi, init_phi):
    """Test oracle: the RK4 scheme one grid step and one spectral value at a
    time, four right-hand-side evaluations per step."""
    d, n, h = u.d, u.count, u.h
    mids = dbx._midpoint_samples(u.values)
    two_i_lam = 2j * lam * np.eye(d)

    def rhs(uval, chi, phi):
        return (
            (-two_i_lam + uval) @ chi + uval @ phi,
            uval @ chi + (two_i_lam + uval) @ phi,
        )

    chis = np.empty((n, d, d), dtype=np.complex128)
    phis = np.empty((n, d, d), dtype=np.complex128)
    chis[0], phis[0] = init_chi, init_phi
    for k in range(n - 1):
        u0, um, u1 = u.values[k], mids[k], u.values[k + 1]
        c, p = chis[k], phis[k]
        k1c, k1p = rhs(u0, c, p)
        k2c, k2p = rhs(um, c + 0.5 * h * k1c, p + 0.5 * h * k1p)
        k3c, k3p = rhs(um, c + 0.5 * h * k2c, p + 0.5 * h * k2p)
        k4c, k4p = rhs(u1, c + h * k3c, p + h * k3p)
        chis[k + 1] = c + (h / 6.0) * (k1c + 2 * k2c + 2 * k3c + k4c)
        phis[k + 1] = p + (h / 6.0) * (k1p + 2 * k2p + 2 * k3p + k4p)
    return chis, phis


def noncommuting_seed(d, count, h=1e-2):
    """0.3 sin(z) I + 0.1 cos(3z) R with a fixed non-diagonal R."""
    rng = np.random.default_rng(d)
    r = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    zs = h * np.arange(count)[:, None, None]
    return GridFunction(0.0, h, 0.3 * np.sin(zs) * np.eye(d) + 0.1 * np.cos(3 * zs) * r)


BATCH_LAMS = [1 + 0.5j, 0.3 - 0.2j, -0.7 + 0.4j]


def batch_inits(d):
    return [(np.eye(d), np.eye(d) + 0.2 * k * np.triu(np.ones((d, d)), 1)) for k in range(3)]


# 128 grid steps are propagated per chunk: counts on both sides of its edges
@pytest.mark.parametrize("count", [129, 130, 257])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_propagator_matches_step_loop(d, count):
    u = noncommuting_seed(d, count)
    for pair, lam, (ic, ip) in zip(
        dbx.integrate_eigenpairs(u, BATCH_LAMS, batch_inits(d)), BATCH_LAMS, batch_inits(d)
    ):
        chis, phis = rk4_step_loop(u, lam, ic, ip)
        for got, want in ((pair.chi.values, chis), (pair.phi.values, phis)):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_batched_integration_equals_one_value_calls(d):
    u = noncommuting_seed(d, 257)
    batch = dbx.integrate_eigenpairs(u, BATCH_LAMS, batch_inits(d))
    for pair, lam, (ic, ip) in zip(batch, BATCH_LAMS, batch_inits(d)):
        one = integrate_linear_system(u, lam, ic, ip)
        assert pair.lam == one.lam == lam
        assert np.array_equal(pair.chi.values, one.chi.values)
        assert np.array_equal(pair.phi.values, one.phi.values)


def test_batched_divergence_names_the_diverging_value():
    u = vacuum_seed(0.0, 1e-2, 101, 1)
    lams = [LAM, 1e200, 0.3 - 0.2j]
    with pytest.raises(DivergenceError) as batched:
        dbx.integrate_eigenpairs(u, lams, [(np.eye(1), np.eye(1))] * 3)
    with pytest.raises(DivergenceError) as alone:
        integrate_linear_system(u, 1e200, np.eye(1), np.eye(1))
    assert batched.value.z == alone.value.z == 0.01
    # values are checked in the given order, not by the earliest bad step
    values = np.zeros((101, 1, 1), dtype=np.complex128)
    values[50] = 1e300
    with pytest.raises(DivergenceError) as err:
        dbx.integrate_eigenpairs(GridFunction(0.0, 1e-2, values), [LAM, 1e200],
                                 [(np.eye(1), np.eye(1))] * 2)
    assert err.value.z == 0.49


def test_grid_function_validation():
    with pytest.raises(Exception):
        GridFunction(0.0, 1e-2, np.zeros((1, 2, 2)))
    with pytest.raises(Exception):
        GridFunction(0.0, -1.0, np.zeros((5, 2, 2)))
    with pytest.raises(Exception):
        GridFunction(0.0, 1e-2, np.full((5, 2, 2), np.nan))


# -- one-fold transformation -----------------------------------------------------


def test_darboux_once_vacuum_closed_form():
    u, pair = vacuum_pair(LAM)
    u1 = darboux_once(u, pair)
    zs = u.zs
    expected = -4 * LAM * np.exp(4j * LAM * zs)
    assert np.max(np.abs(u1.values[:, 0, 0] - expected)) < 1e-7


def test_darboux_once_equal_pair_collapses():
    # with phi = chi the dressing factor is the identity
    z0, h, count, d = 0.0, 1e-2, 21, 2
    rng = np.random.default_rng(7)
    vals = rng.normal(size=(count, d, d)) + 1j * rng.normal(size=(count, d, d))
    vals = vals + 3 * np.eye(d)
    chi = GridFunction(z0, h, vals)
    u = GridFunction(z0, h, rng.normal(size=(count, d, d)) + 0j)
    pair = Eigenpair(LAM, chi, chi)
    u1 = darboux_once(u, pair)
    expected = -4 * LAM * np.eye(d) + u.values
    assert np.max(np.abs(u1.values - expected)) < 1e-10


def test_darboux_once_singularity_reports_index():
    z0, h, count = 0.0, 1e-2, 11
    vals = np.ones((count, 1, 1), dtype=np.complex128)
    vals[4] = 0.0
    chi = GridFunction(z0, h, vals)
    phi = GridFunction(z0, h, np.ones((count, 1, 1), dtype=np.complex128))
    u = vacuum_seed(z0, h, count, 1)
    with pytest.raises(SingularEigenfunction) as err:
        darboux_once(u, Eigenpair(LAM, chi, phi))
    assert err.value.z_index == 4


def _with_zeros(count, indices):
    vals = np.ones((count, 1, 1), dtype=np.complex128)
    vals[list(indices)] = 0.0
    return GridFunction(0.0, 1e-2, vals)


def _dress(u, pair):
    return dress_eigenfunctions(u, u, 0.3, pair)


def _riccati(u, pair):
    return riccati_residual_numeric(pair, u)


def _chain_level(u, pair):
    other = Eigenpair(0.3 - 0.2j, _with_zeros(u.count, ()), _with_zeros(u.count, ()))
    DressingChain(u, [pair, other]).compute_level(1)


@pytest.mark.parametrize(
    "apply, chi_zeros, phi_zeros, what, index",
    [
        (_dress, (4, 8), (6,), "chi", 4),
        (_dress, (6,), (2, 9), "phi", 2),
        (_dress, (5,), (5,), "chi", 5),
        (_dress, (0,), (3,), "chi", 0),
        (_riccati, (1,), (3, 7), "phi", 3),
        (_chain_level, (5,), (2,), "chi", 5),
        (_chain_level, (), (2,), "phi", 2),
    ],
    ids=[
        "dress-chi-first",
        "dress-phi-first",
        "dress-same-index",
        "dress-chi-at-zero",
        "riccati",
        "chain-chi-before-phi",
        "chain-phi-with-a-pair-to-dress",
    ],
)
def test_singularity_reports_first_index(apply, chi_zeros, phi_zeros, what, index):
    # dress_eigenfunctions reports the smallest failing grid index across both
    # families, chi winning a tie; a chain level checks the head chi first
    count = 11
    pair = Eigenpair(LAM, _with_zeros(count, chi_zeros), _with_zeros(count, phi_zeros))
    u = vacuum_seed(0.0, 1e-2, count, 1)
    with pytest.raises(SingularEigenfunction) as err:
        apply(u, pair)
    assert err.value.z_index == index
    assert str(err.value) == f"{what} is singular at grid index {index}"


def test_chain_last_head_needs_no_phi_inverse():
    # no pair remains to dress, so the head phi is never inverted
    count = 11
    pair = Eigenpair(LAM, _with_zeros(count, ()), _with_zeros(count, (2,)))
    chain = DressingChain(vacuum_seed(0.0, 1e-2, count, 1), [pair])
    assert chain.compute_level(1).count == count


def test_level_two_singular_minor_reports_index():
    count = 11
    first = Eigenpair(LAM, _with_zeros(count, (7,)), _with_zeros(count, ()))
    second = Eigenpair(0.3 - 0.2j, _with_zeros(count, ()), _with_zeros(count, ()))
    with pytest.raises(NonInvertibleMinor, match="level 2 minor singular at grid index 7"):
        quasidet_dressed_pair([first, second], 2)


def test_level_three_minor_pivots_per_grid_point():
    # the level-3 minor's first-column candidates are singular at different
    # points (chi of the second pair at 3, phi at 7); each point pivots on
    # whichever candidate inverts there, as a one-point evaluation does
    count = 11

    def pair(lam, chi_scale, chi_zeros, phi_scale, phi_zeros):
        chi = chi_scale * _with_zeros(count, chi_zeros).values
        phi = phi_scale * _with_zeros(count, phi_zeros).values
        return Eigenpair(lam, GridFunction(0.0, 1e-2, chi), GridFunction(0.0, 1e-2, phi))

    pairs = [
        pair(1 + 0.5j, 2, (), 3, ()),
        pair(0.3 - 0.2j, 1, (3,), 5, (7,)),
        pair(-0.7 + 0.4j, 7, (), 11, ()),
    ]
    chi, phi = quasidet_dressed_pair(pairs, 3)
    carrier = ComplexMatrixCarrier(1)
    raw = [(p.lam, p.chi.values, p.phi.values) for p in pairs]
    for got, rows in zip((chi, phi), _omega_arrays(carrier, raw, 3)):
        for point in range(count):
            block = BlockMatrix(carrier, [[e[point] for e in row] for row in rows])
            assert np.array_equal(got[point], quasideterminant_expand(block, 2, 2))


# -- eigenfunction dressing -------------------------------------------------------


def test_kernel_property():
    u, pair = vacuum_pair(LAM, d=2)
    chi1, phi1 = dress_eigenfunctions(pair.chi, pair.phi, pair.lam, pair)
    assert chi1.max_norm() <= 1e-10
    assert phi1.max_norm() <= 1e-10


def test_dressing_at_zero_spectral_value():
    u, pair = vacuum_pair(LAM)
    u2, other = vacuum_pair(0.3 - 0.2j)
    chi1, _phi1 = dress_eigenfunctions(other.chi, other.phi, 0.0, pair)
    # chi[1] = -lam1 phi1 chi1^-1 chi pointwise
    want = np.array(
        [
            -pair.lam * pair.phi.values[k] @ np.linalg.inv(pair.chi.values[k]) @ other.chi.values[k]
            for k in range(u.count)
        ]
    )
    assert np.max(np.abs(chi1.values - want)) < 1e-12


def test_dressed_pair_matches_two_by_two_quasideterminant():
    u, pair1 = vacuum_pair(LAM, d=2, init_phi=np.array([[1.0, 0.3], [-0.2, 1.0]]))
    _u, pair0 = vacuum_pair(
        0.4 - 0.3j, d=2, init_chi=np.array([[1.0, 0.1], [0.0, 1.0]])
    )
    chi1, phi1 = dress_eigenfunctions(pair0.chi, pair0.phi, pair0.lam, pair1)
    from qpii.quasidet import ComplexMatrixCarrier

    carrier = ComplexMatrixCarrier(2)
    for k in (0, 37, 100):
        arr = BlockMatrix(
            carrier,
            [
                [pair1.chi.values[k], pair0.chi.values[k]],
                [pair1.lam * pair1.phi.values[k], pair0.lam * pair0.phi.values[k]],
            ],
        )
        got = quasideterminant_expand(arr, 1, 1)
        assert np.max(np.abs(got - chi1.values[k])) < 1e-12


def test_level_template_matches_recursion_exactly():
    # Scalar rational chain oracle: two dressing steps by exact recursion
    # versus the 3x3 spectral-weighted array, evaluated over the exact
    # carrier.  Frozen values were computed by hand with Fractions.
    chi = {1: Fraction(2), 2: Fraction(7), 0: Fraction(17)}
    phi = {1: Fraction(3), 2: Fraction(11), 0: Fraction(19)}
    gam = {1: Fraction(5), 2: Fraction(13), 0: Fraction(23)}

    def dress(values_chi, values_phi, seed):
        out_chi, out_phi = {}, {}
        for m in values_chi:
            if m == seed:
                continue
            out_chi[m] = gam[m] * values_phi[m] - gam[seed] * values_phi[seed] / values_chi[seed] * values_chi[m]
            out_phi[m] = gam[m] * values_chi[m] - gam[seed] * values_chi[seed] / values_phi[seed] * values_phi[m]
        return out_chi, out_phi

    chi1, phi1 = dress(chi, phi, 1)
    chi2, phi2 = dress(chi1, phi1, 2)
    assert chi2[0] == Fraction(926856, 181)
    assert phi2[0] == Fraction(3816, 163)

    carrier = ExactScalarCarrier()
    rows_chi = [
        [gauss(chi[2]), gauss(chi[1]), gauss(chi[0])],
        [gauss(gam[2] * phi[2]), gauss(gam[1] * phi[1]), gauss(gam[0] * phi[0])],
        [
            gauss(gam[2] ** 2 * chi[2]),
            gauss(gam[1] ** 2 * chi[1]),
            gauss(gam[0] ** 2 * chi[0]),
        ],
    ]
    rows_phi = [
        [gauss(phi[2]), gauss(phi[1]), gauss(phi[0])],
        [gauss(gam[2] * chi[2]), gauss(gam[1] * chi[1]), gauss(gam[0] * chi[0])],
        [
            gauss(gam[2] ** 2 * phi[2]),
            gauss(gam[1] ** 2 * phi[1]),
            gauss(gam[0] ** 2 * phi[0]),
        ],
    ]
    got_chi = quasideterminant_expand(BlockMatrix(carrier, rows_chi), 2, 2)
    got_phi = quasideterminant_expand(BlockMatrix(carrier, rows_phi), 2, 2)
    assert got_chi == gauss(Fraction(926856, 181))
    assert got_phi == gauss(Fraction(3816, 163))


class ExactMatrixCarrier:
    """``d x d`` matrices of Gaussian rationals, as tuples of row tuples.

    Only tests use it: the dressing formulas run over it unchanged, so the
    two dressing routes can be compared without round-off.
    """

    def __init__(self, d):
        self.d = d

    def zero(self):
        return tuple((gauss(0),) * self.d for _ in range(self.d))

    def one(self):
        return tuple(tuple(gauss(int(r == c)) for c in range(self.d)) for r in range(self.d))

    def add(self, a, b):
        return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))

    def sub(self, a, b):
        return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))

    def mul(self, a, b):
        cols = list(zip(*b))
        return tuple(
            tuple(reduce(operator.add, map(operator.mul, row, col)) for col in cols) for row in a
        )

    def scale(self, w, a):
        w = gauss(w)
        return tuple(tuple(w * x for x in row) for row in a)

    def invert(self, a):
        return tuple(map(tuple, ExactScalarCarrier().invert_matrix(a)))

    def solve(self, rows, rhs):
        """``X`` with ``rows X = rhs`` on one scalar system, as the complex
        carrier solves: block (r, c) entry (i, j) is scalar entry
        (r*d + i, c*d + j), so no block pivot is inverted on its own."""
        d = self.d

        def flat(blocks):
            return [[x for b in row for x in b[i]] for row in blocks for i in range(d)]

        x = ExactScalarCarrier().solve(flat(rows), flat(rhs))
        return [
            [tuple(tuple(x[r + i][c : c + d]) for i in range(d)) for c in range(0, len(x[0]), d)]
            for r in range(0, len(x), d)
        ]


def exact_sampler(rng, d):
    """Random Gaussian-rational scalars and ``d x d`` matrices drawn from ``rng``."""

    def part():
        return Fraction(rng.randint(-5, 5), rng.randint(1, 3))

    def entry():
        return gauss(part(), part())

    def matrix():
        return tuple(tuple(entry() for _ in range(d)) for _ in range(d))

    return entry, matrix


def distinct_lambdas(entry, n):
    lams = []
    while len(lams) < n:
        lam = entry()
        if not lam.is_zero() and lam not in lams:
            lams.append(lam)
    return lams


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_nth_quasideterminant_form_is_exact(d, seed):
    # the recursive dressing and the quasideterminant of the level arrays,
    # both through the shipped formulas, agree exactly on random rational
    # data at levels 1-6, and so do the solutions u[k] of the two routes
    entry, matrix = exact_sampler(random.Random(f"nfold:{d}:{seed}"), d)
    car = ExactMatrixCarrier(d)
    pairs = [(lam, matrix(), matrix()) for lam in distinct_lambdas(entry, 6)]
    dressed = list(pairs)
    u_rec = u_qd = matrix()
    for k in range(1, 7):
        # the recursive route: the level step DressingChain.compute_level runs
        head = dressed[0]
        u_rec, dressed = _dress_level(car, u_rec, head, dressed[1:])
        # the quasideterminant route, as quasidet_solution_form runs it
        form = tuple(
            quasideterminant_expand(BlockMatrix(car, rows), k - 1, k - 1)
            for rows in _omega_arrays(car, pairs, k)
        )
        assert form == head[1:], f"level {k}"
        u_qd = _dress_level(car, u_qd, (head[0], *form), [])[0]
        assert u_qd == u_rec


class DualCarrier:
    """``(value, derivative)`` pairs over a base carrier.  ``mul`` applies the
    product rule and ``invert`` gives ``(a^-1, -a^-1 a' a^-1)``, so a formula
    written over carrier operations returns its exact derivative as well."""

    def __init__(self, base):
        self.base = base

    def sub(self, a, b):
        return self.base.sub(a[0], b[0]), self.base.sub(a[1], b[1])

    def scale(self, w, a):
        return self.base.scale(w, a[0]), self.base.scale(w, a[1])

    def mul(self, a, b):
        car = self.base
        return car.mul(a[0], b[0]), car.add(car.mul(a[1], b[0]), car.mul(a[0], b[1]))

    def invert(self, a):
        inv = self.base.invert(a[0])
        return inv, self.base.scale(-1, self.base.mul(self.base.mul(inv, a[1]), inv))


def system_duals(car, u, lam, chi, phi):
    """``chi`` and ``phi`` as dual elements, with the derivatives the linear
    system gives: chi' = (-2i lam + u) chi + u phi, phi' = u chi + (2i lam + u) phi."""
    two_i_lam = gauss(0, 2) * lam
    coupled = car.add(car.mul(u, chi), car.mul(u, phi))
    return (
        (chi, car.sub(coupled, car.scale(two_i_lam, chi))),
        (phi, car.add(coupled, car.scale(two_i_lam, phi))),
    )


@pytest.mark.parametrize("d", [1, 2, 3])
def test_eigenfunction_ratio_satisfies_riccati_closure_exactly(d):
    # positive control of the dual carrier: Delta = chi phi^-1 of a solution
    # pair has the derivative -4i lam Delta + u + [u, Delta] - Delta u Delta,
    # the closure riccati_residual_numeric measures by finite differences
    entry, matrix = exact_sampler(random.Random(f"riccati:{d}"), d)
    car = ExactMatrixCarrier(d)
    lam, u = entry(), matrix()
    delta, d_delta = _ratio(DualCarrier(car), *system_duals(car, u, lam, matrix(), matrix()), "phi")
    delta_u = car.mul(delta, u)
    want = car.add(car.add(car.scale(gauss(0, -4) * lam, delta), u), car.mul(u, delta))
    assert d_delta == car.sub(car.sub(want, delta_u), car.mul(delta_u, delta))


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason=(
        "the shipped dressing map is not covariant: the dressed pair does not "
        "solve the linear system of u[1], even at d = 1 on the vacuum"
    ),
)
def test_dressed_pair_solves_the_dressed_system():
    # one _dress_level call over the dual carrier returns u[1], chi[1] and
    # phi[1] with exact derivatives; a Darboux map would make the defect
    # chi[1]' - ((-2i lam + u[1]) chi[1] + u[1] phi[1]) vanish
    entry, matrix = exact_sampler(random.Random("covariance:1"), 1)
    car = ExactMatrixCarrier(1)
    vacuum = car.zero()
    lam1, lam = distinct_lambdas(entry, 2)
    head = (lam1, *system_duals(car, vacuum, lam1, matrix(), matrix()))
    pair = (lam, *system_duals(car, vacuum, lam, matrix(), matrix()))
    (u1, _du1), [(_lam, chi1, phi1)] = _dress_level(
        DualCarrier(car), (vacuum, vacuum), head, [pair]
    )
    (_chi, want), _phi = system_duals(car, u1, lam, chi1[0], phi1[0])
    defect = car.sub(chi1[1], want)
    assert defect == car.zero(), f"chi defect {defect}"


# -- chains ------------------------------------------------------------------------


def chain_for(lams, d=1, count=101, h=1e-2, inits=None):
    seed = vacuum_seed(0.0, h, count, d)
    pairs = []
    for idx, lam in enumerate(lams):
        if inits is None:
            ic = ip = np.eye(d)
        else:
            ic, ip = inits[idx]
        pairs.append(integrate_linear_system(seed, lam, ic, ip))
    return seed, DressingChain(seed, pairs)


def test_nfold_one_is_bit_identical_to_once():
    seed, chain = chain_for([LAM])
    u1 = darboux_nfold(chain, 1)
    direct = darboux_once(seed, chain.eigenpairs[0])
    assert np.array_equal(u1.values, direct.values)
    uq = quasidet_solution_form(chain, 1)
    assert np.array_equal(uq.values, direct.values)


def test_nfold_two_matches_manual_iteration():
    lams = [LAM, 0.3 - 0.2j]
    seed, chain = chain_for(lams)
    u2 = darboux_nfold(chain, 2)
    # manual: dress pair2 by pair1, then apply the one-fold step twice
    p1, p2 = chain.eigenpairs
    u1 = darboux_once(seed, p1)
    chi2, phi2 = dress_eigenfunctions(p2.chi, p2.phi, p2.lam, p1)
    manual = darboux_once(u1, Eigenpair(p2.lam, chi2, phi2))
    assert np.max(np.abs(u2.values - manual.values)) <= 1e-10


def test_scalar_chain_commutative_collapse():
    lams = [LAM, 0.3 - 0.2j]
    seed, chain = chain_for(lams)
    chain.ensure(2)
    # scalar case: the sandwich is theta^2 u + linear term at each level
    p1 = chain.eigenpairs[0]
    theta = p1.phi.values[:, 0, 0] / p1.chi.values[:, 0, 0]
    u1 = chain.solution(1).values[:, 0, 0]
    expect = -4 * p1.lam * theta + theta * seed.values[:, 0, 0] * theta
    assert np.max(np.abs(u1 - expect)) < 1e-12


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("n", [2, 3])
def test_path_consistency(d, n):
    lams = [1 + 0.5j, 0.3 - 0.2j, -0.7 + 0.4j][:n]
    inits = None
    if d == 2:
        inits = [
            (np.eye(2), np.array([[1.0, 0.3], [-0.2, 1.0]])),
            (np.array([[1.0, 0.1], [0.0, 1.0]]), np.eye(2)),
            (np.eye(2), np.array([[1.2, 0.0], [0.1, 0.9]])),
        ][:n]
    _seed, chain = chain_for(lams, d=d, count=201, h=5e-3, inits=inits)
    u_rec = darboux_nfold(chain, n)
    u_qd = quasidet_solution_form(chain, n)
    dev = np.max(np.linalg.norm(u_rec.values - u_qd.values, axis=(1, 2)))
    assert dev <= 1e-8


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("rng_seed", [0, 1, 2])
def test_path_consistency_levels_four_and_five(d, rng_seed):
    # random noncommuting inits; the two routes agree to round-off relative
    # to the size of the dressed solution
    rng = np.random.default_rng(rng_seed)
    lams = rng.uniform(-1, 1, 5) + 1j * rng.uniform(-1, 1, 5)

    def init():
        return np.eye(d) + 0.3 * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))

    _seed, chain = chain_for(list(lams), d=d, count=51, inits=[(init(), init()) for _ in lams])
    for n in (4, 5):
        u_rec = darboux_nfold(chain, n)
        u_qd = quasidet_solution_form(chain, n)
        dev = np.max(np.linalg.norm(u_rec.values - u_qd.values, axis=(1, 2)))
        assert dev <= 1e-10 * max(1.0, u_rec.max_norm())


def test_quasidet_levels_computed_once_per_chain(monkeypatch):
    calls = []
    inner = dbx.quasidet_dressed_pair

    def counting(pairs, k):
        calls.append(k)
        return inner(pairs, k)

    monkeypatch.setattr(dbx, "quasidet_dressed_pair", counting)
    doc = {
        "d": 1,
        "grid": {"z0": 0.0, "h": 1e-2, "count": 51},
        "lambdas": [[1.0, 0.5], [0.3, -0.2], [-0.7, 0.4]],
    }
    run_config(DarbouxConfig.from_json(doc))
    assert calls == [1, 2, 3]


def test_each_head_is_inverted_once_per_level(monkeypatch):
    # the N = 3 chain of the shipped d = 2 config: chi1 at every level, phi1
    # while a pair remains to dress
    doc = json.loads((ROOT / "configs" / "vacuum_n3_d2.json").read_text())
    cfg = DarbouxConfig.from_json(doc)
    seed = cfg.seed_grid()
    chain = DressingChain(seed, dbx.integrate_eigenpairs(seed, cfg.lambdas, cfg.inits))
    counts = []
    inner = quasidet._gauss_jordan

    def counting(*args):
        counts[-1] += 1
        return inner(*args)

    monkeypatch.setattr(quasidet, "_gauss_jordan", counting)
    for k in range(1, chain.depth + 1):
        counts.append(0)
        chain.compute_level(k)
    assert counts == [2, 2, 1]


def test_level_order_enforced():
    _seed, chain = chain_for([LAM, 0.3 - 0.2j])
    with pytest.raises(LevelOrderViolation):
        chain.compute_level(2)
    chain.compute_level(1)
    with pytest.raises(LevelOrderViolation):
        chain.compute_level(1)
    with pytest.raises(LevelOrderViolation):
        chain.solution(2)


def test_chain_rejects_duplicate_spectral_values():
    seed = vacuum_seed(0.0, 1e-2, 101, 1)
    pair = integrate_linear_system(seed, LAM, np.eye(1), np.eye(1))
    with pytest.raises(Exception, match="distinct"):
        DressingChain(seed, [pair, pair])


# -- residual diagnostics ------------------------------------------------------------


def test_riccati_residual_vacuum_small():
    u, pair = vacuum_pair(LAM, h=1e-3, count=1001)
    res = riccati_residual_numeric(pair, u)
    assert float(np.max(res)) <= 1e-6


def test_riccati_residual_monotone_under_refinement():
    maxima = []
    for h, count in ((4e-3, 251), (2e-3, 501), (1e-3, 1001)):
        u, pair = vacuum_pair(LAM, h=h, count=count)
        maxima.append(float(np.max(riccati_residual_numeric(pair, u))))
    assert maxima[0] > maxima[1] > maxima[2]


def test_qpii_residual_zero_on_trivial_seed():
    u = vacuum_seed(0.0, 1e-2, 101, 1)
    res = qpii_residual_numeric(u, 0.0)
    assert float(np.max(res)) == 0.0


def test_qpii_residual_linear_seed_formula():
    d = 2
    z0, h, count = 0.0, 1e-2, 101
    zs = z0 + h * np.arange(count)
    vals = zs.reshape(-1, 1, 1) * np.eye(d)
    u = GridFunction(z0, h, vals)
    res = qpii_residual_numeric(u, 0.0)
    interior = zs[1:-1]
    want = np.abs(4 * interior**2 - 2 * interior**3) * np.sqrt(d)
    assert np.max(np.abs(res - want)) < 1e-9


# -- config and report ------------------------------------------------------------


def test_config_from_json_and_run_deterministic():
    doc = {
        "d": 1,
        "grid": {"z0": 0.0, "h": 5e-3, "count": 201},
        "lambdas": [[1.0, 0.5], [0.3, -0.2]],
        "c": [0.0, 0.0],
        "seed": "vacuum",
    }
    cfg = DarbouxConfig.from_json(doc)
    r1 = run_config(cfg)
    r2 = run_config(DarbouxConfig.from_json(doc))
    assert dumps(r1) == dumps(r2)
    assert all(level["within_tolerance"] for level in r1["levels"])
    assert r1["tolerances"] == {"singularity": SINGULARITY_TOL, "consistency": CONSISTENCY_TOL}
    assert SINGULARITY_TOL == quasidet.SINGULARITY_TOL == 1e-12
    assert r1["qpii_residual"]["final_max"] > 0.0


def _numeric_lists(data):
    if isinstance(data, dict):
        for value in data.values():
            yield from _numeric_lists(value)
    elif isinstance(data, list):
        if data and all(isinstance(v, (int, float)) for v in data):
            yield data
        for value in data:
            yield from _numeric_lists(value)


def test_report_v2_keeps_residual_summaries_and_their_grid_indices():
    doc = json.loads((ROOT / "configs" / "vacuum_n3_d2.json").read_text())
    doc["grid"] = {"z0": 0.0, "h": 5e-4, "count": 2001}
    doc["c"] = [0.5, -0.25]
    cfg = DarbouxConfig.from_json(doc)
    report = run_config(cfg)
    assert report["schema"] == "darboux-report-v2"
    text = dumps(report)
    assert len(text.encode()) < 8192
    assert max(len(values) for values in _numeric_lists(json.loads(text))) <= 12

    seed = cfg.seed_grid()
    pairs = dbx.integrate_eigenpairs(seed, cfg.lambdas, cfg.inits)
    for pair, entry in zip(pairs, report["riccati_residual"], strict=True):
        res = riccati_residual_numeric(pair, seed)
        assert entry["max_index"] == int(np.argmax(res))
        assert (entry["max"], entry["mean"]) == (float(res.max()), float(res.mean()))

    # the defect at grid index k from its own three-point stencil: the
    # residual array covers interior points, so its index is k - 1
    qpii = report["qpii_residual"]
    k = qpii["final_max_index"]
    u = darboux_nfold(DressingChain(seed, pairs), len(pairs))
    f, z = u.values, u.zs[k]
    upp = (f[k - 1] - 2 * f[k] + f[k + 1]) / (u.h * u.h)
    defect = upp - 2 * f[k] @ f[k] @ f[k] + 4 * z * f[k] - cfg.c * np.eye(cfg.d)
    assert np.linalg.norm(defect) == pytest.approx(qpii["final_max"], rel=1e-9)
    res = qpii_residual_numeric(u, cfg.c)
    assert qpii["final_mean"] == float(res.mean())


def test_config_rejects_duplicate_lambdas():
    doc = {
        "d": 1,
        "grid": {"z0": 0.0, "h": 1e-2, "count": 101},
        "lambdas": [[1.0, 0.5], [1.0, 0.5]],
    }
    with pytest.raises(ConfigError):
        DarbouxConfig.from_json(doc)


def test_config_seed_values_roundtrip(tmp_path):
    count = 7
    values = [[[[0.1 * k, 0.0]]] for k in range(count)]
    doc = {
        "d": 1,
        "grid": {"z0": 0.0, "h": 0.1, "count": count},
        "lambdas": [[1.0, 0.5]],
        "seed": {"values": values},
    }
    cfg = DarbouxConfig.from_json(doc)
    seed = cfg.seed_grid()
    assert seed.values.shape == (count, 1, 1)
    assert abs(seed.values[3, 0, 0] - 0.3) < 1e-15
    seed_file = tmp_path / "seed.json"
    seed_file.write_text(json.dumps({"values": values}))
    doc["seed"] = {"file": str(seed_file)}
    assert np.array_equal(DarbouxConfig.from_json(doc).seed_grid().values, seed.values)
