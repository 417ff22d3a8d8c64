import json
from fractions import Fraction

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
    _omega_arrays,
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


@pytest.mark.parametrize(
    "apply, chi_zeros, phi_zeros, what, index",
    [
        (_dress, (4, 8), (6,), "chi", 4),
        (_dress, (6,), (2, 9), "phi", 2),
        (_dress, (5,), (5,), "chi", 5),
        (_riccati, (1,), (3, 7), "phi", 3),
    ],
    ids=["dress-chi-first", "dress-phi-first", "dress-same-index", "riccati"],
)
def test_singularity_reports_first_index(apply, chi_zeros, phi_zeros, what, index):
    # the smallest failing grid index across both families; chi wins a tie
    count = 11
    pair = Eigenpair(LAM, _with_zeros(count, chi_zeros), _with_zeros(count, phi_zeros))
    u = vacuum_seed(0.0, 1e-2, count, 1)
    with pytest.raises(SingularEigenfunction) as err:
        apply(u, pair)
    assert err.value.z_index == index
    assert str(err.value) == f"{what} is singular at grid index {index}"


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
    for got, rows in zip((chi, phi), _omega_arrays(pairs, 3)):
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
    cfg = DarbouxConfig.from_json(json.dumps(doc))
    r1 = run_config(cfg)
    r2 = run_config(DarbouxConfig.from_json(json.dumps(doc)))
    assert dumps(r1) == dumps(r2)
    assert all(level["within_tolerance"] for level in r1["levels"])
    assert r1["tolerances"] == {"singularity": SINGULARITY_TOL, "consistency": CONSISTENCY_TOL}
    assert SINGULARITY_TOL == quasidet.SINGULARITY_TOL == 1e-12
    assert r1["qpii_residual"]["final_max"] > 0.0


def test_config_rejects_duplicate_lambdas():
    doc = {
        "d": 1,
        "grid": {"z0": 0.0, "h": 1e-2, "count": 101},
        "lambdas": [[1.0, 0.5], [1.0, 0.5]],
    }
    with pytest.raises(ConfigError):
        DarbouxConfig.from_json(json.dumps(doc))


def test_config_seed_values_roundtrip(tmp_path):
    count = 7
    values = [[[[0.1 * k, 0.0]]] for k in range(count)]
    doc = {
        "d": 1,
        "grid": {"z0": 0.0, "h": 0.1, "count": count},
        "lambdas": [[1.0, 0.5]],
        "seed": {"values": values},
    }
    cfg = DarbouxConfig.from_json(json.dumps(doc))
    seed = cfg.seed_grid()
    assert seed.values.shape == (count, 1, 1)
    assert abs(seed.values[3, 0, 0] - 0.3) < 1e-15
    seed_file = tmp_path / "seed.json"
    seed_file.write_text(json.dumps({"values": values}))
    doc["seed"] = {"file": str(seed_file)}
    assert np.array_equal(DarbouxConfig.from_json(doc).seed_grid().values, seed.values)
