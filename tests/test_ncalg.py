import random
from fractions import Fraction

import pytest

from qpii.gaussian import GaussianRational, gauss
from qpii.ncalg import (
    Algebra,
    AlgebraMismatchError,
    CentralSubstitutionError,
    DerivationError,
    RewriteRule,
    RewriteSystem,
    RuleOrientationError,
    UnknownGeneratorError,
    classical_limit,
    default_algebra,
    default_derivation_table,
    derive,
    normal_form,
    parse_poly,
)


@pytest.fixture(scope="module")
def alg():
    return default_algebra()


@pytest.fixture(scope="module")
def quantum(alg):
    return RewriteSystem.quantum(alg)


@pytest.fixture(scope="module")
def symmetric(alg):
    return RewriteSystem.symmetric(alg)


# -- Gaussian rationals ------------------------------------------------------


def test_gaussian_arithmetic():
    a = gauss("3/4+1/2i")
    b = gauss(2, -1)
    assert a + b == gauss("11/4-1/2i")
    assert a * b == gauss(Fraction(3, 2) + Fraction(1, 2), Fraction(1) - Fraction(3, 4))
    assert (a * a.inverse()).is_one()
    assert str(gauss(0, Fraction(-1, 2))) == "0-1/2i"
    assert GaussianRational.parse("0-1/2i") == gauss(0, Fraction(-1, 2))
    assert GaussianRational.parse("-2i") == gauss(0, -2)


def test_gaussian_parse_rejects_garbage():
    with pytest.raises(ValueError):
        GaussianRational.parse("1.5")


# -- free products -----------------------------------------------------------


def test_free_product_word(alg):
    f2, z = alg.gen("f2"), alg.gen("z")
    assert f2 * z == alg.word(("f2", "z"))


def test_free_product_distributes(alg):
    f2, z = alg.gen("f2"), alg.gen("z")
    assert (f2 + z) * f2 == alg.word(("f2", "f2")) + alg.word(("z", "f2"))


def test_free_product_scalars(alg):
    f2, z = alg.gen("f2"), alg.gen("z")
    left = alg.scalar(0, 2) * f2
    right = alg.scalar(3) * z
    assert left * right == alg.scalar(0, 6) * alg.word(("f2", "z"))


def test_product_is_order_sensitive(alg):
    f2, z = alg.gen("f2"), alg.gen("z")
    assert f2 * z != z * f2


def test_algebra_mismatch_rejected(alg):
    other = default_algebra()
    with pytest.raises(AlgebraMismatchError):
        alg.gen("f2") * other.gen("f2")


def test_unknown_generator_rejected(alg):
    with pytest.raises(UnknownGeneratorError):
        alg.gen("nope")


# -- rewriting ---------------------------------------------------------------


def test_single_step_z_f2(alg, quantum):
    got = normal_form(alg.word(("z", "f2")), quantum)
    want = parse_poly(alg, "(0+1/2i) h^1 * f2 + (1+0i) * f2 z")
    assert got == want


def test_two_step_z_z_f2(alg, quantum):
    # hand oracle: k = i/2 h gives f2 z^2 + 2k f2 z + k^2 f2
    got = normal_form(alg.word(("z", "z", "f2")), quantum)
    want = parse_poly(
        alg, "(-1/4+0i) h^2 * f2 + (0+1i) h^1 * f2 z + (1+0i) * f2 z z"
    )
    assert got == want


def test_inverse_annihilation(alg, quantum):
    assert normal_form(alg.word(("phi", "phi^-1")), quantum) == alg.one()
    assert normal_form(alg.word(("chi^-1", "chi")), quantum) == alg.one()


def test_normal_form_idempotent(alg, quantum):
    p = alg.word(("z", "z", "f2", "f2'")) + alg.word(("f2'", "f2"))
    nf = normal_form(p, quantum)
    assert normal_form(nf, quantum) == nf


def test_symmetric_rules(alg, symmetric):
    lam_h = alg.central("l") * alg.central("h")
    got = normal_form(alg.word(("f0", "f2")), symmetric)
    assert got == alg.word(("f2", "f0")) - 2 * lam_h
    got = normal_form(alg.word(("f2", "f1")), symmetric)
    assert got == alg.word(("f1", "f2")) - 2 * lam_h


def test_misoriented_rule_rejected(alg):
    # f2 z -> z f2 increases the order and must be refused
    with pytest.raises(RuleOrientationError):
        RewriteSystem(alg, [RewriteRule(("f2", "z"), alg.word(("z", "f2")))])


def test_quantum_has_no_overlaps_order_independent(alg, quantum):
    rng = random.Random(1702)
    names = list(alg.generators)
    for _ in range(500):
        terms = alg.zero()
        for _t in range(rng.randint(1, 6)):
            w = tuple(rng.choice(names) for _ in range(rng.randint(0, 4)))
            coeff = alg.scalar(rng.randint(-3, 3), rng.randint(-3, 3))
            terms = terms + coeff * alg.word(w)
        left = normal_form(terms, quantum, strategy="leftmost")
        right = normal_form(terms, quantum, strategy="rightmost")
        assert left == right


def test_symmetric_order_independent_away_from_overlap(alg, symmetric):
    # The only critical pair of the symmetric table is the subword f0 f2 f1;
    # on words avoiding it the reduction order cannot matter.
    rng = random.Random(1703)
    names = list(alg.generators)

    def has_overlap(w):
        return any(w[i : i + 3] == ("f0", "f2", "f1") for i in range(len(w) - 2))

    count = 0
    while count < 500:
        w = tuple(rng.choice(names) for _ in range(rng.randint(0, 4)))
        if has_overlap(w):
            continue
        count += 1
        p = alg.scalar(rng.randint(-3, 3), 1) * alg.word(w)
        assert normal_form(p, symmetric, "leftmost") == normal_form(
            p, symmetric, "rightmost"
        )


def test_symmetric_overlap_diverges(alg, symmetric):
    # Documented limitation: f0 f2 f1 reduces to two distinct normal forms,
    # so the pairwise table alone is not confluent on that word.
    p = alg.word(("f0", "f2", "f1"))
    left = normal_form(p, symmetric, "leftmost")
    right = normal_form(p, symmetric, "rightmost")
    assert left != right


def test_optin_z_f2prime_rule(alg):
    rs = RewriteSystem.quantum(alg, include_z_f2prime=True)
    got = normal_form(alg.word(("z", "f2'")), rs)
    want = parse_poly(alg, "(0+1/2i) h^1 * f2' + (1+0i) * f2' z")
    assert got == want
    # and its overlap with the f2' f2 rule diverges for this constant
    w = alg.word(("z", "f2'", "f2"))
    assert normal_form(w, rs, "leftmost") != normal_form(w, rs, "rightmost")


# -- derivations -------------------------------------------------------------


def test_leibniz_square(alg):
    table = default_derivation_table(alg)
    got = derive(alg.word(("f2", "f2")), table)
    assert got == alg.word(("f2'", "f2")) + alg.word(("f2", "f2'"))


def test_leibniz_z_f2(alg):
    table = default_derivation_table(alg)
    got = derive(alg.word(("z", "f2")), table)
    assert got == alg.gen("f2") + alg.word(("z", "f2'"))


def test_phi_inverse_derivative(alg):
    table = default_derivation_table(alg)
    free = RewriteSystem.free(alg)
    phi_inv = alg.gen("phi^-1")
    d_phi = table.image("phi")
    want = normal_form(-(phi_inv * d_phi * phi_inv), free)
    got = normal_form(derive(phi_inv, table), free)
    assert got == want


def test_derivation_missing_entry_names_generator(alg):
    table = default_derivation_table(alg)
    with pytest.raises(DerivationError, match="f0"):
        derive(alg.gen("f0"), table)


def test_derivation_product_rule_random(alg):
    table = default_derivation_table(alg)
    rng = random.Random(1704)
    names = ["z", "f2", "f2'", "chi", "phi", "phi^-1"]
    for _ in range(120):
        def rand_poly():
            p = alg.zero()
            for _t in range(rng.randint(1, 3)):
                w = tuple(rng.choice(names) for _ in range(rng.randint(0, 3)))
                p = p + alg.scalar(rng.randint(-2, 2), rng.randint(-2, 2)) * alg.word(w)
            return p

        p, q = rand_poly(), rand_poly()
        assert derive(p * q, table) == derive(p, table) * q + p * derive(q, table)


# -- classical limit ---------------------------------------------------------


def test_classical_limit_drops_h(alg):
    p = parse_poly(alg, "(0+1/2i) h^1 * f2 + (1+0i) * f2 z")
    assert classical_limit(p) == alg.word(("f2", "z"))


def test_classical_limit_merges_anticommutator(alg):
    p = alg.word(("z", "f2")) + alg.word(("f2", "z"))
    assert classical_limit(p) == 2 * alg.word(("f2", "z"))


def test_classical_limit_kills_commutator(alg):
    p = alg.word(("f2'", "f2")) - alg.word(("f2", "f2'"))
    assert classical_limit(p).is_zero()


def test_classical_limit_idempotent_and_morphism(alg):
    rng = random.Random(1705)
    names = list(alg.generators)
    free = RewriteSystem.free(alg)
    for _ in range(150):
        def rand_poly():
            p = alg.zero()
            for _t in range(rng.randint(1, 3)):
                w = tuple(rng.choice(names) for _ in range(rng.randint(0, 3)))
                coeff = alg.scalar(rng.randint(-2, 2), rng.randint(-2, 2))
                hpow = alg.central("h", rng.randint(0, 2))
                p = p + coeff * hpow * alg.word(w)
            return p

        p, q = rand_poly(), rand_poly()
        lp = classical_limit(p)
        assert classical_limit(lp) == lp
        lhs = classical_limit(p * q)
        rhs = classical_limit(classical_limit(p) * classical_limit(q))
        assert normal_form(lhs, free) == normal_form(rhs, free)


# -- substitutions -----------------------------------------------------------


def test_substitute_generator_zero(alg):
    p = alg.word(("f2", "z")) + alg.gen("z")
    assert p.substitute_generator("f2", alg.zero()) == alg.gen("z")


def test_substitute_generator_poly(alg):
    p = alg.word(("f2", "f2"))
    val = alg.gen("f1") - alg.gen("f0")
    got = p.substitute_generator("f2", val)
    assert got == val * val


def test_set_central(alg):
    p = parse_poly(alg, "(1+0i) h^1 l^1 + (2+0i) * f2")
    assert p.set_central("h", 0) == 2 * alg.gen("f2")
    assert p.set_central("h", 1) == alg.central("l") + 2 * alg.gen("f2")
    with pytest.raises(CentralSubstitutionError):
        alg.central("l", -1).set_central("l", 0)


def test_lambda_derivative(alg):
    p = parse_poly(alg, "(1+0i) l^2 + (1+0i) l^-1 + (5+0i)")
    got = p.lambda_derivative()
    assert got == parse_poly(alg, "(2+0i) l^1 + (-1+0i) l^-2")


# -- serialization -----------------------------------------------------------


def test_serialize_spec_example(alg):
    p = alg.scalar(0, Fraction(1, 2)) * alg.central("h") * alg.gen("f2")
    assert p.to_text() == "(0+1/2i) h^1 * f2"
    assert parse_poly(alg, p.to_text()) == p


def test_serialize_round_trip_random(alg):
    rng = random.Random(1706)
    names = list(alg.generators)
    for _ in range(100):
        p = alg.zero()
        for _t in range(rng.randint(0, 5)):
            w = tuple(rng.choice(names) for _ in range(rng.randint(0, 4)))
            coeff = gauss(
                Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            )
            exps = alg.exps(
                h=rng.randint(0, 2), c=rng.randint(0, 2), l=rng.randint(-2, 2)
            )
            p = p + alg.scalar(coeff.re, coeff.im) * alg.central("h", exps[0]) * alg.central(
                "c", exps[1]
            ) * alg.central("l", exps[2]) * alg.word(w)
        text = p.to_text()
        back = parse_poly(alg, text)
        assert back == p
        assert back.to_text() == text


def test_alpha_centrals_available():
    alg2 = default_algebra(include_alphas=True)
    p = alg2.central("a0") + alg2.central("a1", 2)
    assert parse_poly(alg2, p.to_text()) == p


def test_coefficient_view(alg):
    p = parse_poly(alg, "(0+1/2i) h^1 * f2 + (1+0i) * f2 z")
    coeff = p.coefficient(("f2",))
    exps, g = coeff.monomial()
    assert exps == alg.exps(h=1)
    assert g == gauss(0, Fraction(1, 2))
    assert p.coefficient(("f2", "f2")).is_zero()
