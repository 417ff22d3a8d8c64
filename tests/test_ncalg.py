import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpii.gaussian import GaussianRational, gauss
from qpii.ncalg import (
    DEFAULT_ALPHABET,
    CentralSubstitutionError,
    DerivationError,
    NCPolynomial,
    RewriteRule,
    RewriteSystem,
    RuleOrientationError,
    UnknownGeneratorError,
    classical_limit,
    critical_pairs,
    default_algebra,
    default_derivation_table,
    derive,
    normal_form,
    parse_poly,
    quantum_f2prime_f2_constant,
    quantum_z_f2_constant,
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


def test_default_algebra_is_one_instance():
    assert default_algebra() is default_algebra()


def test_unknown_generator_rejected(alg):
    with pytest.raises(UnknownGeneratorError):
        alg.gen("nope")


# -- rewriting ---------------------------------------------------------------


def test_single_step_z_f2(alg, quantum):
    got = normal_form(alg.word(("z", "f2")), quantum)
    want = parse_poly(alg, "(0+1/2i) h^1 * f2 + (1+0i) * f2 z")
    assert got == want


def test_quantum_rules_apply_the_table_constants(alg, quantum):
    # the derivation reports compare against these two functions
    z_f2 = normal_form(alg.word(("z", "f2")), quantum)
    assert z_f2 - alg.word(("f2", "z")) == quantum_z_f2_constant(alg) * alg.gen("f2")
    f2p_f2 = normal_form(alg.word(("f2'", "f2")), quantum)
    assert f2p_f2 - alg.word(("f2", "f2'")) == quantum_f2prime_f2_constant(alg)


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


def test_quantum_and_free_tables_have_no_critical_pairs(alg, quantum):
    # by the diamond lemma both tables are confluent: normal forms do not
    # depend on the reduction order
    assert critical_pairs(quantum) == []
    assert critical_pairs(RewriteSystem.free(alg)) == []


def test_symmetric_order_independent_away_from_overlap(alg, symmetric):
    # every overlap of the pairwise table joins except f0 f2 f1
    assert [word for word, _left, _right in critical_pairs(symmetric)] == [
        ("f0", "f2", "f1")
    ]


def test_symmetric_overlap_diverges(alg, symmetric):
    # Documented limitation: f0 f2 f1 reduces to two distinct normal forms,
    # so the pairwise table alone is not confluent on that word.
    lam_h = alg.central("l") * alg.central("h")
    [(_word, left, right)] = critical_pairs(symmetric)
    assert left == alg.word(("f2", "f0", "f1")) - 2 * lam_h * alg.gen("f1")
    assert right == alg.word(("f0", "f1", "f2")) - 2 * lam_h * alg.gen("f0")
    assert left != right


def _quantum_with_z_f2prime(alg):
    kappa = quantum_z_f2_constant(alg)
    return RewriteSystem(
        alg,
        [
            RewriteRule(("z", "f2"), alg.word(("f2", "z")) + kappa * alg.gen("f2")),
            RewriteRule(("z", "f2'"), alg.word(("f2'", "z")) + kappa * alg.gen("f2'")),
            RewriteRule(
                ("f2'", "f2"), alg.word(("f2", "f2'")) + quantum_f2prime_f2_constant(alg)
            ),
        ],
    )


def test_optin_z_f2prime_rule(alg):
    rs = _quantum_with_z_f2prime(alg)
    got = normal_form(alg.word(("z", "f2'")), rs)
    want = parse_poly(alg, "(0+1/2i) h^1 * f2' + (1+0i) * f2' z")
    assert got == want
    # its overlap with the f2' f2 rule does not join for this constant
    assert [word for word, _left, _right in critical_pairs(rs)] == [("z", "f2'", "f2")]


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


def test_classical_limit_cancels_separated_inverses(alg):
    # sorted by rank, chi chi^-1 phi is chi phi chi^-1: no adjacent pair
    assert classical_limit(alg.word(("chi", "chi^-1", "phi"))) == alg.gen("phi")
    assert classical_limit(alg.word(("phi^-1", "chi", "phi", "phi"))) == alg.word(("chi", "phi"))


_WORDS = st.lists(st.sampled_from(DEFAULT_ALPHABET), max_size=4).map(tuple)
# only the inverse pairs make the map more than sorting
_CL_WORDS = st.lists(st.sampled_from(("chi", "phi", "chi^-1", "phi^-1")), max_size=4)
_TERMS = st.lists(
    st.tuples(_CL_WORDS, st.integers(-2, 2), st.integers(-2, 2), st.integers(0, 2)),
    min_size=1,
    max_size=3,
)


def _poly(alg, terms):
    p = alg.zero()
    for word, re_, im, hpow in terms:
        p = p + alg.scalar(re_, im) * alg.central("h", hpow) * alg.word(word)
    return p


@settings(derandomize=True, max_examples=100, deadline=None)
@given(p_terms=_TERMS, q_terms=_TERMS)
def test_classical_limit_is_idempotent_ring_morphism(p_terms, q_terms):
    alg = default_algebra()
    p, q = _poly(alg, p_terms), _poly(alg, q_terms)
    cl = classical_limit
    assert cl(cl(p)) == cl(p)
    assert cl(p + q) == cl(p) + cl(q)
    assert cl(p * q) == cl(cl(p) * cl(q))


def _merging_product(p, q):
    """Test oracle: the free product term by term, dropping each cancelled sum."""
    acc = {}
    for (w1, e1), g1 in p._terms.items():
        for (w2, e2), g2 in q._terms.items():
            key = (w1 + w2, tuple(a + b for a, b in zip(e1, e2)))
            s = acc[key] + g1 * g2 if key in acc else g1 * g2
            if s.is_zero():
                del acc[key]
            else:
                acc[key] = s
    return acc


_SHORT_WORDS = st.lists(st.sampled_from(("f2", "z")), max_size=2).map(tuple)
_EXPS = st.tuples(st.integers(0, 1), st.just(0), st.integers(-1, 1))
_SMALL = st.builds(gauss, st.integers(-2, 2), st.integers(-1, 1))
_PRODUCT_TERMS = st.dictionaries(st.tuples(_SHORT_WORDS, _EXPS), _SMALL, max_size=4)


@st.composite
def _cancelling_factors(draw):
    """p = a X + b X u and q = c u Y + d Y with a c + b d = 0, so the two
    products that make X u Y cancel, each with a few more random terms."""
    x, y = draw(_SHORT_WORDS), draw(_SHORT_WORDS)
    u = tuple(draw(st.lists(st.sampled_from(("f2", "z")), min_size=1, max_size=2)))
    e, f = draw(_EXPS), draw(_EXPS)
    a, b, c = (draw(st.sampled_from((gauss(1), gauss(-2), gauss(0, 1), gauss(1, -1))))
               for _ in range(3))
    p = {(x, e): a, (x + u, e): b}
    q = {(u + y, f): c, (y, f): -(a * c) / b}
    return {**draw(_PRODUCT_TERMS), **p}, {**draw(_PRODUCT_TERMS), **q}


@settings(derandomize=True, max_examples=100, deadline=None)
@given(factors=st.one_of(st.tuples(_PRODUCT_TERMS, _PRODUCT_TERMS), _cancelling_factors()))
def test_product_matches_merging_oracle(factors):
    alg = default_algebra()
    p, q = (NCPolynomial(alg, terms) for terms in factors)
    got = p * q
    assert got._terms == _merging_product(p, q)
    assert not any(g.is_zero() for g in got._terms.values())


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


_FRACTIONS = st.builds(Fraction, st.integers(-1000, 1000), st.integers(1, 50))
_GAUSSIANS = st.builds(GaussianRational, _FRACTIONS, _FRACTIONS)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(g=_GAUSSIANS)
def test_gaussian_text_round_trip_and_hash(g):
    assert GaussianRational.parse(str(g)) == g
    assert hash(g) == hash((g.re, g.im))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    terms=st.lists(
        st.tuples(
            _WORDS, _GAUSSIANS, st.integers(0, 2), st.integers(0, 2), st.integers(-3, 3)
        ),
        max_size=4,
    )
)
def test_serialize_round_trip_property(terms):
    alg = default_algebra()
    p = alg.zero()
    for word, g, h, c, l in terms:
        centrals = alg.central("h", h) * alg.central("c", c) * alg.central("l", l)
        p = p + alg.scalar(g.re, g.im) * centrals * alg.word(word)
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


def test_coefficient_view(alg):
    p = parse_poly(alg, "(0+1/2i) h^1 * f2 + (1+0i) * f2 z")
    coeff = p.coefficient(("f2",))
    exps, g = coeff.monomial()
    assert exps == alg.exps(h=1)
    assert g == gauss(0, Fraction(1, 2))
    assert p.coefficient(("f2", "f2")).is_zero()
