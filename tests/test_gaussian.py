"""The integer-triple ``GaussianRational`` against a ``Fraction``-pair oracle."""

import re
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpii.gaussian import GaussianRational, divided_integers, scaled_to_integers


class FractionPairGaussian:
    """Test oracle: a Gaussian rational kept as two ``Fraction`` parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("FractionPairGaussian is immutable")

    def __add__(self, other):
        return FractionPairGaussian(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return FractionPairGaussian(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return FractionPairGaussian(-self.re, -self.im)

    def __mul__(self, other):
        return FractionPairGaussian(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def inverse(self):
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return FractionPairGaussian(self.re / n, -self.im / n)

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        out = FractionPairGaussian(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __str__(self):
        sign = "+" if self.im >= 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


# small denominators, so that equal denominators and cancellation are common
_PARTS = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12)),
    st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**12)),
)
_PAIRS = st.tuples(_PARTS, _PARTS)


def _both(pair):
    return GaussianRational(*pair), FractionPairGaussian(*pair)


def _assert_matches(got, want):
    a, b, den = got._t
    assert den > 0 and gcd(a, b, den) == 1
    assert (got.re, got.im) == (want.re, want.im)
    assert str(got) == str(want)
    assert hash(got) == hash(want)
    assert complex(got) == complex(want)
    assert GaussianRational.parse(str(got)) == got


@settings(derandomize=True, max_examples=100, deadline=None)
@given(x=_PAIRS, y=_PAIRS, n=st.integers(-4, 4))
def test_arithmetic_matches_fraction_pair_oracle(x, y, n):
    g, o = _both(x)
    h, p = _both(y)
    _assert_matches(g, o)
    for got, want in ((g + h, o + p), (g - h, o - p), (-g, -o), (g * h, o * p)):
        _assert_matches(got, want)
    if o.re == o.im == 0:
        assert g.is_zero() and g._t == (0, 0, 1)
        with pytest.raises(ZeroDivisionError):
            g.inverse()
        with pytest.raises(ZeroDivisionError):
            h / g
    else:
        _assert_matches(g.inverse(), o.inverse())
        _assert_matches(h / g, p / o)
        _assert_matches(g**n, o**n)
    assert g.is_one() == (o.re == 1 and o.im == 0)
    assert (g == h) == ((o.re, o.im) == (p.re, p.im))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    values=st.lists(_PAIRS, min_size=1, max_size=7),
    divisor=st.tuples(st.integers(-10**30, 10**30), st.integers(-10**30, 10**30)).filter(any),
)
def test_scaled_to_integers_matches_fraction_pair_oracle(values, divisor):
    # and divided_integers is its counterpart: dividing by the scale gives the
    # values back, and dividing by a Gaussian integer matches the oracle
    pairs, scale = scaled_to_integers([GaussianRational(*v) for v in values])
    oracle = [FractionPairGaussian(*v) for v in values]
    assert scale == lcm(*(f.denominator for o in oracle for f in (o.re, o.im)))
    assert pairs == [(o.re * scale, o.im * scale) for o in oracle]
    assert all(type(x) is int for pair in pairs for x in pair)
    for got, o in zip(divided_integers(pairs, (scale, 0)), oracle, strict=True):
        _assert_matches(got, o)
    for got, (a, b) in zip(divided_integers(pairs, divisor), pairs, strict=True):
        _assert_matches(got, FractionPairGaussian(a, b) / FractionPairGaussian(*divisor))


@pytest.mark.parametrize(
    "args, triple",
    [
        ((), (0, 0, 1)),
        ((0, 0), (0, 0, 1)),
        ((Fraction(0, 7), Fraction(0, 3)), (0, 0, 1)),
        ((Fraction(1, 2), Fraction(1, 3)), (3, 2, 6)),
        (("3/4", "-1/6"), (9, -2, 12)),
        ((True, 2), (1, 2, 1)),
    ],
)
def test_constructor_canonical_triple(args, triple):
    g = GaussianRational(*args)
    assert g._t == triple
    assert all(type(v) is int for v in g._t)


@pytest.mark.parametrize("name", ["re", "im", "_t", "other"])
def test_setting_an_attribute_raises(name):
    g = GaussianRational(1, 2)
    with pytest.raises(AttributeError):
        setattr(g, name, 0)
    assert g._t == (1, 2, 1)


_ORACLE_GAUSS_RE = re.compile(r"^([+-]?[0-9]+(?:/[0-9]+)?)(?:([+-][0-9]+(?:/[0-9]+)?)i)?$")
_ORACLE_PURE_IM_RE = re.compile(r"^([+-]?[0-9]+(?:/[0-9]+)?)i$")


def fraction_parse(text):
    """Test oracle: ``GaussianRational.parse`` through ``Fraction`` parts.
    White space counts only at the ends, and digits are ASCII."""
    s = text.strip()
    m = _ORACLE_PURE_IM_RE.match(s)
    if m:
        return FractionPairGaussian(0, Fraction(m.group(1)))
    m = _ORACLE_GAUSS_RE.match(s)
    if m is None:
        raise ValueError(f"not a Gaussian rational: {text!r}")
    return FractionPairGaussian(Fraction(m.group(1)), Fraction(m.group(2) or 0))


_DIGITS = st.one_of(
    st.text("0123456789", min_size=1, max_size=4),
    st.integers(10**399, 10**400 - 1).map(str),
    st.builds("0{}".format, st.text("0123456789", min_size=1, max_size=3)),
)
_PART_TEXT = st.builds(
    "{}{}{}".format,
    st.sampled_from(("", "+", "-")),
    _DIGITS,
    st.one_of(st.just(""), st.builds("/{}".format, _DIGITS), st.just("/0")),
)
_GAUSS_TEXT = st.one_of(
    _PART_TEXT,
    st.builds("{}i".format, _PART_TEXT),
    st.builds("{}{}i".format, _PART_TEXT, _PART_TEXT),
    st.builds(" {}{}i ".format, _PART_TEXT, _PART_TEXT),
    st.builds("{} {}i".format, _PART_TEXT, _PART_TEXT),
    st.sampled_from(("-0/5", "0/007", "x/0", "1/0i", "2-1/0i", "", "i", "1+i", "1/2/3", "1.5",
                     f"-{'7' * 400}/{'3' * 400}+0{'6' * 400}/{'9' * 400}i")),
    st.text("0123456789+-/ix .\u0661\u0662", max_size=10),
)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(text=_GAUSS_TEXT)
def test_parse_matches_fraction_parsing(text):
    try:
        want = fraction_parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(type(exc)):
            GaussianRational.parse(text)
        return
    # not _assert_matches: complex() of a 400-digit part overflows
    got = GaussianRational.parse(text)
    a, b, den = got._t
    assert den > 0 and gcd(a, b, den) == 1
    assert (got.re, got.im) == (want.re, want.im)
    assert str(got) == str(want)


@pytest.mark.parametrize("text", ["1 0", "1 2/3", "1/ 2", "1 +2i", "\u0661\u0662", "1+\u0662i"])
def test_parse_rejects_inner_spaces_and_non_ascii_digits(text):
    with pytest.raises(ValueError):
        GaussianRational.parse(text)


def test_parse_allows_white_space_at_the_ends():
    assert GaussianRational.parse(" \t3/4-2i\n") == GaussianRational.parse("3/4-2i")
