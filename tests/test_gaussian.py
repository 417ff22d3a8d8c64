"""The integer-triple ``GaussianRational`` against a ``Fraction``-pair oracle."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpii.gaussian import GaussianRational


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
