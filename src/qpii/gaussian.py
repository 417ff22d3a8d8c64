"""Exact Gaussian-rational arithmetic over an integer triple.

A value ``(a + b i) / den`` is stored as the three ints ``(a, b, den)`` in
canonical form: ``den > 0`` and ``gcd(a, b, den) == 1``, so zero is
``(0, 0, 1)`` and two values are equal exactly when their triples are.  Each
operation builds its result with integer arithmetic and one gcd; ``+`` and
``-`` of equal denominators skip the cross products.  ``re`` and ``im`` are
``Fraction`` views built on demand, and ``hash`` agrees with
``hash((re, im))``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

_GAUSS_RE = re.compile(r"^([+-]?\d+(?:/\d+)?)(?:([+-]\d+(?:/\d+)?)i)?$")
_PURE_IM_RE = re.compile(r"^([+-]?\d+(?:/\d+)?)i$")


def _reduced(a: int, b: int, den: int) -> "GaussianRational":
    """The value ``(a + b i) / den`` for ``den > 0``, divided down to canonical form."""
    if den != 1:
        g = gcd(a, b, den)
        if g != 1:
            a, b, den = a // g, b // g, den // g
    out = _new(GaussianRational)
    _set_t(out, (a, b, den))
    return out


class GaussianRational:
    """Exact complex scalar ``re + im*i`` with rational components."""

    __slots__ = ("_t",)  # the canonical (a, b, den)

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            a, b, den = re, im, 1
        else:
            re, im = Fraction(re), Fraction(im)
            den = re.denominator * im.denominator // gcd(re.denominator, im.denominator)
            a = re.numerator * (den // re.denominator)
            b = im.numerator * (den // im.denominator)
        _set_t(self, (a, b, den))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @property
    def re(self) -> Fraction:
        a, _b, den = self._t
        return Fraction(a, den)

    @property
    def im(self) -> Fraction:
        _a, b, den = self._t
        return Fraction(b, den)

    # -- constructors -------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "GaussianRational":
        """Parse strings like ``3/4``, ``-2i``, ``3/4+1/2i``, ``1-2i``."""
        s = text.strip().replace(" ", "")
        m = _PURE_IM_RE.match(s)
        if m:
            return cls(0, Fraction(m.group(1)))
        m = _GAUSS_RE.match(s)
        if m is None:
            raise ValueError(f"not a Gaussian rational: {text!r}")
        re_part = Fraction(m.group(1))
        im_part = Fraction(m.group(2)) if m.group(2) else Fraction(0)
        return cls(re_part, im_part)

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        a, b, _den = self._t
        return a == 0 and b == 0

    def is_one(self) -> bool:
        return self._t == (1, 0, 1)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        a1, b1, d1 = self._t
        a2, b2, d2 = other._t
        if d1 == d2:
            return _reduced(a1 + a2, b1 + b2, d1)
        return _reduced(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        a1, b1, d1 = self._t
        a2, b2, d2 = other._t
        if d1 == d2:
            return _reduced(a1 - a2, b1 - b2, d1)
        return _reduced(a1 * d2 - a2 * d1, b1 * d2 - b2 * d1, d1 * d2)

    def __neg__(self) -> "GaussianRational":
        a, b, den = self._t
        return _reduced(-a, -b, den)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        a1, b1, d1 = self._t
        a2, b2, d2 = other._t
        return _reduced(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2)

    def inverse(self) -> "GaussianRational":
        # den / (a + b i) = den (a - b i) / (a^2 + b^2)
        a, b, den = self._t
        norm = a * a + b * b
        if norm == 0:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return _reduced(den * a, -den * b, norm)

    def __truediv__(self, other: "GaussianRational") -> "GaussianRational":
        return self * other.inverse()

    def __pow__(self, n: int) -> "GaussianRational":
        if n < 0:
            return self.inverse() ** (-n)
        out = _ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- comparison / misc ----------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, GaussianRational) and self._t == other._t

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self) -> complex:
        # int true division rounds correctly, as Fraction.__float__ does
        a, b, den = self._t
        return complex(a / den, b / den)

    def __str__(self) -> str:
        re_, im = self.re, self.im
        sign = "+" if im >= 0 else "-"
        return f"{re_}{sign}{abs(im)}i"

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


_new = object.__new__
_set_t = GaussianRational._t.__set__
_ONE = GaussianRational(1)


def gauss(re=0, im=0) -> GaussianRational:
    """Shorthand constructor accepting ints, Fractions or strings."""
    if isinstance(re, GaussianRational):
        return re
    if isinstance(re, str):
        return GaussianRational.parse(re)
    return GaussianRational(re, im)
