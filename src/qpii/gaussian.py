"""Exact Gaussian-rational arithmetic over an integer triple.

A value ``(a + b i) / den`` is stored as the three ints ``(a, b, den)`` in
canonical form: ``den > 0`` and ``gcd(a, b, den) == 1``, so zero is
``(0, 0, 1)`` and two values are equal exactly when their triples are.  Each
operation builds its result with integer arithmetic and one gcd; ``+`` and
``-`` of equal denominators skip the cross products.  ``re`` and ``im`` are
``Fraction`` views built on demand, and ``hash`` agrees with
``hash((re, im))``; ``str`` and ``parse`` work on the ints alone.
``scaled_to_integers`` reads values for integer kernels: Gaussian-integer
``(re, im)`` int pairs over a common scale; ``divided_integers`` builds the
kernels' results, such pairs over a Gaussian-integer divisor.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

_GAUSS_RE = re.compile(r"^([+-]?[0-9]+(?:/[0-9]+)?)(?:([+-][0-9]+(?:/[0-9]+)?)i)?$")
_PURE_IM_RE = re.compile(r"^([+-]?[0-9]+(?:/[0-9]+)?)i$")


def _ratio(text: str) -> tuple[int, int]:
    """``p/q`` or ``p`` as the int pair ``(p, q)``."""
    p, _, q = text.partition("/")
    return int(p), int(q or 1)


def _ratio_text(n: int, den: int) -> str:
    """``n/den`` in lowest terms, as ``str(Fraction(n, den))`` writes it."""
    g = gcd(n, den)
    return str(n // g) if g == den else f"{n // g}/{den // g}"


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
        """Parse strings like ``3/4``, ``-2i``, ``3/4+1/2i``, ``1-2i``: ASCII
        digits, with white space allowed only at the ends."""
        s = text.strip()
        m = _PURE_IM_RE.match(s)
        if m:
            re_text, im_text = "0", m.group(1)
        else:
            m = _GAUSS_RE.match(s)
            if m is None:
                raise ValueError(f"not a Gaussian rational: {text!r}")
            re_text, im_text = m.group(1), m.group(2) or "0"
        (p, q), (r, t) = _ratio(re_text), _ratio(im_text)
        if q * t == 0:
            raise ZeroDivisionError(f"zero denominator in {text!r}")
        return _reduced(p * t, r * q, q * t)

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
        a, b, den = self._t
        return f"{_ratio_text(a, den)}{'-' if b < 0 else '+'}{_ratio_text(abs(b), den)}i"

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


def scaled_to_integers(values) -> tuple[list[tuple[int, int]], int]:
    """``values`` times ``L``, the lcm of their denominators, as Gaussian-integer
    ``(re, im)`` int pairs, and ``L``."""
    triples = [x._t for x in values]
    scale = lcm(*(den for _a, _b, den in triples))
    return [(a * (scale // den), b * (scale // den)) for a, b, den in triples], scale


def divided_integers(pairs, den: tuple[int, int]) -> list[GaussianRational]:
    """The Gaussian-integer ``(re, im)`` pairs divided by the nonzero Gaussian
    integer ``den``, each with one gcd: the counterpart of ``scaled_to_integers``."""
    # (a + b i) / (c + d i) = (a + b i)(c - d i) / (c^2 + d^2)
    c, d = den
    norm = c * c + d * d
    return [_reduced(a * c + b * d, b * c - a * d, norm) for a, b in pairs]
