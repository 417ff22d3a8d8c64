"""Exact Gaussian-rational arithmetic: complex numbers with Fraction parts."""

from __future__ import annotations

import re
from fractions import Fraction

_GAUSS_RE = re.compile(r"^([+-]?\d+(?:/\d+)?)(?:([+-]\d+(?:/\d+)?)i)?$")
_PURE_IM_RE = re.compile(r"^([+-]?\d+(?:/\d+)?)i$")


class GaussianRational:
    """Exact complex scalar ``re + im*i`` with rational components."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

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
        return self.re == 0 and self.im == 0

    def is_one(self) -> bool:
        return self.re == 1 and self.im == 0

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def inverse(self) -> "GaussianRational":
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return GaussianRational(self.re / n, -self.im / n)

    def __truediv__(self, other: "GaussianRational") -> "GaussianRational":
        return self * other.inverse()

    def __pow__(self, n: int) -> "GaussianRational":
        if n < 0:
            return self.inverse() ** (-n)
        out = GaussianRational(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- comparison / misc ----------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GaussianRational)
            and self.re == other.re
            and self.im == other.im
        )

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self) -> str:
        sign = "+" if self.im >= 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


def gauss(re=0, im=0) -> GaussianRational:
    """Shorthand constructor accepting ints, Fractions or strings."""
    if isinstance(re, GaussianRational):
        return re
    if isinstance(re, str):
        return GaussianRational.parse(re)
    return GaussianRational(re, im)
