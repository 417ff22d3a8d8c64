"""Exact noncommutative polynomial arithmetic with rewriting and derivations.

Values are finite sums of words over one fixed generator alphabet.  Every
scalar is a Gaussian rational times a Laurent monomial in the declared
central symbols (``h`` for the deformation constant, ``c`` for the
integration constant, ``l`` for the spectral symbol).  All arithmetic is
exact; floating point never enters this module.

A value holds only its ``{(word, exps): gaussian}`` terms.  The word order
and the central symbols belong to the one algebra built at import, which
``Algebra`` methods use to build values (``alg.gen``, ``alg.word``, ...).
A word's coefficient is a plain ``{exps: gaussian}`` dict and a derivation
table a plain ``{generator: image}`` dict.

Words compare by graded rank-lexicographic order (length first, then the
generator ranks left to right).  Every shipped rewrite rule strictly
decreases that order, which is what guarantees termination of
``normal_form``.  Whether a table is also confluent, so that its normal
form does not depend on the reduction order, is decided by
``critical_pairs``: the free and quantum tables have none, the symmetric
table has ``f0 f2 f1``.
"""

from __future__ import annotations

import re
from collections import Counter
from fractions import Fraction
from operator import add
from typing import Iterable, Mapping

from . import QpiiError
from .gaussian import GaussianRational, gauss

Word = tuple[str, ...]
Exps = tuple[int, ...]


class NCAlgebraError(QpiiError):
    """Base class for errors raised by this module."""


class UnknownGeneratorError(NCAlgebraError):
    """A word mentions a name outside the declared alphabet."""


class RuleOrientationError(NCAlgebraError):
    """A rewrite rule does not strictly decrease the word order."""


class DerivationError(NCAlgebraError):
    """The derivation table lacks an image for a generator."""


class CentralSubstitutionError(NCAlgebraError):
    """Setting a central symbol would divide by zero (negative exponent)."""


# ---------------------------------------------------------------------------
# Algebra: alphabet, precedence, central symbols
# ---------------------------------------------------------------------------

# Canonical left-to-right position of each generator in a fully rewritten
# word.  Every shipped rule swaps one adjacent pair into this order, so
# ranking generators by it makes all rules strictly decreasing.
DEFAULT_ALPHABET: Word = (
    "f1",
    "f2",
    "f0",
    "f2'",
    "f2''",
    "z",
    "chi",
    "phi",
    "chi^-1",
    "phi^-1",
    "Delta",
)

DEFAULT_INVERSE_PAIRS: tuple[tuple[str, str], ...] = (
    ("chi", "chi^-1"),
    ("phi", "phi^-1"),
)

# (name, minimum exponent); None means any integer (Laurent support).
DEFAULT_CENTRALS: tuple[tuple[str, int | None], ...] = (
    ("h", 0),
    ("c", 0),
    ("l", None),
)


class Algebra:
    """The free algebra over ``DEFAULT_ALPHABET`` with exact central coefficients."""

    def __init__(self):
        self.generators: Word = DEFAULT_ALPHABET
        self.centrals: tuple[tuple[str, int | None], ...] = DEFAULT_CENTRALS
        self.central_names: tuple[str, ...] = tuple(n for n, _ in self.centrals)
        self.inverse_pairs: tuple[tuple[str, str], ...] = DEFAULT_INVERSE_PAIRS
        self._rank = {g: i for i, g in enumerate(self.generators)}
        self._zero_exps: Exps = (0,) * len(self.centrals)

    # -- word order ----------------------------------------------------

    def rank(self, name: str) -> int:
        try:
            return self._rank[name]
        except KeyError:
            raise UnknownGeneratorError(name) from None

    def word_key(self, word: Word):
        return (len(word), tuple(self._rank[g] for g in word))

    def check_word(self, word: Word) -> Word:
        for g in word:
            if g not in self._rank:
                raise UnknownGeneratorError(g)
        return tuple(word)

    # -- element constructors -------------------------------------------

    def zero(self) -> "NCPolynomial":
        return NCPolynomial({})

    def one(self) -> "NCPolynomial":
        return NCPolynomial({((), self._zero_exps): gauss(1)})

    def scalar(self, re=0, im=0) -> "NCPolynomial":
        return NCPolynomial({((), self._zero_exps): gauss(re, im)})

    def i(self) -> "NCPolynomial":
        return self.scalar(0, 1)

    def gen(self, name: str) -> "NCPolynomial":
        self.check_word((name,))
        return NCPolynomial({((name,), self._zero_exps): gauss(1)})

    def word(self, letters: Iterable[str]) -> "NCPolynomial":
        w = self.check_word(tuple(letters))
        return NCPolynomial({(w, self._zero_exps): gauss(1)})

    def central(self, name: str, exp: int = 1) -> "NCPolynomial":
        exps = self.exps(**{name: exp})
        return NCPolynomial({((), exps): gauss(1)})

    def exps(self, **named: int) -> Exps:
        vals = dict(named)
        out = []
        for cname, floor in self.centrals:
            e = vals.pop(cname, 0)
            if floor is not None and e < floor:
                raise NCAlgebraError(f"exponent of {cname} must be >= {floor}")
            out.append(e)
        if vals:
            raise NCAlgebraError(f"unknown central symbols: {sorted(vals)}")
        return tuple(out)

    def central_index(self, name: str) -> int:
        try:
            return self.central_names.index(name)
        except ValueError:
            raise NCAlgebraError(f"unknown central symbol {name!r}") from None


_ALGEBRA = Algebra()


def default_algebra() -> Algebra:
    """The one algebra, built at import: the namespace that builds values."""
    return _ALGEBRA


# ---------------------------------------------------------------------------
# NCPolynomial
# ---------------------------------------------------------------------------


def _merge(acc: dict, key, g: GaussianRational) -> None:
    cur = acc.get(key)
    if cur is None:
        if not g.is_zero():
            acc[key] = g
    else:
        s = cur + g
        if s.is_zero():
            del acc[key]
        else:
            acc[key] = s


class NCPolynomial:
    """Formal sum of words with exact central coefficients.

    Instances are immutable by convention: no public method mutates
    ``_terms`` after construction, so values are safe to share across
    threads.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[Word, Exps], GaussianRational]):
        self._terms = {k: g for k, g in terms.items() if not g.is_zero()}

    # -- inspection -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        """True when every term has the empty word (a pure scalar)."""
        return all(w == () for (w, _e) in self._terms)

    def terms(self):
        """Iterate ``((word, exps), gaussian)`` pairs in canonical order."""
        rank = _ALGEBRA._rank.__getitem__
        # the flat (length, ranks, exps) orders as (word_key(word), exps)
        return sorted(
            self._terms.items(),
            key=lambda kv: (len(kv[0][0]), tuple(map(rank, kv[0][0])), kv[0][1]),
        )

    def words(self) -> list[Word]:
        seen = []
        for (w, _e), _g in self.terms():
            if w not in seen:
                seen.append(w)
        return seen

    def generators_used(self) -> set[str]:
        out: set[str] = set()
        for (w, _e) in self._terms:
            out.update(w)
        return out

    def coefficient(self, word: Iterable[str]) -> dict[Exps, GaussianRational]:
        """The scalar attached to one word: ``{exps: gaussian}``, zeros left out."""
        w = _ALGEBRA.check_word(tuple(word))
        return {e: g for (ww, e), g in self._terms.items() if ww == w}

    # -- ring operations --------------------------------------------------

    def __add__(self, other: "NCPolynomial") -> "NCPolynomial":
        acc = dict(self._terms)
        for k, g in other._terms.items():
            _merge(acc, k, g)
        return NCPolynomial(acc)

    def __sub__(self, other: "NCPolynomial") -> "NCPolynomial":
        return self + (-other)

    def __neg__(self) -> "NCPolynomial":
        return NCPolynomial({k: -g for k, g in self._terms.items()})

    def __mul__(self, other) -> "NCPolynomial":
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(gauss(other))
        if not isinstance(other, NCPolynomial):
            return NotImplemented
        # sums that cancel stay in acc as zeros; the constructor drops them
        acc: dict = {}
        get = acc.get
        for (w1, e1), g1 in self._terms.items():
            for (w2, e2), g2 in other._terms.items():
                key = (w1 + w2, tuple(map(add, e1, e2)))
                cur = get(key)
                acc[key] = g1 * g2 if cur is None else cur + g1 * g2
        return NCPolynomial(acc)

    def __rmul__(self, other) -> "NCPolynomial":
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(gauss(other))
        return NotImplemented

    def scale(self, g: GaussianRational) -> "NCPolynomial":
        return NCPolynomial({k: v * g for k, v in self._terms.items()})

    def divide_by_monomial(self, exps: Exps, g: GaussianRational) -> "NCPolynomial":
        """Exact division by the central monomial ``g`` times ``exps``."""
        inv = g.inverse()
        acc: dict = {}
        for (w, e), v in self._terms.items():
            ne = tuple(a - b for a, b in zip(e, exps))
            for (cname, floor), val in zip(DEFAULT_CENTRALS, ne):
                if floor is not None and val < floor:
                    raise CentralSubstitutionError(
                        f"division takes {cname} below its minimum exponent"
                    )
            acc[(w, ne)] = v * inv
        return NCPolynomial(acc)

    def __eq__(self, other) -> bool:
        return isinstance(other, NCPolynomial) and self._terms == other._terms

    # -- substitutions ----------------------------------------------------

    def substitute_generator(self, name: str, value: "NCPolynomial") -> "NCPolynomial":
        """Replace every occurrence of a generator by a polynomial."""
        alg = _ALGEBRA
        alg.check_word((name,))
        out = alg.zero()
        for (w, e), g in self._terms.items():
            pieces = alg.one()
            run: list[str] = []
            for letter in w:
                if letter == name:
                    if run:
                        pieces = pieces * alg.word(run)
                        run = []
                    pieces = pieces * value
                else:
                    run.append(letter)
            if run:
                pieces = pieces * alg.word(run)
            out = out + NCPolynomial({((), e): g}) * pieces
        return out

    def set_central(self, name: str, value) -> "NCPolynomial":
        """Evaluate a central symbol at an exact rational value."""
        idx = _ALGEBRA.central_index(name)
        val = gauss(value)
        acc: dict = {}
        for (w, e), g in self._terms.items():
            exp = e[idx]
            ne = e[:idx] + (0,) + e[idx + 1 :]
            if exp == 0:
                _merge(acc, (w, e), g)
            elif val.is_zero():
                if exp < 0:
                    raise CentralSubstitutionError(
                        f"{name} -> 0 with negative exponent {exp}"
                    )
                continue
            else:
                _merge(acc, (w, ne), g * (val**exp))
        return NCPolynomial(acc)

    def lambda_derivative(self) -> "NCPolynomial":
        """Formal Laurent derivative with respect to the spectral symbol ``l``."""
        idx = _ALGEBRA.central_index("l")
        acc: dict = {}
        for (w, e), g in self._terms.items():
            exp = e[idx]
            if exp == 0:
                continue
            ne = e[:idx] + (exp - 1,) + e[idx + 1 :]
            _merge(acc, (w, ne), g * gauss(exp))
        return NCPolynomial(acc)

    # -- text form --------------------------------------------------------

    def to_text(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(_term_text(w, e, g) for (w, e), g in self.terms())

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"<NCPolynomial {self.to_text()}>"


# ---------------------------------------------------------------------------
# Canonical text serialization
# ---------------------------------------------------------------------------


def _term_text(word: Word, exps: Exps, g: GaussianRational) -> str:
    parts = [f"({g})"]
    for (name, _floor), e in zip(DEFAULT_CENTRALS, exps):
        if e != 0:
            parts.append(f"{name}^{e}")
    if word:
        parts.append("*")
        parts.append(" ".join(word))
    return " ".join(parts)


_TERM_RE = re.compile(
    r"^\((?P<gauss>[^)]+)\)(?P<cents>(?:\s+[A-Za-z]\w*\^-?\d+)*)"
    r"(?:\s+\*\s+(?P<word>.+))?$"
)
_CENT_RE = re.compile(r"([A-Za-z]\w*)\^(-?\d+)")


def parse_poly(algebra: Algebra, text: str) -> NCPolynomial:
    """Parse the canonical text form produced by ``NCPolynomial.to_text``."""
    s = text.strip()
    if s == "0":
        return algebra.zero()
    acc: dict = {}
    for chunk in s.split(" + "):
        m = _TERM_RE.match(chunk.strip())
        if m is None:
            raise NCAlgebraError(f"cannot parse term {chunk!r}")
        g = GaussianRational.parse(m.group("gauss"))
        named = {name: int(e) for name, e in _CENT_RE.findall(m.group("cents") or "")}
        exps = algebra.exps(**named)
        word_text = m.group("word")
        word = algebra.check_word(tuple(word_text.split())) if word_text else ()
        _merge(acc, (word, exps), g)
    return NCPolynomial(acc)


# ---------------------------------------------------------------------------
# Rewriting
# ---------------------------------------------------------------------------


class RewriteRule:
    """An oriented rule replacing one adjacent generator pair."""

    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: tuple[str, str], rhs: NCPolynomial):
        self.lhs = lhs
        self.rhs = rhs

    def __repr__(self) -> str:
        return f"<RewriteRule {self.lhs[0]} {self.lhs[1]} -> {self.rhs.to_text()}>"


class RewriteSystem:
    """Ordered two-generator reduction rules plus inverse-pair annihilation.

    Construction validates that every right-hand side is strictly smaller
    than the left-hand side in the graded rank-lex word order, which bounds
    every reduction sequence.
    """

    def __init__(self, algebra: Algebra, rules: Iterable[RewriteRule] = ()):
        # the first rule for a left-hand side wins; inverse pairs come first
        self._by_pair: dict[tuple[str, str], RewriteRule] = {}
        for a, b in algebra.inverse_pairs:
            self._by_pair.setdefault((a, b), RewriteRule((a, b), algebra.one()))
            self._by_pair.setdefault((b, a), RewriteRule((b, a), algebra.one()))
        for rule in rules:
            lhs_key = algebra.word_key(algebra.check_word(rule.lhs))
            for w, _e in rule.rhs._terms:
                if not algebra.word_key(w) < lhs_key:
                    raise RuleOrientationError(
                        f"rule {rule.lhs} -> {rule.rhs.to_text()} does not decrease "
                        f"the word order (offending word {w})"
                    )
            self._by_pair.setdefault(rule.lhs, rule)

    def reducible_position(self, word: Word) -> int | None:
        """The leftmost position starting a left-hand side, or None."""
        for p in range(len(word) - 1):
            if (word[p], word[p + 1]) in self._by_pair:
                return p
        return None

    # -- shipped rule tables ----------------------------------------------

    @classmethod
    def free(cls, algebra: Algebra) -> "RewriteSystem":
        """Inverse-pair annihilation only; ``critical_pairs`` finds none."""
        return cls(algebra, ())

    @classmethod
    def quantum(cls, algebra: Algebra) -> "RewriteSystem":
        """Deformed commutation table for the grid variable and the field.

        ``critical_pairs`` finds none, so normal forms under this table do
        not depend on the reduction order.  A ``z f2'`` rule with the same
        constant as ``z f2`` is left out: with it, the overlap ``z f2' f2``
        does not join.
        """
        kappa = quantum_z_f2_constant(algebra)
        rules = [
            RewriteRule(("z", "f2"), algebra.word(("f2", "z")) + kappa * algebra.gen("f2")),
            RewriteRule(
                ("f2'", "f2"),
                algebra.word(("f2", "f2'")) + quantum_f2prime_f2_constant(algebra),
            ),
        ]
        return cls(algebra, rules)

    @classmethod
    def symmetric(cls, algebra: Algebra) -> "RewriteSystem":
        """Pairwise relations of the three-field symmetric system.

        Not confluent: ``critical_pairs`` finds the overlap ``f0 f2 f1``.
        """
        lam_h = algebra.central("l") * algebra.central("h")
        rules = [
            RewriteRule(("f0", "f2"), algebra.word(("f2", "f0")) - 2 * lam_h),
            RewriteRule(("f2", "f1"), algebra.word(("f1", "f2")) - 2 * lam_h),
        ]
        return cls(algebra, rules)


def quantum_z_f2_constant(algebra: Algebra) -> NCPolynomial:
    """The scalar k in the shipped rule ``z f2 -> f2 z + k f2``."""
    return algebra.scalar(0, Fraction(1, 2)) * algebra.central("h")


def quantum_f2prime_f2_constant(algebra: Algebra) -> NCPolynomial:
    """The scalar in the shipped rule ``f2' f2 -> f2 f2' + const``."""
    return algebra.scalar(-4) * algebra.central("l") * algebra.central("h")


def normal_form(p: NCPolynomial, rules: RewriteSystem) -> NCPolynomial:
    """Reduce every word to an irreducible one under the given rules.

    The smallest reducible word is rewritten first, at its leftmost redex.
    Where ``critical_pairs(rules)`` is empty the result is the unique normal
    form, whatever the order; elsewhere it is this order's choice.
    """
    word_key = _ALGEBRA.word_key
    acc = dict(p._terms)
    while True:
        candidates = [k for k in acc if rules.reducible_position(k[0]) is not None]
        if not candidates:
            return NCPolynomial(acc)
        key = min(candidates, key=lambda k: (word_key(k[0]), k[1]))
        word, exps = key
        g = acc.pop(key)
        pos = rules.reducible_position(word)
        rule = rules._by_pair[(word[pos], word[pos + 1])]
        for (rw, re_), rg in rule.rhs._terms.items():
            nk = (word[:pos] + rw + word[pos + 2 :], tuple(a + b for a, b in zip(exps, re_)))
            _merge(acc, nk, g * rg)


def critical_pairs(rules: RewriteSystem) -> list[tuple[Word, NCPolynomial, NCPolynomial]]:
    """The overlaps ``a b c`` of two left-hand sides that do not join.

    Each overlap is rewritten one step at ``a b`` and one step at ``b c``,
    and both results are brought to ``normal_form``; a pair with different
    normal forms is returned as ``(word, left, right)``.  Every rule
    decreases the word order, so by the diamond lemma (Bergman 1978) an
    empty list proves the table confluent.
    """
    alg = _ALGEBRA
    out = []
    for (a, b), first in rules._by_pair.items():
        for (b2, c), second in rules._by_pair.items():
            if b2 != b:
                continue
            left = normal_form(first.rhs * alg.gen(c), rules)
            right = normal_form(alg.gen(a) * second.rhs, rules)
            if left != right:
                out.append(((a, b, c), left, right))
    return out


# ---------------------------------------------------------------------------
# Derivations
# ---------------------------------------------------------------------------


def default_derivation_table(algebra: Algebra) -> dict[str, NCPolynomial]:
    """The shipped d/dz images of the Lax and eigenvector generators."""
    two_i_lam = algebra.scalar(0, 2) * algebra.central("l")
    chi, phi = algebra.gen("chi"), algebra.gen("phi")
    f2 = algebra.gen("f2")
    d_chi = (-two_i_lam + f2) * chi + f2 * phi
    d_phi = f2 * chi + (two_i_lam + f2) * phi
    phi_inv = algebra.gen("phi^-1")
    free = RewriteSystem.free(algebra)
    d_phi_inv = normal_form(-(phi_inv * d_phi * phi_inv), free)
    return {
        "z": algebra.one(),
        "f2": algebra.gen("f2'"),
        "f2'": algebra.gen("f2''"),
        "chi": d_chi,
        "phi": d_phi,
        "phi^-1": d_phi_inv,
    }


def derive(p: NCPolynomial, table: Mapping[str, NCPolynomial]) -> NCPolynomial:
    """Leibniz-linear extension of ``{generator: image}`` to the whole algebra.

    Each letter ``w[i]`` of a term contributes ``w[:i] image w[i+1:]``,
    merged into one accumulation.
    """
    acc: dict = {}
    for (w, e), g in p._terms.items():
        for i, letter in enumerate(w):
            try:
                image = table[letter]
            except KeyError:
                raise DerivationError(
                    f"no derivative image for generator {letter!r}"
                ) from None
            prefix, suffix = w[:i], w[i + 1 :]
            for (iw, ie), ig in image._terms.items():
                _merge(acc, (prefix + iw + suffix, tuple(map(add, e, ie))), g * ig)
    return NCPolynomial(acc)


# ---------------------------------------------------------------------------
# Classical limit
# ---------------------------------------------------------------------------


def classical_limit(p: NCPolynomial) -> NCPolynomial:
    """Set the deformation constant to zero and project commutatively.

    A word becomes its letters sorted by generator rank, with each inverse
    pair reduced to its net count, so the map is a ring morphism onto the
    commutative image, ``CL(pq) == CL(CL(p) CL(q))``, and idempotent.
    """
    alg = _ALGEBRA
    dropped = p.set_central("h", 0)
    acc: dict = {}
    for (w, e), g in dropped._terms.items():
        counts = Counter(w)
        for a, b in alg.inverse_pairs:
            both = min(counts[a], counts[b])
            counts[a] -= both
            counts[b] -= both
        _merge(acc, (tuple(sorted(counts.elements(), key=alg.rank)), e), g)
    return NCPolynomial(acc)
