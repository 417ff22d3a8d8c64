"""Exact noncommutative polynomial arithmetic with rewriting and derivations.

Values are finite sums of words over a fixed generator alphabet.  Every
scalar is a Gaussian rational times a Laurent monomial in the declared
central symbols (``h`` for the deformation constant, ``c`` for the
integration constant, ``l`` for the spectral symbol).  All arithmetic is
exact; floating point never enters this module.

Words compare by graded rank-lexicographic order (length first, then the
generator ranks left to right).  Every shipped rewrite rule strictly
decreases that order, which is what guarantees termination of
``normal_form``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Mapping

from .gaussian import GaussianRational, gauss

Word = tuple[str, ...]
Exps = tuple[int, ...]


class NCAlgebraError(Exception):
    """Base class for errors raised by this module."""


class AlgebraMismatchError(NCAlgebraError):
    """Two operands belong to different algebra instances."""


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
    """A free algebra over a fixed alphabet with exact central coefficients."""

    def __init__(
        self,
        generators: Iterable[str] = DEFAULT_ALPHABET,
        centrals: Iterable[tuple[str, int | None]] = DEFAULT_CENTRALS,
        inverse_pairs: Iterable[tuple[str, str]] = DEFAULT_INVERSE_PAIRS,
    ):
        self.generators: Word = tuple(generators)
        self.centrals: tuple[tuple[str, int | None], ...] = tuple(centrals)
        self.central_names: tuple[str, ...] = tuple(n for n, _ in self.centrals)
        self.inverse_pairs: tuple[tuple[str, str], ...] = tuple(inverse_pairs)
        if len(set(self.generators)) != len(self.generators):
            raise NCAlgebraError("duplicate generator names")
        self._rank = {g: i for i, g in enumerate(self.generators)}
        for a, b in self.inverse_pairs:
            if a not in self._rank or b not in self._rank:
                raise UnknownGeneratorError(f"inverse pair ({a}, {b}) not in alphabet")
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
        return NCPolynomial(self, {})

    def one(self) -> "NCPolynomial":
        return NCPolynomial(self, {((), self._zero_exps): gauss(1)})

    def scalar(self, re=0, im=0) -> "NCPolynomial":
        g = gauss(re, im)
        if g.is_zero():
            return self.zero()
        return NCPolynomial(self, {((), self._zero_exps): g})

    def i(self) -> "NCPolynomial":
        return self.scalar(0, 1)

    def gen(self, name: str) -> "NCPolynomial":
        self.check_word((name,))
        return NCPolynomial(self, {((name,), self._zero_exps): gauss(1)})

    def word(self, letters: Iterable[str]) -> "NCPolynomial":
        w = self.check_word(tuple(letters))
        return NCPolynomial(self, {(w, self._zero_exps): gauss(1)})

    def central(self, name: str, exp: int = 1) -> "NCPolynomial":
        exps = self.exps(**{name: exp})
        return NCPolynomial(self, {((), exps): gauss(1)})

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


def default_algebra() -> Algebra:
    """The shipped alphabet, central symbols and inverse pairs."""
    return Algebra(DEFAULT_ALPHABET, DEFAULT_CENTRALS, DEFAULT_INVERSE_PAIRS)


# ---------------------------------------------------------------------------
# Coefficient view (per-word scalar, itself a sum of central monomials)
# ---------------------------------------------------------------------------


class Coefficient:
    """Scalar attached to one word: map from central exponents to Gaussians."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: Algebra, terms: Mapping[Exps, GaussianRational]):
        self.algebra = algebra
        self.terms = {e: g for e, g in terms.items() if not g.is_zero()}

    def is_zero(self) -> bool:
        return not self.terms

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def monomial(self) -> tuple[Exps, GaussianRational]:
        if not self.is_monomial():
            raise NCAlgebraError("coefficient is not a single monomial")
        return next(iter(self.terms.items()))

    def gaussian_part(self) -> GaussianRational:
        """The Gaussian attached to the exponent-free monomial (else zero)."""
        return self.terms.get(self.algebra.exps(), gauss(0))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Coefficient)
            and self.algebra is other.algebra
            and self.terms == other.terms
        )

    def __neg__(self) -> "Coefficient":
        return Coefficient(self.algebra, {e: -g for e, g in self.terms.items()})

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(
            _term_text(self.algebra, (), e, g) for e, g in sorted(self.terms.items())
        )

    __repr__ = __str__


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

    __slots__ = ("algebra", "_terms")

    def __init__(self, algebra: Algebra, terms: Mapping[tuple[Word, Exps], GaussianRational]):
        self.algebra = algebra
        self._terms = {k: g for k, g in terms.items() if not g.is_zero()}

    # -- inspection -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        """True when every term has the empty word (a pure scalar)."""
        return all(w == () for (w, _e) in self._terms)

    def terms(self):
        """Iterate ``((word, exps), gaussian)`` pairs in canonical order."""
        key = self.algebra.word_key
        return sorted(self._terms.items(), key=lambda kv: (key(kv[0][0]), kv[0][1]))

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

    def coefficient(self, word: Iterable[str]) -> Coefficient:
        w = self.algebra.check_word(tuple(word))
        found = {e: g for (ww, e), g in self._terms.items() if ww == w}
        return Coefficient(self.algebra, found)

    # -- ring operations --------------------------------------------------

    def _check(self, other: "NCPolynomial") -> None:
        if self.algebra is not other.algebra:
            raise AlgebraMismatchError("operands from different algebras")

    def __add__(self, other: "NCPolynomial") -> "NCPolynomial":
        self._check(other)
        acc = dict(self._terms)
        for k, g in other._terms.items():
            _merge(acc, k, g)
        return NCPolynomial(self.algebra, acc)

    def __sub__(self, other: "NCPolynomial") -> "NCPolynomial":
        return self + (-other)

    def __neg__(self) -> "NCPolynomial":
        return NCPolynomial(self.algebra, {k: -g for k, g in self._terms.items()})

    def __mul__(self, other) -> "NCPolynomial":
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(gauss(other))
        if not isinstance(other, NCPolynomial):
            return NotImplemented
        self._check(other)
        acc: dict = {}
        for (w1, e1), g1 in self._terms.items():
            for (w2, e2), g2 in other._terms.items():
                key = (w1 + w2, tuple(a + b for a, b in zip(e1, e2)))
                _merge(acc, key, g1 * g2)
        return NCPolynomial(self.algebra, acc)

    def __rmul__(self, other) -> "NCPolynomial":
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(gauss(other))
        return NotImplemented

    def scale(self, g: GaussianRational) -> "NCPolynomial":
        if g.is_zero():
            return self.algebra.zero()
        return NCPolynomial(self.algebra, {k: v * g for k, v in self._terms.items()})

    def divide_by_monomial(self, coeff: Coefficient) -> "NCPolynomial":
        """Exact division by a single-monomial coefficient."""
        exps, g = coeff.monomial()
        inv = g.inverse()
        acc: dict = {}
        for (w, e), v in self._terms.items():
            ne = tuple(a - b for a, b in zip(e, exps))
            for (cname, floor), val in zip(self.algebra.centrals, ne):
                if floor is not None and val < floor:
                    raise CentralSubstitutionError(
                        f"division takes {cname} below its minimum exponent"
                    )
            acc[(w, ne)] = v * inv
        return NCPolynomial(self.algebra, acc)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, NCPolynomial)
            and self.algebra is other.algebra
            and self._terms == other._terms
        )

    # -- substitutions ----------------------------------------------------

    def substitute_generator(self, name: str, value: "NCPolynomial") -> "NCPolynomial":
        """Replace every occurrence of a generator by a polynomial."""
        self.algebra.check_word((name,))
        if isinstance(value, NCPolynomial):
            self._check(value)
        out = self.algebra.zero()
        for (w, e), g in self._terms.items():
            pieces = self.algebra.one()
            run: list[str] = []
            for letter in w:
                if letter == name:
                    if run:
                        pieces = pieces * self.algebra.word(run)
                        run = []
                    pieces = pieces * value
                else:
                    run.append(letter)
            if run:
                pieces = pieces * self.algebra.word(run)
            out = out + NCPolynomial(self.algebra, {((), e): g}) * pieces
        return out

    def set_central(self, name: str, value) -> "NCPolynomial":
        """Evaluate a central symbol at an exact rational value."""
        idx = self.algebra.central_index(name)
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
        return NCPolynomial(self.algebra, acc)

    def lambda_derivative(self, name: str = "l") -> "NCPolynomial":
        """Formal Laurent derivative with respect to a central symbol."""
        idx = self.algebra.central_index(name)
        acc: dict = {}
        for (w, e), g in self._terms.items():
            exp = e[idx]
            if exp == 0:
                continue
            ne = e[:idx] + (exp - 1,) + e[idx + 1 :]
            _merge(acc, (w, ne), g * gauss(exp))
        return NCPolynomial(self.algebra, acc)

    # -- text form --------------------------------------------------------

    def to_text(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(_term_text(self.algebra, w, e, g) for (w, e), g in self.terms())

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"<NCPolynomial {self.to_text()}>"


# ---------------------------------------------------------------------------
# Canonical text serialization
# ---------------------------------------------------------------------------


def _term_text(algebra: Algebra, word: Word, exps: Exps, g: GaussianRational) -> str:
    parts = [f"({g})"]
    for name, e in zip(algebra.central_names, exps):
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
    return NCPolynomial(algebra, acc)


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
        self.algebra = algebra
        self.rules: list[RewriteRule] = []
        for a, b in algebra.inverse_pairs:
            self.rules.append(RewriteRule((a, b), algebra.one()))
            self.rules.append(RewriteRule((b, a), algebra.one()))
        for rule in rules:
            algebra.check_word(rule.lhs)
            if rule.rhs.algebra is not algebra:
                raise AlgebraMismatchError("rule RHS from a different algebra")
            self._validate(rule)
            self.rules.append(rule)
        self._by_pair = {}
        for rule in self.rules:
            self._by_pair.setdefault(rule.lhs, rule)

    def _validate(self, rule: RewriteRule) -> None:
        lhs_key = self.algebra.word_key(rule.lhs)
        for (w, _e), _g in rule.rhs._terms.items():
            if not self.algebra.word_key(w) < lhs_key:
                raise RuleOrientationError(
                    f"rule {rule.lhs} -> {rule.rhs.to_text()} does not decrease "
                    f"the word order (offending word {w})"
                )

    def rule_for(self, pair: tuple[str, str]) -> RewriteRule | None:
        return self._by_pair.get(pair)

    def reducible_position(self, word: Word, strategy: str = "leftmost") -> int | None:
        positions = range(len(word) - 1)
        if strategy == "rightmost":
            positions = reversed(positions)
        for p in positions:
            if (word[p], word[p + 1]) in self._by_pair:
                return p
        return None

    # -- shipped rule tables ----------------------------------------------

    @classmethod
    def free(cls, algebra: Algebra) -> "RewriteSystem":
        """Inverse-pair annihilation only."""
        return cls(algebra, ())

    @classmethod
    def quantum(cls, algebra: Algebra, include_z_f2prime: bool = False) -> "RewriteSystem":
        """Deformed commutation table for the grid variable and the field.

        The optional ``z f2' `` rule is excluded from every derivation
        pipeline; enabling it makes reduction order observable on words
        containing ``z f2' f2`` (its constant would need the opposite sign
        of i/2 to close that overlap).
        """
        kappa = quantum_z_f2_constant(algebra)
        rules = [
            RewriteRule(("z", "f2"), algebra.word(("f2", "z")) + kappa * algebra.gen("f2")),
            RewriteRule(
                ("f2'", "f2"),
                algebra.word(("f2", "f2'")) + quantum_f2prime_f2_constant(algebra),
            ),
        ]
        if include_z_f2prime:
            rules.insert(
                1,
                RewriteRule(("z", "f2'"), algebra.word(("f2'", "z")) + kappa * algebra.gen("f2'")),
            )
        return cls(algebra, rules)

    @classmethod
    def symmetric(cls, algebra: Algebra) -> "RewriteSystem":
        """Pairwise relations of the three-field symmetric system."""
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


def normal_form(
    p: NCPolynomial, rules: RewriteSystem, strategy: str = "leftmost"
) -> NCPolynomial:
    """Reduce every word to an irreducible one under the given rules.

    ``strategy`` picks which redex is contracted first; the shipped quantum
    table has no overlapping redexes, so any strategy yields the same
    canonical form there.  The symmetric table has one diverging overlap
    (``f0 f2 f1``), so results on words containing it depend on strategy;
    the default is deterministic either way.
    """
    if p.algebra is not rules.algebra:
        raise AlgebraMismatchError("polynomial and rules from different algebras")
    if strategy not in ("leftmost", "rightmost"):
        raise NCAlgebraError(f"unknown strategy {strategy!r}")
    acc = dict(p._terms)
    while True:
        candidates = sorted(
            (k for k in acc if rules.reducible_position(k[0], strategy) is not None),
            key=lambda k: (p.algebra.word_key(k[0]), k[1]),
        )
        if not candidates:
            return NCPolynomial(p.algebra, acc)
        key = candidates[0] if strategy == "leftmost" else candidates[-1]
        word, exps = key
        g = acc.pop(key)
        pos = rules.reducible_position(word, strategy)
        rule = rules.rule_for((word[pos], word[pos + 1]))
        for (rw, re_), rg in rule.rhs._terms.items():
            nk = (word[:pos] + rw + word[pos + 2 :], tuple(a + b for a, b in zip(exps, re_)))
            _merge(acc, nk, g * rg)


# ---------------------------------------------------------------------------
# Derivations
# ---------------------------------------------------------------------------


class DerivationTable:
    """Map from generators to their images under d/dz."""

    def __init__(self, algebra: Algebra, images: Mapping[str, NCPolynomial]):
        self.algebra = algebra
        self.images = dict(images)
        for name, img in self.images.items():
            algebra.check_word((name,))
            if img.algebra is not algebra:
                raise AlgebraMismatchError("image from a different algebra")

    def image(self, name: str) -> NCPolynomial:
        try:
            return self.images[name]
        except KeyError:
            raise DerivationError(f"no derivative image for generator {name!r}") from None

    def restricted(self, names: Iterable[str]) -> "DerivationTable":
        keep = set(names)
        return DerivationTable(
            self.algebra, {n: img for n, img in self.images.items() if n in keep}
        )


def default_derivation_table(algebra: Algebra) -> DerivationTable:
    """The shipped d/dz table for the linear-system eigenvector components."""
    two_i_lam = algebra.scalar(0, 2) * algebra.central("l")
    chi, phi = algebra.gen("chi"), algebra.gen("phi")
    f2 = algebra.gen("f2")
    d_chi = (-two_i_lam + f2) * chi + f2 * phi
    d_phi = f2 * chi + (two_i_lam + f2) * phi
    phi_inv = algebra.gen("phi^-1")
    free = RewriteSystem.free(algebra)
    d_phi_inv = normal_form(-(phi_inv * d_phi * phi_inv), free)
    return DerivationTable(
        algebra,
        {
            "z": algebra.one(),
            "f2": algebra.gen("f2'"),
            "f2'": algebra.gen("f2''"),
            "chi": d_chi,
            "phi": d_phi,
            "phi^-1": d_phi_inv,
        },
    )


def derive(p: NCPolynomial, table: DerivationTable) -> NCPolynomial:
    """Leibniz-linear extension of the table to the whole algebra."""
    if p.algebra is not table.algebra:
        raise AlgebraMismatchError("polynomial and table from different algebras")
    alg = p.algebra
    out = alg.zero()
    for (w, e), g in p._terms.items():
        for i, letter in enumerate(w):
            img = table.image(letter)
            piece = alg.one() if i == 0 else alg.word(w[:i])
            piece = piece * img
            if i + 1 < len(w):
                piece = piece * alg.word(w[i + 1 :])
            out = out + NCPolynomial(alg, {((), e): g}) * piece
    return out


# ---------------------------------------------------------------------------
# Classical limit
# ---------------------------------------------------------------------------


def _cancel_inverses(algebra: Algebra, word: Word) -> Word:
    inverse = {}
    for a, b in algebra.inverse_pairs:
        inverse[a] = b
        inverse[b] = a
    letters = list(word)
    changed = True
    while changed:
        changed = False
        for i in range(len(letters) - 1):
            if inverse.get(letters[i]) == letters[i + 1]:
                del letters[i : i + 2]
                changed = True
                break
    return tuple(letters)


def classical_limit(p: NCPolynomial) -> NCPolynomial:
    """Set the deformation constant to zero and project commutatively.

    Words are sorted by generator rank and adjacent inverse pairs cancel
    after sorting, which makes the map a ring morphism onto the
    commutative image.  Idempotent.
    """
    alg = p.algebra
    dropped = p.set_central("h", 0)
    acc: dict = {}
    for (w, e), g in dropped._terms.items():
        sw = tuple(sorted(w, key=alg.rank))
        sw = _cancel_inverses(alg, sw)
        _merge(acc, (sw, e), g)
    return NCPolynomial(alg, acc)
