"""Free-monoid words, positive symbols, and binomial weight tables.

Words over n generators are tuples of 1-based letters; the empty tuple is the
monoid identity. All iteration orders downstream are fixed by the graded
lexicographic order produced by enumerate_words.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import isfinite
from typing import Dict, List, Mapping, Sequence, Tuple, Union

from .config import ResourceCapError, Tolerances, default_tolerances

Scalar = Union[int, float, Fraction]


def as_count(x, what: str, least: int | None = 1) -> int:
    """x as an integer (operator.index: 1.5 is refused, not truncated) >= least,
    unless least is None; ValueError naming x otherwise. The one rule for
    letters, multi-degrees, degree caps and orbit lengths, applied before x
    keys a cache."""
    try:
        j = operator.index(x)
    except TypeError:
        raise ValueError(f"{what} {x!r} is not an integer") from None
    if least is not None and j < least:
        raise ValueError(f"{what} {j} outside {least}, {least + 1}, ...")
    return j


def as_letter(x, top: int | None = None, what: str = "letter") -> int:
    """x as a 1-based index in 1..top, or >= 1 when top is None (as_count)."""
    j = as_count(x, what)
    if top is not None and j > top:
        raise ValueError(f"{what} {j} outside 1..{top}")
    return j


class Word(Tuple[int, ...]):
    """A word in a free monoid; behaves as a tuple of 1-based letters."""

    __slots__ = ()

    def __new__(cls, letters: Sequence[int] = ()):
        return super().__new__(cls, map(as_letter, letters))

    def concat(self, other: "Word") -> "Word":
        return Word(tuple(self) + tuple(other))

    def __repr__(self) -> str:  # g0 for the identity, g1g2... otherwise
        if not self:
            return "Word(g0)"
        return "Word(" + "".join(f"g{j}" for j in self) + ")"


IDENTITY = Word(())


def graded_lex_key(word: Sequence[int]) -> Tuple[int, Tuple[int, ...]]:
    return (len(word), tuple(word))


def word_count(n: int, max_len: int) -> int:
    if n == 1:
        return max_len + 1
    return (n ** (max_len + 1) - 1) // (n - 1)


def require_word_count(n: int, max_len: int, tol: Tolerances | None = None) -> None:
    """ResourceCapError when the words of length <= max_len over n letters
    outnumber the configured cap; silent truncation is never performed."""
    if n < 1:
        raise ValueError(f"arity must be >= 1, got {n}")
    if max_len < 0:
        raise ValueError(f"max_len must be >= 0, got {max_len}")
    cap = (tol or default_tolerances()).word_cap
    total = word_count(n, max_len)
    if total > cap:
        raise ResourceCapError(
            f"enumerating {total} words exceeds the cap of {cap}"
        )


def enumerate_words(n: int, max_len: int, tol: Tolerances | None = None) -> List[Word]:
    """All words of length <= max_len in graded-lex order, identity first;
    require_word_count guards the count."""
    require_word_count(n, max_len, tol)
    out: List[Word] = []
    for length in range(max_len + 1):
        for letters in itertools.product(range(1, n + 1), repeat=length):
            out.append(Word(letters))
    return out


@dataclass(frozen=True)
class PositiveSymbol:
    """Truncated positive regular free holomorphic function in n letters.

    coeffs maps words to coefficients a_alpha. Regularity (zero constant
    term, nonnegative coefficients, strictly positive linear coefficients)
    is checked by validate_symbol, not at construction, so that degenerate
    symbols produced by scaling remain representable for evaluation.
    """

    arity: int
    coeffs: Mapping[Word, Scalar]
    max_degree: int

    def __post_init__(self):
        normalized = {Word(w): a for w, a in dict(self.coeffs).items()}
        object.__setattr__(self, "coeffs", normalized)

    def degree(self) -> int:
        return max((len(w) for w, a in self.coeffs.items() if a != 0), default=0)


def polyball_symbol(n: int) -> PositiveSymbol:
    """The symbol Z_1 + ... + Z_n (all linear coefficients one)."""
    return PositiveSymbol(n, {Word((j,)): 1 for j in range(1, n + 1)}, 1)


def validate_symbol(f: PositiveSymbol) -> List[str]:
    """Returns the list of violated regularity clauses; empty means valid."""
    violations: List[str] = []
    if f.arity < 1:
        violations.append(f"arity must be >= 1, got {f.arity}")
        return violations
    if f.max_degree < 1:
        violations.append(f"max_degree must be >= 1, got {f.max_degree}")
    for w, a in sorted(f.coeffs.items(), key=lambda kv: graded_lex_key(kv[0])):
        if any(j > f.arity for j in w):
            violations.append(f"letter out of range 1..{f.arity} in word {tuple(w)}")
        if len(w) == 0 and a != 0:
            violations.append("constant term nonzero")
        if isinstance(a, float) and not isfinite(a):
            violations.append(f"non-finite coefficient at word {tuple(w)}")
        elif a < 0:
            violations.append(f"negative coefficient at word {tuple(w)}")
        if len(w) > f.max_degree and a != 0:
            violations.append(f"coefficient beyond max_degree at word {tuple(w)}")
    for j in range(1, f.arity + 1):
        if not f.coeffs.get(Word((j,)), 0) > 0:
            violations.append(f"linear coefficient zero at generator {j}")
    return violations


def require_valid(f: PositiveSymbol) -> None:
    violations = validate_symbol(f)
    if violations:
        raise ValueError("invalid symbol: " + "; ".join(violations))


@dataclass(frozen=True)
class WeightTable:
    """Weights b_alpha^{(m)} indexed by words, with b at the identity = 1."""

    m: int
    entries: Mapping[Word, Scalar]
    exact: bool

    def __post_init__(self):
        object.__setattr__(self, "entries", dict(self.entries))

    def value(self, word: Sequence[int]) -> Scalar:
        return self.entries[Word(word)]


def weight_table(
    f: PositiveSymbol,
    m: int,
    max_len: int,
    exact: bool = False,
    tol: Tolerances | None = None,
) -> WeightTable:
    """Weights b_alpha^{(m)} for all |alpha| <= max_len.

    The weights are the coefficients of (1 - f)^{-m}, so with B_0 the unit
    at the identity, one pass per m of
        B_m[alpha] = B_{m-1}[alpha] + sum over alpha = beta.gamma, beta
                     nonempty, of a_beta * B_m[gamma]
    in graded order (B_m = B_{m-1} + f B_m) gives b = B_m.
    In exact mode integer and Fraction coefficients are carried exactly
    (Python integers cannot overflow, so no fallback is ever needed);
    float mode checks finiteness of the result.
    """
    require_valid(f)
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    words = enumerate_words(f.arity, max_len, tol)

    if exact:
        def conv(a: Scalar) -> Scalar:
            if isinstance(a, (int, Fraction)):
                return a
            return Fraction(a)
    else:
        def conv(a: Scalar) -> Scalar:
            return float(a)

    coeffs = {w: conv(a) for w, a in f.coeffs.items() if a != 0 and len(w) >= 1}
    deg_f = max((len(w) for w in coeffs), default=0)

    zero = 0 if exact else 0.0
    b: Dict[Word, Scalar] = {IDENTITY: 1 if exact else 1.0}
    for _ in range(m):
        prev, b = b, {}
        for w in words:
            acc = prev.get(w, zero)
            for cut in range(1, min(deg_f, len(w)) + 1):
                a = coeffs.get(w[:cut])
                if a is not None:
                    acc += a * b[w[cut:]]
            b[w] = acc

    if not exact:
        bad = [w for w, v in b.items() if not isfinite(v)]
        if bad:
            raise OverflowError(
                f"weight accumulation overflowed at words {bad[:3]}; use exact mode"
            )
    return WeightTable(m=m, entries=b, exact=exact)


def scale_symbol_action(f: PositiveSymbol, r: Scalar) -> PositiveSymbol:
    """Coefficient scaling a_alpha -> a_alpha * r^{|alpha|}.

    Equivalent to replacing the operator tuple A by sqrt(r) A in every CP-map
    formula, since each summand a_alpha A_alpha X A_alpha^* is quadratic in
    A (cone.scaled_map passes r^2 for A -> rA). r = 1 is the identity; r = 0
    yields the zero symbol, which is not regular and is accepted only for
    evaluation purposes. r must lie in [0, 1].
    """
    if not (0 <= r <= 1):
        raise ValueError(f"r must lie in [0, 1], got {r}")
    scaled = {w: a * r ** len(w) for w, a in f.coeffs.items()}
    return PositiveSymbol(f.arity, scaled, f.max_degree)


# --- noncommutative polynomials in letters Z_{i,j} ---------------------------

Letter = Tuple[int, int]  # (factor i, generator j), both 1-based
Monomial = Tuple[Letter, ...]


@dataclass(frozen=True)
class NCPolynomial:
    """Polynomial in noncommuting letters Z_{i,j}, stored as (coeff, monomial) terms."""

    terms: Tuple[Tuple[complex, Monomial], ...]

    def __post_init__(self):
        norm = tuple(
            (complex(c), tuple((as_letter(i, what="factor"), as_letter(j)) for (i, j) in mono))
            for c, mono in self.terms
        )
        object.__setattr__(self, "terms", norm)

    def degree_profiles(self, k: int) -> List[Tuple[int, ...]]:
        """Per-term letter counts by factor, used for homogeneity checks."""
        profiles = []
        for _, mono in self.terms:
            counts = [0] * k
            for (i, _) in mono:
                counts[i - 1] += 1
            profiles.append(tuple(counts))
        return profiles

    def is_homogeneous(self, k: int) -> bool:
        profiles = self.degree_profiles(k)
        return len(set(profiles)) <= 1

    def max_degree(self) -> int:
        return max((len(mono) for _, mono in self.terms), default=0)

    def letters_outside(self, arities: Sequence[int]) -> List[Letter]:
        """The letters Z_{i,j} with i > len(arities) or j > arities[i-1], sorted."""
        return sorted({
            (i, j) for _, mono in self.terms for (i, j) in mono
            if i > len(arities) or j > arities[i - 1]
        })


def commutator_polynomial(i: int, j1: int, j2: int) -> NCPolynomial:
    """Z_{i,j1} Z_{i,j2} - Z_{i,j2} Z_{i,j1}."""
    return NCPolynomial(
        (
            (1.0, ((i, j1), (i, j2))),
            (-1.0, ((i, j2), (i, j1))),
        )
    )
