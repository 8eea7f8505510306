"""Words, symbols, and the weight table."""

import re
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polydom.berezin import model_word_value
from polydom.config import ResourceCapError, Tolerances
from polydom.fock import build_model, compress, variety_subspace
from polydom.generate import generate
from polydom.words import (
    NCPolynomial,
    PositiveSymbol,
    Word,
    commutator_polynomial,
    enumerate_words,
    graded_lex_key,
    polyball_symbol,
    scale_symbol_action,
    validate_symbol,
    weight_table,
    word_count,
)

from oracles import FROZEN_WEIGHTS, brute_weight, convolve_weights, evaluate


def fraction_symbol(seed, arity=2, degree=3, density=0.7):
    """Random symbol with Fraction coefficients, exactly representable."""
    rng = np.random.default_rng(seed)
    coeffs = {}
    for j in range(1, arity + 1):
        coeffs[Word((j,))] = Fraction(int(rng.integers(1, 12)), int(rng.integers(1, 12)))
    for L in range(2, degree + 1):
        for w in enumerate_words(arity, L):
            if len(w) == L and rng.random() < density:
                coeffs[w] = Fraction(int(rng.integers(0, 9)), int(rng.integers(1, 9)))
    return PositiveSymbol(arity, coeffs, degree)


# ---------------------------------------------------------------------------
# word plumbing
# ---------------------------------------------------------------------------

def test_word_concat_and_repr():
    w = Word((1, 2)).concat(Word((2,)))
    assert w == Word((1, 2, 2))
    assert "g0" in repr(Word(()))


def test_enumerate_words_count_and_order():
    for n in (1, 2, 3):
        for L in (0, 1, 3):
            words = enumerate_words(n, L)
            assert len(words) == word_count(n, L) == sum(n**t for t in range(L + 1))
            assert words == sorted(words, key=graded_lex_key)
            assert len(set(words)) == len(words)


def test_enumerate_words_resource_cap():
    tol = Tolerances(word_cap=10)
    with pytest.raises(ResourceCapError):
        enumerate_words(3, 5, tol)


def test_validate_symbol_clauses():
    ok = polyball_symbol(2)
    assert validate_symbol(ok) == []
    bad_const = PositiveSymbol(1, {Word(()): 1, Word((1,)): 1}, 1)
    assert any("constant" in v for v in validate_symbol(bad_const))
    bad_neg = PositiveSymbol(1, {Word((1,)): -1}, 1)
    assert validate_symbol(bad_neg)
    bad_linear = PositiveSymbol(2, {Word((1,)): 1, Word((2, 2)): 1}, 2)
    assert validate_symbol(bad_linear)  # linear coefficient of Z2 missing


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

def test_polyball_closed_form_small():
    f = polyball_symbol(2)
    for m in (1, 2, 3):
        table = weight_table(f, m, 5, exact=True)
        for w in enumerate_words(2, 5):
            assert table.value(w) == comb(len(w) + m - 1, m - 1)


def test_weight_table_matches_frozen_values():
    f = PositiveSymbol(
        2,
        {Word((1,)): Fraction(1), Word((2,)): Fraction(1, 2), Word((1, 2)): Fraction(1, 3)},
        2,
    )
    coeffs = {tuple(w): a for w, a in f.coeffs.items()}
    by_m = {}
    for (word, m), expected in FROZEN_WEIGHTS.items():
        if m not in by_m:
            by_m[m] = weight_table(f, m, 4, exact=True)
        assert by_m[m].value(word) == expected
        assert brute_weight(coeffs, word, m) == expected


@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_weight_table_matches_brute_oracle(seed, m):
    f = fraction_symbol(seed)
    table = weight_table(f, m, 4, exact=True)
    coeffs = {tuple(w): a for w, a in f.coeffs.items()}
    for w in enumerate_words(2, 4):
        assert table.value(w) == brute_weight(coeffs, w, m)


@given(st.integers(0, 2**32 - 1), st.integers(1, 2), st.integers(1, 2))
def test_convolution_identity_exact(seed, m1, m2):
    f = fraction_symbol(seed)
    L = 4
    b1 = weight_table(f, m1, L, exact=True)
    b2 = weight_table(f, m2, L, exact=True)
    b12 = weight_table(f, m1 + m2, L, exact=True)
    for w in enumerate_words(2, L):
        lhs = b12.value(w)
        rhs = convolve_weights(
            {tuple(v): b1.value(v) for v in enumerate_words(2, L)},
            {tuple(v): b2.value(v) for v in enumerate_words(2, L)},
            w,
        )
        assert lhs == rhs


def test_weight_scaling_under_radial_action():
    f = fraction_symbol(7)
    r = 0.5
    fr = scale_symbol_action(f, r)
    t1 = weight_table(f, 2, 4)
    t2 = weight_table(fr, 2, 4)
    for w in enumerate_words(2, 4):
        assert t2.value(w) == pytest.approx(r ** len(w) * t1.value(w), rel=1e-12, abs=1e-300)


def test_weight_table_float_overflow_guard():
    f = PositiveSymbol(1, {Word((1,)): 1e300}, 1)
    with pytest.raises(OverflowError):
        weight_table(f, 1, 4)


def test_weight_table_rejects_bad_m():
    with pytest.raises(ValueError):
        weight_table(polyball_symbol(1), 0, 3)


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def test_commutator_polynomial_evaluates_to_commutator(rng):
    q = commutator_polynomial(1, 1, 2)
    A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    B = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))

    def letter(i, j):
        assert i == 1
        return A if j == 1 else B

    val = evaluate(q, letter, np.eye(3))
    assert np.linalg.norm(val - (A @ B - B @ A)) < 1e-12


def test_ncpolynomial_degree_profiles():
    q = commutator_polynomial(2, 1, 2)
    profiles = q.degree_profiles(2)
    assert profiles == [(0, 2), (0, 2)]
    assert q.is_homogeneous(2)
    assert q.max_degree() == 2


@pytest.mark.parametrize("letter", [(0, 1), (1, 0), (-1, 1), (2, -1)])
def test_ncpolynomial_rejects_letters_below_one(letter):
    # index 0 must not wrap round to the last factor as Python's index -1
    with pytest.raises(ValueError):
        NCPolynomial(((1.0, ((1, 1), letter)),))


@pytest.mark.parametrize("coeff", [float("nan"), float("inf"), complex(0.5, float("nan")), complex(float("-inf"), 0)])
def test_ncpolynomial_rejects_a_non_finite_coefficient(coeff):
    with pytest.raises(ValueError, match="is not finite"):
        NCPolynomial(((1.0, ()), (coeff, ((1, 1),))))


def _model_21():
    """The (2, 1) polyball model at degree cap 3."""
    return build_model([polyball_symbol(2), polyball_symbol(1)], (1, 1), 3)[1]


def _polyball_21():
    """The (2, 1) polyball tuple and its compressed model at degree cap 3."""
    ops = generate("commuting_polynomials", 0, arities=(2, 1)).ops
    model = _model_21()
    return ops, compress(model, variety_subspace(model, ()))


@pytest.mark.parametrize("call, named", [
    (lambda ops, comp: Word((1.5, 2)), "1.5"),
    (lambda ops, comp: Word((1, 0)), "letter 0"),
    (lambda ops, comp: NCPolynomial(((1.0, ((1, 1.5),)),)), "1.5"),
    (lambda ops, comp: NCPolynomial(((1.0, ((0, 1),)),)), "factor 0"),
    (lambda ops, comp: model_word_value(comp, ((1.5,), ())), "1.5"),
    (lambda ops, comp: model_word_value(comp, ((3,), ())), "(1, 3)"),
    (lambda ops, comp: comp.word_blocks([(3, 1)]), "(3, 1)"),
    (lambda ops, comp: _model_21().W_mono([(1, 1.5)]), "1.5"),
    (lambda ops, comp: _model_21().W_mono([(1, 3)]), "letter 3"),
    (lambda ops, comp: _model_21().W_mono([(3, 1)]), "factor 3"),
    (lambda ops, comp: ops.monomial([(1, 1.5)]), "1.5"),
    (lambda ops, comp: ops.monomial([(1, 1), (2, 2)]), "letter 2"),
    (lambda ops, comp: ops.word_product(1, (1, 1.5)), "1.5"),
    (lambda ops, comp: ops.word_product(1.5, ()), "1.5"),
    (lambda ops, comp: ops.stack(1.5, 2), "1.5"),
    (lambda ops, comp: ops.stack(3, 2), "factor 3"),
])
def test_letters_are_integers_in_range(call, named):
    """A letter that is not an integer, or lies outside its range, is refused
    by name: never truncated, wrapped round or left to a raw KeyError."""
    with pytest.raises(ValueError, match=re.escape(named)):
        call(*_polyball_21())


def test_scale_symbol_action_range_check():
    f = fraction_symbol(3)
    with pytest.raises(ValueError):
        scale_symbol_action(f, 2.0)
