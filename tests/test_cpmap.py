"""CP map engine: apply, matricize, defects, series, radii."""

import gc
import time
import weakref
from math import comb

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from polydom.berezin import tuple_word_product
from polydom.config import DivergenceError
from polydom.cpmap import (
    CommutationError,
    CPMapTuple,
    OperatorTuple,
    hermitize,
    multi_grid,
    unvec,
    vec,
)
from polydom.generate import generate, random_pd, strict_contractions
from polydom.words import NCPolynomial, PositiveSymbol, Word, commutator_polynomial, polyball_symbol

from conftest import random_hermitian, random_psd
from oracles import (
    GEOMETRIC_SERIES,
    dense_defect_solve,
    dense_map_matrix,
    dense_radius,
    naive_cesaro,
    naive_defect,
    naive_weighted_series,
    nested_limit_value,
)


def scalar_instance(c, d=3, m=1):
    f = polyball_symbol(1)
    ops = OperatorTuple([[c * np.eye(d)]])
    return CPMapTuple([f], ops)


def small_random_instance(seed, target_radius=0.8):
    inst = generate("commuting_polynomials", seed, target_radius=target_radius)
    return CPMapTuple(inst.symbols, inst.ops), inst


# ---------------------------------------------------------------------------
# vec / matricize conventions
# ---------------------------------------------------------------------------

def test_vec_unvec_roundtrip(rng):
    X = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert np.array_equal(unvec(vec(X), 4), X)


def test_matricize_consistency(rng):
    phi, _ = small_random_instance(3)
    X = random_hermitian(rng, phi.dim)
    for i in (1, 2):
        M = phi.matricize(i)
        gap = np.linalg.norm(M @ vec(X) - vec(phi.apply(i, X)))
        assert gap <= 1e-12 * max(1.0, np.linalg.norm(X))


def test_matricize_scalar_case():
    phi = scalar_instance(0.5, d=3)
    M = phi.matricize(1)
    assert np.allclose(M, 0.25 * np.eye(9), atol=1e-14)


# ---------------------------------------------------------------------------
# apply
# ---------------------------------------------------------------------------

def test_apply_zero_operators():
    f = polyball_symbol(1)
    ops = OperatorTuple([[np.zeros((3, 3))]])
    phi = CPMapTuple([f], ops)
    X = np.diag([1.0, 2.0, 3.0])
    assert np.allclose(phi.apply(1, X), 0)


def test_apply_matrix_units_example():
    # f = Z1 + Z2 on A = (E12, E21) maps I to E11 + E22 = I in dimension 2
    f = polyball_symbol(2)
    E12 = np.zeros((2, 2)); E12[0, 1] = 1.0
    E21 = np.zeros((2, 2)); E21[1, 0] = 1.0
    phi = CPMapTuple([f], OperatorTuple([[E12, E21]]))
    out = phi.apply(1, np.eye(2))
    assert np.allclose(out, np.eye(2), atol=1e-15)


def test_apply_preserves_hermitian_and_psd(rng):
    phi, _ = small_random_instance(11)
    X = random_psd(rng, phi.dim)
    Y = phi.apply(1, X)
    assert np.allclose(Y, Y.conj().T)
    assert np.linalg.eigvalsh(Y).min() >= -1e-9 * max(1, np.linalg.norm(X))


@given(st.integers(0, 10**6))
def test_apply_positivity_property(seed):
    rng = np.random.default_rng(seed)
    phi, _ = small_random_instance(seed % 50)
    X = random_psd(rng, phi.dim)
    Y = phi.apply(1, X)
    assert np.linalg.eigvalsh(hermitize(Y)).min() >= -1e-9 * max(1, np.linalg.norm(X))


def test_apply_shape_mismatch():
    phi = scalar_instance(0.5, d=3)
    with pytest.raises(ValueError):
        phi.apply(1, np.eye(4))


# ---------------------------------------------------------------------------
# operator tuple constraints
# ---------------------------------------------------------------------------

def test_cross_factor_commutation_enforced(rng):
    A = rng.standard_normal((3, 3))
    B = rng.standard_normal((3, 3))
    assert np.linalg.norm(A @ B - B @ A) > 1e-3  # generic pair
    with pytest.raises(CommutationError):
        OperatorTuple([[A], [B]])


def test_word_product_rejects_letters_outside_the_row():
    # arities (2, 1): letter 0 and negative letters must not wrap around
    ops = generate("nilpotent", 300, dim=4).ops
    for letter in (0, -1, ops.arities[0] + 1):
        with pytest.raises(ValueError, match="outside"):
            ops.word_product(1, (letter,))
        with pytest.raises(ValueError, match="outside"):
            ops.word_product(1, (1, letter))
        with pytest.raises(ValueError, match="outside"):
            tuple_word_product(ops, [[letter], []])
    with pytest.raises(ValueError, match="outside"):
        ops.word_product(2, (ops.arities[1] + 1,))
    with pytest.raises(ValueError, match="outside"):
        ops.word_product(0, ())
    with pytest.raises(ValueError, match="outside"):
        tuple_word_product(ops, [[1], [1], [1]])
    assert np.array_equal(ops.word_product(1, (1, 2)), ops.matrix(1, 1) @ ops.matrix(1, 2))


def test_within_factor_entries_need_not_commute(rng):
    A = rng.standard_normal((3, 3))
    B = rng.standard_normal((3, 3))
    ops = OperatorTuple([[A, B]])  # single factor, free entries
    assert ops.k == 1 and ops.arities == (2,)


def test_from_kraus_map_level_commutation():
    # maps commute although the Kraus operators do not: two copies of the
    # same family in different factors, entries swapped
    rng = np.random.default_rng(5)
    A = rng.standard_normal((3, 3)) * 0.4
    B = rng.standard_normal((3, 3)) * 0.4
    with pytest.raises(CommutationError):
        CPMapTuple.from_kraus([[A, B], [B, A]], check="operators")
    phi = CPMapTuple.from_kraus([[A, B], [B, A]], check="maps")
    assert phi.k == 2


def test_from_kraus_commuting_family_skips_the_map_check(monkeypatch):
    # entrywise commutation implies that the maps commute: no matricization
    def matricized_check(self):
        raise AssertionError("the matricized commutation check ran")

    monkeypatch.setattr(CPMapTuple, "_check_map_commutation", matricized_check)
    inst = generate("commuting_polynomials", 0, dim=4)
    phi = CPMapTuple.from_kraus([list(row) for row in inst.ops.rows])
    assert phi.k == 2 and not phi._matricized


def test_from_kraus_noncommuting_entries_run_the_map_check(monkeypatch):
    # X -> A X A^* and X -> C X C^* commute neither entrywise nor as maps
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    C = np.diag([1.0, 2.0])
    calls = []
    check = CPMapTuple._check_map_commutation
    monkeypatch.setattr(CPMapTuple, "_check_map_commutation",
                        lambda self: calls.append(self) or check(self))
    with pytest.raises(CommutationError, match="maps 1 and 2"):
        CPMapTuple.from_kraus([[A], [C]], check="maps")
    assert len(calls) == 1


def test_from_kraus_rejects_an_unknown_check():
    # the maps X -> A X A^* and X -> C X C^* do not commute
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    C = np.diag([1.0, 2.0])
    with pytest.raises(CommutationError):
        CPMapTuple.from_kraus([[A], [C]], check="maps")
    for check in ("map", "none", "", None):
        with pytest.raises(ValueError, match="unknown check"):
            CPMapTuple.from_kraus([[A], [C]], check=check)
    with pytest.raises(ValueError, match="unknown check"):
        CPMapTuple.from_kraus([[A], [A]], check="none")


def test_conjugate_radius_invariance(rng):
    phi, inst = small_random_instance(17)
    Y = random_pd(rng, phi.dim, cond=8.0)
    Yinv = np.linalg.inv(Y)
    conj = CPMapTuple(inst.symbols, inst.ops.conjugate(Y, Yinv))
    for i in (1, 2):
        r1 = phi.joint_spectral_radius(i)
        r2 = conj.joint_spectral_radius(i)
        assert abs(r1 - r2) <= 1e-6 * max(1.0, r1)


# ---------------------------------------------------------------------------
# defects
# ---------------------------------------------------------------------------

def test_defect_p_zero_is_identity_map(rng):
    phi, _ = small_random_instance(23)
    X = random_hermitian(rng, phi.dim)
    assert np.allclose(phi.defect((0, 0), X), X)


def test_defect_scalar_closed_form():
    c = 0.6
    phi = scalar_instance(c, d=3)
    out = phi.defect((2,), np.eye(3))
    assert np.allclose(out, (1 - c**2) ** 2 * np.eye(3), atol=1e-14)


def test_defect_binomial_expansion_oracle(rng):
    phi, _ = small_random_instance(31)
    X = random_hermitian(rng, phi.dim)
    for p in [(1, 0), (0, 1), (1, 1), (2, 1)]:
        got = phi.defect(p, X)
        want = naive_defect(phi, p, X)
        assert np.linalg.norm(got - want) <= 1e-10 * max(1.0, np.linalg.norm(X))


def test_defect_factor_order_immaterial(rng):
    phi, _ = small_random_instance(37)
    X = random_hermitian(rng, phi.dim)
    d12 = phi.apply(1, X) * 0  # shape only
    a = X - phi.apply(1, X)
    d12 = a - phi.apply(2, a)
    b = X - phi.apply(2, X)
    d21 = b - phi.apply(1, b)
    assert np.linalg.norm(d12 - d21) <= 1e-9 * max(1.0, np.linalg.norm(X))
    assert np.linalg.norm(phi.defect((1, 1), X) - d12) <= 1e-10 * max(1.0, np.linalg.norm(X))


def test_defect_grid_covers_box(rng):
    phi, _ = small_random_instance(41)
    X = random_psd(rng, phi.dim)
    grid = phi.defect_grid((2, 1), X)
    assert set(grid) == {p for p in multi_grid((2, 1))}
    assert (0, 0) in grid


# ---------------------------------------------------------------------------
# iterated sums and the weighted series
# ---------------------------------------------------------------------------

def test_iterated_sum_geometric():
    c = 0.5
    phi = scalar_instance(c, d=2)
    out = phi.iterated_sum(1, 1, np.eye(2))
    assert np.allclose(out.value, np.eye(2) / (1 - c**2), atol=1e-9)


def test_iterated_sum_zero_input():
    phi = scalar_instance(0.5, d=2)
    out = phi.iterated_sum(1, 1, np.zeros((2, 2)))
    assert np.allclose(out.value, 0)


def test_iterated_sum_nilpotent_exact():
    f = polyball_symbol(1)
    N = np.diag([1.0, 1.0], k=1)  # 3x3 Jordan cell
    phi = CPMapTuple([f], OperatorTuple([[N]]))
    out = phi.iterated_sum(1, 1, np.eye(3))
    want = np.eye(3) + N @ N.conj().T + (N @ N) @ (N @ N).conj().T
    assert np.linalg.norm(out.value - want) <= 1e-13


def test_series_divergence_error_on_unitary():
    phi = scalar_instance(1.0, d=2)
    with pytest.raises(DivergenceError):
        phi.weighted_series((1,), np.eye(2))
    with pytest.raises(DivergenceError):
        phi.iterated_sum(1, 1, np.eye(2))


def test_series_refuses_radius_one_at_once():
    f = polyball_symbol(1)
    U = np.diag(np.exp(1j * np.linspace(0.3, 2.9, 6)))
    phi = CPMapTuple([f, f], OperatorTuple([[U], [U.conj()]]))
    start = time.perf_counter()
    with pytest.raises(DivergenceError):
        phi.weighted_series((1, 1), np.eye(6))
    assert time.perf_counter() - start < 0.5


def test_series_rejects_non_finite_input():
    phi = scalar_instance(0.5, d=2)
    R = np.eye(2)
    R[0, 1] = np.nan
    with pytest.raises(ValueError):
        phi.weighted_series((1,), R)
    with pytest.raises(ValueError):
        phi.iterated_sum(1, 1, R)


def test_weighted_series_certified_at_radius_099():
    # near radius one the certificate must still hold: a tail bound >= 0
    # with the dense solve inside it
    inst = generate("commuting_polynomials", 2, dim=8, target_radius=0.99)
    phi = CPMapTuple(inst.symbols, inst.ops)
    out = phi.weighted_series(inst.m, np.eye(8))
    assert out.certified
    assert out.tail_bound >= 0.0
    ref = dense_defect_solve(phi, inst.m, np.eye(8))
    assert np.linalg.norm(out.value - ref) <= out.tail_bound + 1e-8 * np.linalg.norm(ref)


def test_weighted_series_matches_dense_solve_on_stage_inputs(rng):
    # R != I: every stage sums its own iterates against the orbit's tail
    phi, inst = small_random_instance(29, target_radius=0.9)
    R = random_psd(rng, phi.dim)
    out = phi.weighted_series((2, 3), R)
    ref = dense_defect_solve(phi, (2, 3), R)
    assert out.certified
    assert np.linalg.norm(out.value - ref) <= out.tail_bound + 1e-8 * np.linalg.norm(ref)


def test_weighted_series_geometric_closed_forms():
    for (c, m), want in GEOMETRIC_SERIES.items():
        phi = scalar_instance(c, d=2)
        out = phi.weighted_series((m,), np.eye(2))
        assert np.linalg.norm(out.value - want * np.eye(2)) <= 1e-9
        assert out.certified
        assert out.tail_bound <= 1e-8


def test_weighted_series_zero_input():
    phi = scalar_instance(0.4, d=2)
    out = phi.weighted_series((1,), np.zeros((2, 2)))
    assert np.allclose(out.value, 0)


def test_weighted_series_matches_naive_partial_sums(rng):
    phi, _ = small_random_instance(43, target_radius=0.6)
    R = random_psd(rng, phi.dim)
    out = phi.weighted_series((2, 1), R, tol=1e-12)
    want = naive_weighted_series(phi, (2, 1), R, s_max=40)
    # the naive box at s_max=40 carries its own tail; radius 0.6 => rho ~ 0.36
    assert np.linalg.norm(out.value - want) <= 1e-8


def test_weighted_series_nilpotent_exact(rng):
    inst = generate("nilpotent", 2, dim=5)
    phi = CPMapTuple(inst.symbols, inst.ops)
    R = random_psd(rng, phi.dim)
    out = phi.weighted_series((1, 1), R)
    want = naive_weighted_series(phi, (1, 1), R, s_max=6)
    assert np.linalg.norm(out.value - want) <= 1e-12 * max(1.0, np.linalg.norm(R))
    assert out.certified and out.tail_bound == 0.0


def test_weighted_series_does_not_depend_on_how_far_the_orbit_was_read():
    # the truncation reads eta_0..eta_s only: a longer orbit read in between
    # changes neither the terms nor a bit of the value
    inst = generate("commuting_polynomials", 0, dim=3, target_radius=0.5)
    phi = CPMapTuple(inst.symbols, inst.ops)
    before = phi.weighted_series(inst.m, np.eye(3))
    for i in range(1, phi.k + 1):
        phi._orbit(i).norm(3000)
    after = phi.weighted_series(inst.m, np.eye(3))
    assert after.terms == before.terms
    assert np.array_equal(after.value, before.value)
    assert after.tail_bound == before.tail_bound


def test_series_then_defect_recovers_R(rng):
    phi, _ = small_random_instance(47)
    R = random_psd(rng, phi.dim)
    m = (1, 1)
    series = phi.weighted_series(m, R, tol=1e-12)
    back = phi.defect(m, series.value)
    assert np.linalg.norm(back - R) <= 1e-8 * max(1.0, np.linalg.norm(R))


# ---------------------------------------------------------------------------
# cesaro means
# ---------------------------------------------------------------------------

def test_cesaro_fixed_point_of_unitary():
    f = polyball_symbol(1)
    U = np.diag(np.exp(1j * np.array([0.3, 1.1, 2.0])))
    phi = CPMapTuple([f], OperatorTuple([[U]]))
    for p in [(1,), (4,), (9,)]:
        assert np.allclose(phi.cesaro_mean(p, np.eye(3)), np.eye(3), atol=1e-12)


def test_cesaro_trivial_average_is_input(rng):
    phi, _ = small_random_instance(53)
    X = random_hermitian(rng, phi.dim)
    assert np.allclose(phi.cesaro_mean((1, 1), X), X)


def test_cesaro_matches_naive_double_loop(rng):
    phi, _ = small_random_instance(59)
    X = random_hermitian(rng, phi.dim)
    got = phi.cesaro_mean((3, 4), X)
    want = naive_cesaro(phi, (3, 4), X)
    assert np.linalg.norm(got - want) <= 1e-12 * max(1.0, np.linalg.norm(X))


# ---------------------------------------------------------------------------
# joint spectral radius
# ---------------------------------------------------------------------------

def test_radius_classical_single_matrix():
    f = polyball_symbol(1)
    C = np.array([[0.5, 1.0], [0.0, 0.25]])
    phi = CPMapTuple([f], OperatorTuple([[C]]))
    assert phi.joint_spectral_radius(1) == pytest.approx(0.5, rel=1e-8)


def test_radius_nilpotent_zero():
    f = polyball_symbol(1)
    phi = CPMapTuple([f], OperatorTuple([[np.diag([1.0], k=1)]]))
    assert phi.joint_spectral_radius(1) <= 1e-8


def test_radius_row_isometry_one():
    f = polyball_symbol(2)
    A = np.eye(3) / np.sqrt(2.0)
    phi = CPMapTuple([f], OperatorTuple([[A, A]]))
    assert phi.joint_spectral_radius(1) == pytest.approx(1.0, rel=1e-10)


def test_radius_similarity_invariance(rng):
    phi, inst = small_random_instance(61)
    Y = random_pd(rng, phi.dim, cond=5.0)
    conj = CPMapTuple(inst.symbols, inst.ops.conjugate(Y, np.linalg.inv(Y)))
    for i in (1, 2):
        assert phi.joint_spectral_radius(i) == pytest.approx(
            conj.joint_spectral_radius(i), rel=1e-6
        )


def test_radius_above_dense_threshold_from_orbit():
    # d^2 > 6400: no matricization; sqrt(min_t eta_t^{1/t}) bounds the radius
    d = 81
    f = polyball_symbol(1)
    diag = CPMapTuple([f], OperatorTuple([[np.diag(np.linspace(-0.7, 0.3, d))]]))
    assert diag.joint_spectral_radius(1, crosscheck=False) == pytest.approx(0.7, rel=1e-12)
    jordan = 0.5 * np.eye(d) + 0.1 * np.diag(np.ones(d - 1), k=1)
    upper = CPMapTuple([f], OperatorTuple([[jordan]])).joint_spectral_radius(1, crosscheck=False)
    assert 0.5 <= upper <= 0.6
    assert not diag._matricized


def test_radius_power_sequence_crosscheck():
    # the cross-check tests the radius against the orbit enclosure up to s = 64
    phi, _ = small_random_instance(67)
    for i in (1, 2):
        r = phi.joint_spectral_radius(i, crosscheck=True)
        lower, upper = phi.radius_power_sequence(i)
        assert 0.0 < lower <= r <= upper
        assert len(phi._orbit(i).eta) == 65
        phi._radii[i] = upper * (1.0 + 1e-9)
        with pytest.raises(ArithmeticError, match="outside the orbit enclosure"):
            phi.joint_spectral_radius(i)
        phi._radii[i] = lower * (1.0 - 1e-9)
        with pytest.raises(ArithmeticError):
            phi.joint_spectral_radius(i)


def enclosure_cases():
    for family in ("commuting_polynomials", "polyball_random", "nilpotent",
                   "conjugated_unitaries", "strict_contractions"):
        for d in (3, 5, 8, 12):
            for seed in (0, 1):
                yield f"{family}-d{d}-s{seed}", family, seed, d
    for d in (4, 8):
        yield f"jordan-d{d}", "jordan", 0, d
        yield f"rank_one-d{d}", "rank_one", 0, d


def enclosure_instance(family, seed, d):
    if family == "jordan":
        C = 0.5 * np.eye(d) + 0.5 * np.diag(np.ones(d - 1), k=1)
        return CPMapTuple([polyball_symbol(1)], OperatorTuple([[C]]))
    if family == "rank_one":
        # Phi(X) = (v* X v) u u*, of radius |v* u|^2
        rng = np.random.default_rng(d)
        u, v = rng.standard_normal((2, d)) + 1j * rng.standard_normal((2, d))
        return CPMapTuple([polyball_symbol(1)], OperatorTuple([[np.outer(u, v.conj())]]))
    return radius_instance(family, seed, d)


@pytest.mark.parametrize("case", [c[0] for c in enclosure_cases()])
def test_radius_enclosure_contains_dense_radius(case):
    _, family, seed, d = next(c for c in enclosure_cases() if c[0] == case)
    phi = enclosure_instance(family, seed, d)
    for i in range(1, phi.k + 1):
        r = dense_radius(phi, i)
        lower, upper = phi.radius_power_sequence(i)
        assert lower * (1.0 - 1e-12) <= r <= upper * (1.0 + 1e-12)
        phi.joint_spectral_radius(i, crosscheck=True)


def radius_instance(family, seed, d):
    if family == "strict_contractions":
        rows = [[C] for C in strict_contractions(seed, dim=d)]
        return CPMapTuple([polyball_symbol(1)] * len(rows), OperatorTuple(rows))
    inst = generate(family, seed, dim=d)
    return CPMapTuple(inst.symbols, inst.ops)


RADIUS_FAMILIES = ("commuting_polynomials", "polyball_random", "nilpotent",
                   "conjugated_unitaries", "strict_contractions")


@pytest.mark.parametrize("family", RADIUS_FAMILIES)
@pytest.mark.parametrize("d", [12, 16, 24])
def test_radius_matches_dense_oracle_above_crossover(family, d):
    # d >= 12: commuting rows take the joint triangular form; polyball_random's
    # rows do not commute and go on to ARPACK or dense eigvals
    for seed in (0, 1) if d < 24 else (0,):
        phi = radius_instance(family, seed, d)
        for i in range(1, phi.k + 1):
            r = phi.joint_spectral_radius(i, crosscheck=False)
            assert r == pytest.approx(dense_radius(phi, i), rel=1e-10)
        if family == "nilpotent":
            assert r == 0.0 and not phi._matricized


def jordan_block(d):
    return 0.5 * np.eye(d) + 0.5 * np.diag(np.ones(d - 1), k=1)


def rotated_jordan_block(d):
    """The Jordan block in a random unitary basis: defective, so no eigenvector
    basis triangularizes it."""
    rng = np.random.default_rng(d)
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return Q @ jordan_block(d) @ Q.conj().T


def test_radius_jordan_type_takes_dense_fallback():
    # non-normal: ARPACK's Ritz values sit in the pseudospectrum, off the
    # real axis, so the Arnoldi value is refused. A row with a Jordan block
    # and a letter that does not commute with it has no joint triangular
    # form either; both letters are upper triangular, so the dense value is
    # exact, sqrt(0.5^2 + 0.1^2)
    d = 16
    corner = np.zeros((d, d))
    corner[0, 0] = 0.1
    phi = CPMapTuple([polyball_symbol(2)], OperatorTuple([[jordan_block(d), corner]]))
    assert phi._triangular_radius(1) is None
    assert phi._arnoldi_radius(1) is None
    assert phi.joint_spectral_radius(1, crosscheck=False) == pytest.approx(
        dense_radius(phi, 1), rel=1e-10
    )
    assert dense_radius(phi, 1) == pytest.approx(np.sqrt(0.26), rel=1e-12)
    assert phi._matricized
    # the rotated block is refused by both paths as well; its dense value is
    # only as good as the eigenvalues of a defective matrix (Jordan blocks of
    # the map up to size 2d - 1), so it is held to the orbit enclosure
    rotated = CPMapTuple([polyball_symbol(1)], OperatorTuple([[rotated_jordan_block(d)]]))
    assert rotated._triangular_radius(1) is None
    assert rotated._arnoldi_radius(1) is None
    rotated.joint_spectral_radius(1, crosscheck=True)
    assert rotated._matricized
    # the plain block is its own joint triangular form: exactly 0.25, no matricization
    plain = CPMapTuple([polyball_symbol(1)], OperatorTuple([[jordan_block(d)]]))
    assert plain._map_radius(1) == 0.25
    assert plain.joint_spectral_radius(1, crosscheck=False) == 0.5
    assert not plain._matricized


TRIANGULAR_FAMILIES = ("commuting_polynomials", "conjugated_unitaries", "nilpotent")


@pytest.mark.parametrize("family", TRIANGULAR_FAMILIES)
@pytest.mark.parametrize("d", [3, 5, 8, 12, 16, 24])
def test_triangular_radius_matches_dense_oracle(family, d):
    phi = radius_instance(family, 0, d)
    for i in range(1, phi.k + 1):
        rho = phi._triangular_radius(i)
        assert rho is not None
        assert np.sqrt(rho) == pytest.approx(dense_radius(phi, i), rel=1e-10)
        assert phi.joint_spectral_radius(i, crosscheck=True) == np.sqrt(rho)
    assert not phi._matricized


@pytest.mark.parametrize("d", [5, 12])
def test_triangular_radius_refuses_and_falls_through(d, monkeypatch):
    # a row whose letters do not commute, and a defective block
    cases = [radius_instance("polyball_random", 0, d),
             CPMapTuple([polyball_symbol(1)], OperatorTuple([[rotated_jordan_block(d)]]))]
    for phi in cases:
        assert phi._triangular_radius(1) is None
        today = CPMapTuple(phi.symbols, phi.ops)
        monkeypatch.setattr(today, "_triangular_radius", lambda i: None)
        assert phi.joint_spectral_radius(1, crosscheck=False) == today.joint_spectral_radius(
            1, crosscheck=False
        )


@pytest.mark.parametrize("d", [12, 16, 24])
def test_conjugated_unitaries_take_no_arnoldi_run(d, monkeypatch):
    def arnoldi(self, i):
        raise AssertionError("the Arnoldi path ran")

    monkeypatch.setattr(CPMapTuple, "_arnoldi_radius", arnoldi)
    phi = radius_instance("conjugated_unitaries", 1, d)
    for i in range(1, phi.k + 1):
        assert phi.joint_spectral_radius(i, crosscheck=False) == pytest.approx(1.0, rel=1e-12)
    assert not phi._matricized


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_radius_survives_an_overflowing_orbit():
    # the nilpotency test runs the orbit to s = d; here Phi^s(I) overflows
    # long before, and the orbit records inf in place of a failed SVD
    A = 1e20 * np.random.default_rng(0).standard_normal((12, 12))
    phi = CPMapTuple([polyball_symbol(1)], OperatorTuple([[A]]))
    r = phi.joint_spectral_radius(1, crosscheck=False)
    assert r == pytest.approx(dense_radius(phi, 1), rel=1e-10)
    assert phi._orbit(1).eta[-1] == float("inf")


@pytest.mark.parametrize("d", [4, 16])
def test_radius_second_call_does_no_apply(d, monkeypatch):
    rows = [[C] for C in strict_contractions(5, dim=d)]
    phi = CPMapTuple([polyball_symbol(1)] * 2, OperatorTuple(rows))
    first = [phi.joint_spectral_radius(i) for i in (1, 2)]
    calls = []
    apply = phi.apply
    monkeypatch.setattr(phi, "apply", lambda *a, **kw: calls.append(a) or apply(*a, **kw))
    monkeypatch.setattr(np.linalg, "eigvals", lambda *a: calls.append(a))
    assert [phi.joint_spectral_radius(i) for i in (1, 2)] == first
    assert not calls


# ---------------------------------------------------------------------------
# the identity orbit
# ---------------------------------------------------------------------------

ORBIT_CASES = [
    (family, seed, d)
    for family in ("commuting_polynomials", "nilpotent", "polyball_random")
    for seed, d in ((1, 3), (2, 4), (3, 5), (4, 6))
]


@pytest.mark.parametrize("family,seed,d", ORBIT_CASES)
def test_orbit_envelope_dominates_dense_powers(family, seed, d):
    inst = generate(family, seed, dim=d)
    phi = CPMapTuple(inst.symbols, inst.ops)
    for i in range(1, phi.k + 1):
        orbit = phi._orbit(i)
        orbit.norm(32)
        if family != "nilpotent":
            assert orbit.theta < 1.0
        M = dense_map_matrix(phi, i)
        P = np.eye(d * d, dtype=np.complex128)
        first_zero = None
        for s in range(d * d + 1):
            dense = float(np.linalg.norm(P, 2))
            if first_zero is None and not np.any(P):
                first_zero = s
            if s <= 32:
                # Russo-Dye in the Frobenius norm, then the certified envelope
                assert dense <= np.sqrt(d) * orbit.norm(s) * (1 + 1e-9) + 1e-14
                if orbit.theta < 1.0:
                    envelope = np.sqrt(d) * orbit.growth * orbit.theta ** s
                    assert dense <= envelope * (1 + 1e-9) + 1e-14
            P = M @ P
        assert orbit.nilpotency_index() == first_zero


def test_orbit_does_not_keep_its_tuple_alive():
    # a reference cycle would keep the d^2 x d^2 matricizations alive until
    # the cyclic collector runs
    phi = scalar_instance(0.5, d=3)
    phi.weighted_series((1,), np.eye(3))
    phi.matricize(1)
    ref = weakref.ref(phi)
    gc.disable()
    try:
        del phi
        assert ref() is None
    finally:
        gc.enable()


def test_orbit_nilpotency_index_below_dim():
    inst = generate("nilpotent", 7, dim=6)
    rows = [[A @ A for A in row] for row in inst.ops.rows]
    phi = CPMapTuple(inst.symbols, OperatorTuple(rows))
    for i in (1, 2):
        assert phi._orbit(i).nilpotency_index() == 3
        assert not np.any(np.linalg.matrix_power(dense_map_matrix(phi, i), 3))
        assert np.any(np.linalg.matrix_power(dense_map_matrix(phi, i), 2))


def test_orbit_norm_sum_dominates_partial_sums():
    # a large weight m: the envelope applies only once theta (s+m)/(s+1) < 1
    inst = generate("commuting_polynomials", 4, dim=8, target_radius=0.99)
    phi = CPMapTuple(inst.symbols, inst.ops)
    orbit = phi._orbit(1)
    for m in (1, 60):
        total = orbit.norm_sum(m)
        assert np.isfinite(total)
        weighted = [comb(s + m - 1, m - 1) * e for s, e in enumerate(orbit.eta)]
        assert sum(weighted) <= total <= sum(weighted) * (1 + 1e-9)
        # every finite tail bound covers the known rest of the orbit
        for s in range(1, len(weighted), 97):
            assert orbit.tail(s, m) >= sum(weighted[s:]) * (1 - 1e-9)


def test_evaluate_poly_on_tuple():
    phi, inst = small_random_instance(5)
    A11, A12, A21 = inst.ops.matrix(1, 1), inst.ops.matrix(1, 2), inst.ops.matrix(2, 1)
    q = NCPolynomial(((2.0, ((1, 1), (2, 1))), (-1.0, ((1, 2),)), (0.5, ())))
    want = 2.0 * A11 @ A21 - A12 + 0.5 * np.eye(phi.dim)
    assert np.linalg.norm(inst.ops.evaluate_poly(q) - want) <= 1e-13
    assert np.linalg.norm(inst.ops.evaluate_poly(commutator_polynomial(1, 1, 2)), 2) <= 1e-10


@pytest.mark.parametrize("letter", [(3, 1), (2, 2), (1, 3)])
def test_evaluate_poly_rejects_letters_outside_the_tuple(letter):
    _, inst = small_random_instance(5)  # k = 2, arities (2, 1)
    with pytest.raises(ValueError):
        inst.ops.evaluate_poly(NCPolynomial(((1.0, ((1, 1), letter)),)))


# ---------------------------------------------------------------------------
# double limit identity and purity
# ---------------------------------------------------------------------------

def test_double_limit_equals_weighted_series_of_defect(rng):
    phi, _ = small_random_instance(71, target_radius=0.7)
    m = (1, 1)
    R = random_psd(rng, phi.dim)
    X = phi.weighted_series(m, R, tol=1e-12).value  # a cone element
    lhs = nested_limit_value(phi, (64, 64), X)
    rhs = phi.weighted_series(m, phi.defect(m, X), tol=1e-12).value
    assert np.linalg.norm(lhs - rhs) <= 1e-6 * max(1.0, np.linalg.norm(X))


def test_double_limit_detects_purity_both_directions():
    # pure: strict contraction; the nested limit converges to X itself
    phi = scalar_instance(0.6, d=3)
    X = np.eye(3)
    lhs = nested_limit_value(phi, (64,), X)
    assert np.linalg.norm(lhs - X) <= 1e-6

    # not pure: a unitary summand survives; the limit loses that block
    f = polyball_symbol(1)
    A = np.diag([1.0, 0.5])
    phi2 = CPMapTuple([f], OperatorTuple([[A]]))
    lhs2 = nested_limit_value(phi2, (64,), np.eye(2))
    gap = np.linalg.norm(lhs2 - np.eye(2))
    assert gap >= 0.9  # the unitary direction contributes ~1
    assert np.linalg.norm(lhs2 - np.diag([0.0, 1.0])) <= 1e-6
