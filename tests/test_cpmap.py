"""CP map engine: apply, matricize, defects, series, radii."""

import gc
import re
import time
import tracemalloc
import weakref
from math import comb

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from polydom import cpmap
from polydom.config import DivergenceError, ResourceCapError, Tolerances
from polydom.cpmap import (
    CommutationError,
    CPMapTuple,
    OperatorTuple,
    hermitize,
    multi_grid,
    unvec,
    vec,
)
from polydom.generate import _scale_rows_to_radius, generate, random_pd, random_symbol, strict_contractions
from polydom.words import NCPolynomial, PositiveSymbol, Word, commutator_polynomial, polyball_symbol

from conftest import random_hermitian, random_psd
from oracles import (
    GEOMETRIC_SERIES,
    dense_defect_solve,
    dense_map_matrix,
    dense_radius,
    loop_apply,
    loop_matricize,
    loop_triangular_radius,
    loop_wide_residual,
    naive_defect,
    naive_weighted_series,
    nested_limit_value,
    refined_defect_solve,
    word_terms,
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
            ops.monomial([(1, letter)])
    with pytest.raises(ValueError, match="outside"):
        ops.word_product(2, (ops.arities[1] + 1,))
    with pytest.raises(ValueError, match="outside"):
        ops.word_product(0, ())
    with pytest.raises(ValueError, match="outside"):
        ops.monomial([(1, 1), (2, 1), (3, 1)])
    assert np.array_equal(ops.word_product(1, (1, 2)), ops.matrix(1, 1) @ ops.matrix(1, 2))


def factor_calls(phi):
    """Each method that takes a factor index i, as a function of i alone."""
    X = np.eye(phi.dim)
    return {
        "apply": lambda i: phi.apply(i, X),
        "matricize": phi.matricize,
        "joint_spectral_radius": phi.joint_spectral_radius,
        "radius_power_sequence": phi.radius_power_sequence,
        "decays": phi.decays,
        "matrix": lambda i: phi.ops.matrix(i, 1),
        "row_commutes": phi.ops.row_commutes,
        "row_form": phi.ops.row_form,
    }


@pytest.mark.parametrize("warm", [False, True])
@pytest.mark.parametrize("i", [0, 3, -1, 1.5, 1.0])
@pytest.mark.parametrize("method", list(factor_calls(scalar_instance(0.5))))
def test_a_factor_index_outside_the_tuple_is_a_value_error(method, i, warm):
    # k = 2: no index wraps around to the last row, whether or not the
    # per-factor caches are filled
    inst = generate("commuting_polynomials", 0, dim=4)
    phi = CPMapTuple(inst.symbols, OperatorTuple(inst.ops.rows))
    calls = factor_calls(phi)
    if warm:
        for call in calls.values():
            call(1), call(2)
    with pytest.raises(ValueError, match=re.escape(f"factor {i} ")):
        calls[method](i)
    if method == "matrix":
        with pytest.raises(ValueError, match=re.escape(f"row 1 letter {i} ")):
            phi.ops.matrix(1, i)


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
        OperatorTuple([[A, B], [B, A]])
    phi = CPMapTuple.from_kraus([[A, B], [B, A]])
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
        CPMapTuple.from_kraus([[A], [C]])
    assert len(calls) == 1


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


def test_defect_rejects_negative_degrees(rng):
    # defect((-1, -2), X) returned X, and defect_grid an empty box; zero
    # entries stay legal
    phi, _ = small_random_instance(31)
    X = random_hermitian(rng, phi.dim)
    for p in [(-1, -2), (0, -1), (-1, 0)]:
        with pytest.raises(ValueError, match=r"p must be >= 0 componentwise"):
            phi.defect(p, X)
        with pytest.raises(ValueError, match=r"m must be >= 0 componentwise"):
            phi.defect_grid(p, X)
    assert np.array_equal(phi.defect((0, 0), X), X)
    assert list(phi.defect_grid((0, 0), X)) == [(0, 0)]


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
# the weighted series
# ---------------------------------------------------------------------------

def test_one_factor_series_geometric():
    c = 0.5
    phi = scalar_instance(c, d=2)
    out = phi.weighted_series((1,), np.eye(2))
    assert np.allclose(out.value, np.eye(2) / (1 - c**2), atol=1e-9)


def test_one_factor_series_zero_input():
    phi = scalar_instance(0.5, d=2)
    out = phi.weighted_series((1,), np.zeros((2, 2)))
    assert np.allclose(out.value, 0)


def test_one_factor_series_nilpotent_exact():
    f = polyball_symbol(1)
    N = np.diag([1.0, 1.0], k=1)  # 3x3 Jordan cell
    phi = CPMapTuple([f], OperatorTuple([[N]]))
    out = phi.weighted_series((1,), np.eye(3))
    want = np.eye(3) + N @ N.conj().T + (N @ N) @ (N @ N).conj().T
    assert np.linalg.norm(out.value - want) <= 1e-13


def test_series_divergence_error_on_unitary():
    phi = scalar_instance(1.0, d=2)
    with pytest.raises(DivergenceError):
        phi.weighted_series((1,), np.eye(2))


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
# the triangular path: Stein solves in each row's triangular form
# ---------------------------------------------------------------------------

TRIANGULAR_M = ((1, 1), (2, 3), (3, 1))
EPS = np.finfo(np.float64).eps


def within_bound(out, ref):
    # the refined oracle is good to about eps ||ref||_F
    return np.linalg.norm(out.value - ref) <= out.tail_bound + 4 * EPS * np.linalg.norm(ref)


def series_only(phi, m, R):
    """weighted_series on a fresh tuple with the triangular path switched off."""
    fresh = CPMapTuple(phi.symbols, OperatorTuple(phi.ops.rows))
    fresh._triangular_series = lambda *args: None
    return fresh.weighted_series(m, R)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("d", [3, 8, 16])
def test_weighted_series_of_commuting_tuples_on_either_path(seed, d):
    # the triangular path is taken when its bound meets the series target,
    # always at radius 0.8, and then covers the distance to a refined dense
    # solve; otherwise the series runs
    rng = np.random.default_rng([seed, d])
    for radius in (0.8, 0.95, 0.99):
        inst = generate("commuting_polynomials", seed, dim=d, target_radius=radius)
        phi = CPMapTuple(inst.symbols, inst.ops)
        for m in TRIANGULAR_M:
            for R in (np.eye(d), random_psd(rng, d)):
                out = phi.weighted_series(m, R)
                assert out.certified
                assert out.tail_bound <= phi.tol.series_tol * max(1.0, np.linalg.norm(R))
                if out.terms == (0, 0):
                    assert within_bound(out, refined_defect_solve(phi, m, R))
                else:
                    assert radius > 0.8 and all(t > 0 for t in out.terms)


def test_triangular_path_falls_back_to_the_unchanged_series():
    # radius 0.95 with m = (2, 3): the bound misses the target for some
    # seeds (seed 2 at d = 8), and the series then runs as if the path did
    # not exist
    fell_back = 0
    for seed in range(6):
        inst = generate("commuting_polynomials", seed, dim=8, target_radius=0.95)
        phi = CPMapTuple(inst.symbols, inst.ops)
        out = phi.weighted_series((2, 3), np.eye(8))
        if out.terms != (0, 0):
            fell_back += 1
            ref = series_only(phi, (2, 3), np.eye(8))
            assert out.terms == ref.terms and out.tail_bound == ref.tail_bound
            assert out.value.tobytes() == ref.value.tobytes()
    assert fell_back > 0


def test_triangular_path_bounds_a_non_hermitian_input(rng):
    # the skew part of the residuals counts as well
    phi, inst = small_random_instance(5, target_radius=0.95)
    R = rng.standard_normal((phi.dim, phi.dim)) + 1j * rng.standard_normal((phi.dim, phi.dim))
    out = phi.weighted_series((2, 1), R)
    assert out.terms == (0, 0)
    assert within_bound(out, refined_defect_solve(phi, (2, 1), R))


def test_triangular_path_skips_a_tuple_without_a_wider_type(monkeypatch):
    # without long double residuals the bound would read rounding noise
    monkeypatch.setattr(cpmap, "_WIDE", None)
    phi, inst = small_random_instance(5, target_radius=0.8)
    out = phi.weighted_series((1, 1), np.eye(phi.dim))
    assert all(t > 0 for t in out.terms)


def test_row_forms_are_computed_once_per_row(monkeypatch):
    # the radius and the series read the same form of each row
    inst = generate("commuting_polynomials", 1, dim=5)
    phi = CPMapTuple(inst.symbols, OperatorTuple(inst.ops.rows))
    calls = []
    form = cpmap._triangular_form
    monkeypatch.setattr(cpmap, "_triangular_form", lambda mats: calls.append(len(mats)) or form(mats))
    for i in range(1, phi.k + 1):
        phi.joint_spectral_radius(i)
    assert phi.weighted_series(inst.m, np.eye(5)).terms == (0,) * phi.k
    assert calls == list(phi.ops.arities)
    for i, row in enumerate(phi.ops.rows, start=1):
        U, T = phi.ops.row_form(i)
        assert not (U.flags.writeable or T.flags.writeable)
        assert np.linalg.norm(U.conj().T @ U - np.eye(5)) <= 1e-12
        for A in row:
            assert np.linalg.norm(np.tril(U.conj().T @ A @ U, -1)) <= 1e-12 * np.linalg.norm(A)


def test_resolvents_are_built_once_per_factor(monkeypatch):
    # a second series reads each factor's solver, witness and bound as the
    # first built them: the witness solves are not run again
    inst = generate("commuting_polynomials", 2, dim=6)
    phi = CPMapTuple(inst.symbols, inst.ops)
    first = phi.weighted_series((1, 1), np.eye(6))
    records = dict(phi._resolvents)
    assert first.terms == (0, 0) and set(records) == {1, 2} and None not in records.values()
    calls = []
    stein_solve = cpmap._stein_solve
    monkeypatch.setattr(cpmap, "_stein_solve", lambda T, a, Y: calls.append(1) or stein_solve(T, a, Y))
    again = phi.weighted_series((1, 1), np.eye(6))
    # the second stage, then one correction solve per stage
    assert len(calls) == 3
    assert all(phi._resolvents[i] is G for i, G in records.items())
    assert again.value.tobytes() == first.value.tobytes()
    assert (repr(again.tail_bound), again.terms, again.radii, again.certified) == (
        repr(first.tail_bound), first.terms, first.radii, first.certified)
    assert not any(isinstance(v, CPMapTuple) for G in records.values() for v in vars(G).values())


def weyl_pair(d, r, s):
    """from_kraus([[r Z], [s X]]) for the clock Z and the shift X: ZX = omega XZ,
    so the letters do not commute, but the maps do."""
    Z = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    X = np.roll(np.eye(d), 1, axis=0)
    return CPMapTuple.from_kraus([[r * Z], [s * X]])


@pytest.mark.parametrize("d", [3, 8, 16])
@pytest.mark.parametrize("m", [(1, 1), (2, 3)])
def test_commuting_maps_of_noncommuting_letters_are_solved_row_by_row(d, m):
    phi = weyl_pair(d, 0.8, 0.9)
    with pytest.raises(CommutationError):
        OperatorTuple(phi.ops.rows)
    out = phi.weighted_series(m, np.eye(d))
    assert out.terms == (0, 0)
    assert within_bound(out, refined_defect_solve(phi, m, np.eye(d)))


def stein_solve_without_coupling(T, a, Y):
    """_stein_solve with the coupling to the later columns dropped."""
    d = Y.shape[0]
    X = np.zeros((d, d), dtype=np.complex128)
    for l in range(d):
        M = np.eye(d) - np.tensordot(a * T[:, l, l].conj(), T, 1)
        X[:, l] = np.linalg.solve(M, Y[:, l])
    return X


def test_a_stein_solve_without_coupling_is_caught(monkeypatch):
    # the certificate either refuses the wrong solve, and the series runs, or
    # its bound covers the wrong value
    monkeypatch.setattr(cpmap, "_stein_solve", stein_solve_without_coupling)
    fell_back = 0
    for seed in range(6):
        for d in (3, 8):
            inst = generate("commuting_polynomials", seed, dim=d, target_radius=0.95)
            phi = CPMapTuple(inst.symbols, inst.ops)
            for m in TRIANGULAR_M:
                out = phi.weighted_series(m, np.eye(d))
                if out.terms == (0, 0):
                    assert within_bound(out, refined_defect_solve(phi, m, np.eye(d)))
                else:
                    fell_back += 1
    assert fell_back > 0


@pytest.mark.parametrize("seed", range(3))
def test_weighted_series_of_a_noncommuting_row_sums_the_series(seed):
    inst = generate("polyball_random", seed, dim=5, target_radius=0.9)
    phi = CPMapTuple(inst.symbols, inst.ops)
    assert inst.ops.row_form(1) is None
    out = phi.weighted_series(inst.m, np.eye(5))
    assert all(t > 0 for t in out.terms)


@pytest.mark.parametrize("seed", range(6))
def test_weighted_series_of_a_nilpotent_tuple_sums_the_series(seed):
    # every row has a form, so the nilpotency rule is what sends the tuple to
    # its finite series, which is exact
    inst = generate("nilpotent", seed, dim=5)
    phi = CPMapTuple(inst.symbols, inst.ops)
    assert all(inst.ops.row_form(i) is not None for i in range(1, inst.ops.k + 1))
    out = phi.weighted_series(inst.m, np.eye(5))
    assert out.tail_bound == 0.0 and all(t > 0 for t in out.terms)


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
    # d >= 12: commuting rows take their triangular form; polyball_random's
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
    # and a letter that does not commute with it has no triangular form
    # either; both letters are upper triangular, so the dense value is
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
    # the plain block is its own triangular form: exactly 0.25, no matricization
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


def count_eigvals(monkeypatch):
    """The matrices later np.linalg.eigvals calls receive."""
    calls = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda M: calls.append(M) or eigvals(M))
    return calls


@pytest.mark.parametrize("path, family, d", [
    ("_triangular_radius", "commuting_polynomials", 5),
    ("_arnoldi_radius", "polyball_random", 12),
])
def test_radius_above_the_gelfand_bound_is_refused(path, family, d, monkeypatch):
    # each candidate is held to the orbit's Gelfand bound in one place; a
    # refused one leaves the dense eigensolve of the real form
    phi = radius_instance(family, 0, d)
    want = [dense_radius(phi, i) for i in range(1, phi.k + 1)]
    monkeypatch.setattr(phi, path, lambda i: 2.0 * phi._orbit(i).gelfand(phi.dim))
    calls = count_eigvals(monkeypatch)
    for i in range(1, phi.k + 1):
        assert phi.joint_spectral_radius(i, crosscheck=True) == pytest.approx(
            want[i - 1], rel=1e-10
        )
    assert len(calls) == phi.k
    assert all(np.isrealobj(M) and M.shape == (d * d, d * d) for M in calls)


@pytest.mark.parametrize("d", [3, 5, 8])
def test_noncommuting_row_takes_one_real_eigensolve(d, monkeypatch):
    # below d = 12 a row without a triangular form gets one dense
    # eigvals, of the real form on the Hermitian matrices
    phi = radius_instance("polyball_random", 0, d)
    want = dense_radius(phi, 1)
    calls = count_eigvals(monkeypatch)
    assert phi.joint_spectral_radius(1, crosscheck=True) == pytest.approx(want, rel=1e-10)
    assert len(calls) == 1
    assert np.isrealobj(calls[0]) and calls[0].shape == (d * d, d * d)


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


def test_orbit_read_until_it_underflows_is_not_nilpotent():
    # read to s = 3000 the orbit of a radius-0.5 tuple rounds to 0.0; only a
    # zero among eta_0..eta_d is nilpotency
    inst = generate("commuting_polynomials", 0, dim=3, target_radius=0.5)
    phi, fresh = CPMapTuple(inst.symbols, inst.ops), CPMapTuple(inst.symbols, inst.ops)
    for i in range(1, phi.k + 1):
        orbit = phi._orbit(i)
        orbit.norm(3000)
        assert orbit.eta[-1] == 0.0
        assert orbit.nilpotency_index() is None
        assert phi.joint_spectral_radius(i, crosscheck=False) == fresh.joint_spectral_radius(
            i, crosscheck=False
        )


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


def orbit_state(orbit):
    """Everything an orbit records, X as bytes, for bitwise comparison."""
    return orbit.eta, orbit.floor, orbit.envelopes, orbit.theta, orbit.growth, orbit.X.tobytes()


def counted_orbit(symbols, ops, i, monkeypatch):
    """Factor i's orbit on a fresh tuple, and the list its apply calls append to."""
    phi = CPMapTuple(symbols, ops)
    calls = []
    apply = phi.apply
    monkeypatch.setattr(phi, "apply", lambda *a, **kw: calls.append(a[0]) or apply(*a, **kw))
    return phi._orbit(i), calls


def read_step_by_step(orbit, s):
    """The orbit extended one step per read, each iterate with its own SVD."""
    for t in range(1, s + 1):
        orbit.norm(t)
    return orbit


STRETCH_CASES = [
    (family, seed, d)
    for family in ("commuting_polynomials", "conjugated_unitaries", "nilpotent", "polyball_random")
    for seed, d in ((0, 3), (1, 8), (2, 16))
]


@pytest.mark.parametrize("family,seed,d", STRETCH_CASES)
@pytest.mark.parametrize("stretch", [None, 5])
def test_stretched_orbit_read_equals_the_step_by_step_orbit(family, seed, d, stretch, monkeypatch):
    # one read of 100 steps takes batched SVDs, of at most `stretch` iterates
    # when set; every record must equal the orbit read a step at a time
    if stretch is not None:
        monkeypatch.setattr(cpmap, "_STRETCH_BYTES", stretch * 16 * d * d + 7)
    inst = generate(family, seed, dim=d)
    svd, stacks = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: stacks.append(np.ndim(a) > 2) or svd(a, **kw))
    for i in range(1, inst.k + 1):
        stretched, calls = counted_orbit(inst.symbols, inst.ops, i, monkeypatch)
        stretched.norm(100)
        assert any(stacks)
        stacks.clear()
        want, want_calls = counted_orbit(inst.symbols, inst.ops, i, monkeypatch)
        assert orbit_state(stretched) == orbit_state(read_step_by_step(want, 100))
        assert not any(stacks)
        assert len(calls) == len(want_calls) == len(want.eta) - 1
        if family == "nilpotent":
            # the stretch stops at the first zero iterate and applies nothing past it
            assert want.eta[-1] == 0.0 and len(want.eta) <= d + 1


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_stretched_orbit_read_stops_at_the_same_overflow(monkeypatch):
    # test_radius_survives_an_overflowing_orbit's matrix: inf at the same index
    A = 1e20 * np.random.default_rng(0).standard_normal((12, 12))
    symbols, ops = [polyball_symbol(1)], OperatorTuple([[A]])
    stretched, calls = counted_orbit(symbols, ops, 1, monkeypatch)
    assert stretched.norm(64) == float("inf")
    want, want_calls = counted_orbit(symbols, ops, 1, monkeypatch)
    assert orbit_state(stretched) == orbit_state(read_step_by_step(want, 64))
    assert want.eta[-1] == float("inf") and len(want.eta) < 64
    assert len(calls) == len(want_calls) == len(want.eta) - 1


@pytest.mark.parametrize("reads", [(2, 3, 40, 41, 90, 5, 97), (60, 2, 61, 62, 97), (97, 4, 50)])
def test_orbit_reads_interleaved_short_and_long_equal_the_step_by_step_orbit(reads, monkeypatch):
    inst = generate("commuting_polynomials", 3, dim=8, target_radius=0.99)
    for i in range(1, inst.k + 1):
        orbit, _ = counted_orbit(inst.symbols, inst.ops, i, monkeypatch)
        for s in reads:
            orbit.norm(s)
        want, _ = counted_orbit(inst.symbols, inst.ops, i, monkeypatch)
        assert orbit_state(orbit) == orbit_state(read_step_by_step(want, max(reads)))


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



# ---------------------------------------------------------------------------
# the term list: every evaluation of Phi_i reads each factor's words once
# ---------------------------------------------------------------------------

TERM_CASES = [
    (family, seed, d)
    for family in ("commuting_polynomials", "polyball_random", "random_symbol")
    for seed in (0, 1)
    for d in (3, 8)
]


def term_case(family, seed, d):
    """A tuple of a gen family, or ("random_symbol") two factors of commuting
    letters p(M) under degree-3 random symbols, the first with one tail
    coefficient set to zero."""
    if family != "random_symbol":
        inst = generate(family, seed, dim=d)
        return CPMapTuple(inst.symbols, inst.ops)
    rng = np.random.default_rng(seed)
    M = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2 * d)
    f1, f2 = random_symbol(seed, 2, degree=3), random_symbol(seed + 1, 1, degree=3)
    zeroed = next(w for w in f1.coeffs if len(w) == 2)
    f1 = PositiveSymbol(2, {**f1.coeffs, zeroed: 0.0}, 3)
    rows = [[np.eye(d) + c * M + c * c * (M @ M) for c in rng.uniform(0.3, 1.0, size=n)] for n in (2, 1)]
    ops, _ = _scale_rows_to_radius((f1, f2), rows, 0.8)
    return CPMapTuple((f1, f2), OperatorTuple(ops.rows))


@pytest.mark.parametrize("family,seed,d", TERM_CASES)
def test_term_list_evaluations_match_the_word_loop(family, seed, d):
    phi = term_case(family, seed, d)
    rng = np.random.default_rng([seed, d])
    X = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    H = hermitize(X)
    for i in range(1, phi.k + 1):
        for Y in (X, H):
            assert phi.apply(i, Y).tobytes() == loop_apply(phi, i, Y).tobytes()
        assert phi.matricize(i).tobytes() == loop_matricize(phi, i).tobytes()
        if cpmap._WIDE is not None:
            # equal values: a long double's tobytes includes its padding bytes
            assert np.array_equal(phi._wide_residual(i, X, H), loop_wide_residual(phi, i, X, H))
        form = phi.ops.row_form(i)
        rho = phi._triangular_radius(i)
        if form is None:
            assert rho is None
        else:
            lam = np.diagonal(form[1], axis1=1, axis2=2)
            assert repr(rho) == repr(loop_triangular_radius(phi, i, lam))
    assert any(a == 0 for f in phi.symbols for a in f.coeffs.values()) == (family == "random_symbol")


@pytest.mark.parametrize("family,seed,d", TERM_CASES)
@pytest.mark.parametrize("wide", [True, False])
def test_weighted_series_matches_the_word_loop(family, seed, d, wide, monkeypatch):
    # without a wider type every tuple sums the series; with one, the
    # commuting tuples are solved in their rows' triangular forms
    if not wide:
        monkeypatch.setattr(cpmap, "_WIDE", None)
    phi = term_case(family, seed, d)
    m = (2, 1)[:phi.k]
    R = random_psd(np.random.default_rng([seed, d]), d)
    weights = []
    stein_solve = cpmap._stein_solve
    monkeypatch.setattr(cpmap, "_stein_solve", lambda T, a, Y: weights.append(list(a)) or stein_solve(T, a, Y))
    out = phi.weighted_series(m, R)
    # the Stein solves take the terms in the symbol's order too
    assert all(w in [[a for _, a, _ in word_terms(phi, i)] for i in (1, 2)[:phi.k]] for w in weights)
    ref_phi = CPMapTuple(phi.symbols, phi.ops)
    monkeypatch.setattr(CPMapTuple, "_terms", word_terms)
    monkeypatch.setattr(CPMapTuple, "apply", loop_apply)
    monkeypatch.setattr(CPMapTuple, "matricize", loop_matricize)
    monkeypatch.setattr(CPMapTuple, "_wide_residual", loop_wide_residual)
    ref = ref_phi.weighted_series(m, R)
    assert (out.terms, repr(out.tail_bound), out.radii) == (ref.terms, repr(ref.tail_bound), ref.radii)
    assert out.value.tobytes() == ref.value.tobytes()
    solved = wide and cpmap._WIDE is not None and family != "polyball_random"
    assert out.terms == (0,) * phi.k if solved else all(t > 0 for t in out.terms)


def test_apply_and_a_summed_series_make_no_word_product_call(monkeypatch):
    inst = generate("polyball_random", 3, dim=5)
    phi = CPMapTuple(inst.symbols, inst.ops)
    first = phi.apply(1, np.eye(5))
    monkeypatch.setattr(OperatorTuple, "word_product", lambda *args: pytest.fail("word_product called"))
    assert phi.apply(1, np.eye(5)).tobytes() == first.tobytes()
    out = phi.weighted_series(inst.m, np.eye(5))
    assert all(t > 0 for t in out.terms)


def test_term_list_is_built_once_per_factor(monkeypatch):
    phi = term_case("random_symbol", 0, 5)
    calls = []
    word_product = OperatorTuple.word_product
    monkeypatch.setattr(OperatorTuple, "word_product",
                        lambda self, i, w: calls.append((i, tuple(w))) or word_product(self, i, w))
    for _ in range(2):
        for i in (1, 2):
            phi.apply(i, np.eye(5))
            phi.matricize(i)
            phi.joint_spectral_radius(i)
        phi.weighted_series((2, 1), np.eye(5))
    assert calls == [(i, tuple(w)) for i, f in enumerate(phi.symbols, start=1)
                     for w, a in f.coeffs.items() if a != 0]
    assert phi._terms(1) is phi._terms(1)


def test_matricize_above_the_default_cap_refuses_before_allocating():
    # d = 81: the matrix would take 6561^2 * 16 B = 689 MB
    d = 81
    phi = CPMapTuple([polyball_symbol(1)], OperatorTuple([[np.diag(np.linspace(-0.7, 0.3, d))]]))
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError, match="6561 x 6561 matrix; cap is 6400"):
            phi.matricize(1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert not phi._matricized


def test_a_vec_cap_below_d_squared_gives_the_gelfand_bound():
    # a row that does not commute, below d = 12: only the dense step is left,
    # and the cap moves it to the orbit's Gelfand bound
    inst = generate("polyball_random", 3, dim=5)
    phi = CPMapTuple(inst.symbols, OperatorTuple(inst.ops.rows, tol=Tolerances(max_vec_dim=24)))
    r = phi.joint_spectral_radius(1, crosscheck=False)
    assert r == float(np.sqrt(phi._orbit(1).gelfand(64)))
    assert not phi._matricized
    with pytest.raises(ResourceCapError, match="cap is 24"):
        phi.matricize(1)
    assert CPMapTuple(inst.symbols, inst.ops).joint_spectral_radius(1, crosscheck=False) <= r * (1 + 1e-12)
