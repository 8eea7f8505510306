"""Similarity solvers: embeddings, conjugations, defect equations, radii."""

import re
from math import prod

import numpy as np
import pytest

import polydom.berezin
import polydom.similarity
from polydom.berezin import constrained_kernel, intertwine_check_constrained, kernel
from polydom.config import DivergenceError, Tolerances
from polydom.cone import is_pure_element, membership
from polydom.cpmap import CPMapTuple, OperatorTuple, hermitize
from polydom.fock import build_model, variety_subspace
from polydom.generate import FAMILIES, generate, strict_contractions
from polydom.similarity import (
    cpmap_similarity,
    model_embed,
    rota_conjugate,
    similarity_to_variety,
    solve_defect_equation,
    spectral_radius_equivalences,
    sznagy_solve,
)
from polydom.words import NCPolynomial, PositiveSymbol, commutator_polynomial, polyball_symbol

from conftest import random_psd
from oracles import dense_shifts, refined_defect_solve


def scalar_tuple(c, d=3):
    ops = OperatorTuple([[c * np.eye(d, dtype=np.complex128)]])
    return (polyball_symbol(1),), (1,), ops


def zero_tuple(d=3, k=2):
    rows = [[np.zeros((d, d), dtype=np.complex128)] for _ in range(k)]
    ops = OperatorTuple(rows)
    return tuple(polyball_symbol(1) for _ in range(k)), tuple(1 for _ in range(k)), ops


def coisometry_pair(seed, d=4):
    # [K1 K2] is a d x 2d co-isometry: K1 K1* + K2 K2* = I
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((2 * d, 2 * d)) + 1j * rng.standard_normal((2 * d, 2 * d))
    U, _ = np.linalg.qr(G)
    V = U[:d, :]
    return V[:, :d], V[:, d:]


def mild_pd(seed, d, spread=3.0):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    Q, _ = np.linalg.qr(G)
    lam = np.linspace(1.0, spread, d)
    return (Q * lam) @ Q.conj().T


# ---------------------------------------------------------------------------
# model embedding
# ---------------------------------------------------------------------------

def test_model_embed_zero_tuple_identity_R():
    symbols, m, ops = zero_tuple()
    cert = model_embed(symbols, m, ops, np.eye(3), degree_cap=4)
    assert cert.status == "PASS"
    assert abs(cert.cond - 1.0) <= 1e-10
    assert abs(cert.witnesses["a"] - 1.0) <= 1e-12
    assert abs(cert.witnesses["b"] - 1.0) <= 1e-12


def test_model_embed_pure_variety_is_isometric():
    inst = generate("nilpotent", 4, dim=5, ensure_cone=True)
    phi = CPMapTuple(inst.symbols, inst.ops)
    R = phi.defect(inst.m, np.eye(5))
    polys = (commutator_polynomial(1, 1, 2),)
    cert = model_embed(inst.symbols, inst.m, inst.ops, R, Q_polys=polys, degree_cap=6)
    assert cert.status == "PASS"
    assert abs(cert.cond - 1.0) <= 1e-8
    # Q = Y*Y is the identity here
    assert np.linalg.norm(cert.Q - np.eye(5), 2) <= 1e-8


@pytest.mark.parametrize("seed", range(3))
def test_model_embed_nilpotent_identity_R(seed):
    inst = generate("nilpotent", seed, dim=4)
    cert = model_embed(inst.symbols, inst.m, inst.ops, np.eye(4), degree_cap=6)
    assert cert.status == "PASS"
    for name, r in cert.residuals.items():
        if name.startswith("intertwine"):
            assert r <= 1e-10
    assert cert.cond <= cert.claimed_bound * (1.0 + 1e-8)


def test_model_embed_passes_where_the_residual_is_sqrt_of_the_tail():
    # polydom gen --family nilpotent --seed 2100251 --dim 5: at D = 3 the
    # 2,1 residual (0.051) is near the square root of the Gram gap (0.0026)
    inst = generate("nilpotent", 2100251, dim=5)
    cert = model_embed(inst.symbols, inst.m, inst.ops, np.eye(5),
                       Q_polys=(commutator_polynomial(1, 1, 2),), degree_cap=3)
    assert cert.status == "PASS"
    assert cert.residuals["intertwine_2_1"] > 0.01


@pytest.mark.parametrize("seed", [0, 1, 2, 2100251])
def test_intertwining_residual_within_sqrt_tail(seed):
    # K A* - (S* tensor I) K = P S* (I - P) K_inf, and (I - P) K_inf has norm
    # at most sqrt(tail_bound)
    for d in (4, 5):
        inst = generate("nilpotent", seed, dim=d)
        phi = CPMapTuple(inst.symbols, inst.ops)
        for D in (2, 3):
            model = build_model(inst.symbols, inst.m, D)[1]
            sub = variety_subspace(model, (commutator_polynomial(1, 1, 2),))
            ck = constrained_kernel(kernel(phi, inst.m, np.eye(d), D, model), model, sub)
            tail = ck.base.tail_bound
            assert ck.base.certified
            for (i, j), r in intertwine_check_constrained(ck, inst.ops).items():
                S_norm = np.linalg.norm(dense_shifts(ck.compressed)[(i, j)], 2)
                assert r <= S_norm * np.sqrt(tail) + ck.range_residual + 1e-12


def test_model_embed_rejects_unbounded_below_series():
    symbols, m, ops = zero_tuple()
    R = np.diag([1.0, 0.0, 0.0]).astype(np.complex128)
    with pytest.raises(ValueError):
        model_embed(symbols, m, ops, R, degree_cap=4)


@pytest.mark.parametrize("family,seed,polys", [
    ("commuting_polynomials", 0, ()),
    ("commuting_polynomials", 1, (commutator_polynomial(1, 1, 2),)),
    ("nilpotent", 0, (commutator_polynomial(1, 1, 2),)),
    ("polyball_random", 2, ()),
])
def test_model_embed_Y_is_the_d_by_d_factor_of_Q(family, seed, polys):
    inst = generate(family, seed, dim=4)
    cert = model_embed(inst.symbols, inst.m, inst.ops, np.eye(4), polys, degree_cap=5)
    assert cert.Y.shape == (4, 4)
    assert np.allclose(np.tril(cert.Y, -1), 0.0)
    assert np.all(np.diagonal(cert.Y).real > 0) and not np.diagonal(cert.Y).imag.any()
    Q_norm = np.linalg.norm(cert.Q, 2)
    assert np.linalg.norm(cert.Y.conj().T @ cert.Y - cert.Q, 2) <= 1e-12 * Q_norm
    phi = CPMapTuple.from_kraus([list(row) for row in inst.ops.rows])
    if not polys and family != "polyball_random":
        pure = cpmap_similarity(phi, inst.m, "pure_cone", degree_cap=5)
        assert pure.Y.shape == (4, 4)
        assert np.linalg.norm(pure.Y.conj().T @ pure.Y - pure.Q, 2) <= 1e-12 * Q_norm


# ---------------------------------------------------------------------------
# strict conjugation
# ---------------------------------------------------------------------------

def test_rota_scalar_closed_form():
    c = 0.6
    symbols, m, ops = scalar_tuple(c)
    cert, T = rota_conjugate(symbols, m, ops)
    assert cert.status == "PASS"
    # P is a multiple of the identity, so T = A and the bound is geometric
    assert np.linalg.norm(cert.Q - np.eye(3) / (1 - c * c), 2) <= 1e-9
    assert np.linalg.norm(T.rows[0][0] - ops.rows[0][0], 2) <= 1e-12
    assert cert.witnesses["T_defect_min_eig"] > 0.0
    assert cert.cond <= cert.claimed_bound * (1.0 + 1e-8)


def test_rota_commuting_pair_product_bound():
    C = strict_contractions(5, k=2, dim=4, norm_cap=0.7)
    ops = OperatorTuple([[C[0]], [C[1]]])
    symbols = (polyball_symbol(1), polyball_symbol(1))
    cert, T = rota_conjugate(symbols, (1, 1), ops)
    assert cert.status == "PASS"
    # product of geometric sums of squared norms dominates the claim
    r2 = 0.7 ** 2
    assert cert.claimed_bound <= (1.0 / (1.0 - r2)) ** 2 + 1e-9
    assert cert.cond <= cert.claimed_bound * (1.0 + 1e-8)
    phi_T = CPMapTuple(symbols, T)
    rep = membership(phi_T, (1, 1), np.eye(4), with_purity=False)
    assert rep.member


@pytest.mark.parametrize("seed", range(3))
def test_rota_polynomial_instance_strict_and_variety(seed):
    inst = generate("commuting_polynomials", seed, target_radius=0.85)
    polys = (commutator_polynomial(1, 1, 2),)
    cert, T = rota_conjugate(inst.symbols, inst.m, inst.ops, Q_polys=polys)
    assert cert.status == "PASS"
    assert cert.witnesses["T_defect_min_eig"] > 0.0
    assert cert.cond <= cert.claimed_bound * (1.0 + 1e-8)


def test_rota_transitivity_under_conjugation():
    inst = generate("commuting_polynomials", 11, target_radius=0.8)
    xi = mild_pd(11, inst.ops.dim, spread=2.0)
    xi_inv = np.linalg.inv(xi)
    rows = [[xi @ M @ xi_inv for M in row] for row in inst.ops.rows]
    conj = OperatorTuple(rows)
    for ops in (inst.ops, conj):
        cert, _ = rota_conjugate(inst.symbols, inst.m, ops)
        assert cert.status == "PASS"


@pytest.mark.parametrize("family,seed", [
    pytest.param("commuting_polynomials", 2, id="2"),
    pytest.param("commuting_polynomials", 4, id="4"),
    pytest.param("polyball_random", 2, id="polyball_random-2"),
])
def test_rota_certified_at_radius_099(family, seed):
    # commuting rows take their certified resolvents; the polyball_random row
    # has no triangular form, so its norm sum must finish near radius one
    inst = generate(family, seed, dim=8, target_radius=0.99)
    phi = CPMapTuple(inst.symbols, inst.ops)
    cert, _ = polydom.similarity._rota(phi, inst.m, (), 1e-8)
    assert cert.status == "PASS"
    assert cert.cond <= cert.claimed_bound * (1.0 + 1e-8)
    has_form = family == "commuting_polynomials"
    assert all((phi._resolvents.get(i) is not None) == has_form for i in range(1, phi.k + 1))


def norm_sum_product(inst, m):
    """prod_i norm_sum_i(m_i) on a fresh tuple: the product bound without resolvents."""
    phi = CPMapTuple(inst.symbols, inst.ops)
    return prod(phi._orbit(i).norm_sum(mi) for i, mi in enumerate(m, start=1))


ROTA_BOUND_CASES = [
    (family, seed, d, radius, m)
    for family in ("commuting_polynomials", "polyball_random", "nilpotent")
    for seed in range(4)
    for d in (3, 5, 8, 12)
    for radius in ((0.5, 0.9, 0.99) if family != "nilpotent" else (0.0,))
    for m in ((1, 1), (2, 3), (3, 1))
]


@pytest.mark.parametrize("family,seed,d,radius,m", ROTA_BOUND_CASES,
                         ids=lambda v: ",".join(map(str, v)) if isinstance(v, tuple) else None)
def test_rota_product_bound_from_the_resolvents(family, seed, d, radius, m):
    # polyball_random has one factor, and takes m_1 only; nilpotent tuples
    # have no radius to set
    if family == "polyball_random":
        inst = generate(family, seed, dim=d, target_radius=radius, m=m[0])
    elif family == "nilpotent":
        inst = generate(family, seed, dim=d, m=m)
    else:
        inst = generate(family, seed, dim=d, target_radius=radius, m=m)
    phi = CPMapTuple(inst.symbols, inst.ops)
    try:
        cert, _ = polydom.similarity._rota(phi, inst.m, (), 1e-8)
    except ValueError as e:
        # P = Delta^{-m}(I) >= I can still fail the relative positivity test
        # lambda_min > tol_pd ||P||_2 when ||P||_2 is large; the bound is
        # checked against its oracles below
        low = re.fullmatch(r"the series value P is not positive definite \(min eigenvalue (\S+)\)", str(e))
        assert low is not None and float(low.group(1)) >= 1.0
        cert = None
    bound = prod(phi._inverse_norm_bound(i, mi) for i, mi in enumerate(inst.m, start=1))
    norm_sums = norm_sum_product(inst, inst.m)
    assert bound <= norm_sums
    if cert is not None:
        assert cert.claimed_bound == cert.witnesses["product_bound"] == bound
        assert cert.cond <= bound
    if family != "commuting_polynomials":
        # no row form, or a nilpotent factor: the norm sums, bit for bit
        assert bound == norm_sums
    if family == "nilpotent":
        assert phi._resolvents == {}
    for i, mi in enumerate(inst.m, start=1):
        if phi._resolvents.get(i) is not None:
            e_i = tuple(mi if j == i else 0 for j in range(1, phi.k + 1))
            exact = np.linalg.norm(refined_defect_solve(phi, e_i, np.eye(d)), 2)
            assert phi._inverse_norm_bound(i, mi) >= exact


def test_rota_rejects_radius_one():
    symbols, m, ops = scalar_tuple(1.0)
    with pytest.raises(DivergenceError):
        rota_conjugate(symbols, m, ops)


# ---------------------------------------------------------------------------
# defect equation
# ---------------------------------------------------------------------------

def test_defect_equation_scalar():
    symbols, m, ops = scalar_tuple(0.5)
    sol = solve_defect_equation(symbols, m, ops, np.eye(3))
    assert sol.ok and sol.invertible
    assert np.linalg.norm(sol.X - np.eye(3) / 0.75, 2) <= 1e-10


def test_defect_equation_round_trip(rng):
    inst = generate("commuting_polynomials", 21, target_radius=0.7)
    phi = CPMapTuple(inst.symbols, inst.ops)
    R0 = random_psd(rng, 4) + 0.5 * np.eye(4)
    X0 = hermitize(phi.weighted_series(inst.m, R0, tol=1e-13).value)
    sol = solve_defect_equation(inst.symbols, inst.m, inst.ops, phi.defect(inst.m, X0))
    assert sol.ok
    assert np.linalg.norm(sol.X - X0, 2) <= 1e-8 * max(1.0, np.linalg.norm(X0, 2))


@pytest.mark.parametrize("seed", range(10))
def test_defect_equation_oracle_gap(seed, rng):
    inst = generate("commuting_polynomials", 100 + seed, target_radius=0.8)
    R = random_psd(rng, 4) + 0.3 * np.eye(4)
    sol = solve_defect_equation(inst.symbols, inst.m, inst.ops, R)
    assert sol.ok
    assert sol.oracle_rel_gap <= 1e-8
    assert sol.defect_residual <= 1e-8 * max(1.0, np.linalg.norm(R, 2))
    assert sol.membership_report.member


@pytest.mark.skipif(polydom.cpmap._WIDE is None, reason="long double is no wider than double")
def test_defect_equation_oracle_is_refined_only_when_its_gap_fails(monkeypatch):
    # commuting seed 3, d = 8, radius 0.99, m = (2, 3): the dense solve alone
    # is off by about cond(Delta^m) eps, a gap of 1.1e-7 against a gate of
    # 1.3e-8; refined against a long double residual it agrees with X
    m, R = (2, 3), np.eye(8)
    sols = {}
    for wide in (True, False):
        if not wide:
            monkeypatch.setattr(polydom.similarity, "_WIDE", None)
        for radius in (0.8, 0.99):
            inst = generate("commuting_polynomials", 3, dim=8, target_radius=radius)
            sols[wide, radius] = solve_defect_equation(inst.symbols, m, inst.ops, R)
    sol = sols[True, 0.99]
    assert sol.oracle_rel_gap <= 1e-12
    X_ref = refined_defect_solve(CPMapTuple(inst.symbols, inst.ops), m, R)
    assert np.linalg.norm(sol.X - X_ref) <= 1e-12 * np.linalg.norm(X_ref)
    assert sols[False, 0.99].oracle_rel_gap > 1e-8 + 10.0 * sol.series.tail_bound
    # a gap that passes unrefined is left as it is
    assert sols[True, 0.8].oracle_rel_gap <= 1e-8
    assert repr(sols[True, 0.8].oracle_rel_gap) == repr(sols[False, 0.8].oracle_rel_gap)


def test_defect_equation_rejects_singular_R():
    symbols, m, ops = scalar_tuple(0.5)
    with pytest.raises(ValueError):
        solve_defect_equation(symbols, m, ops, np.diag([1.0, 1.0, 0.0]))


def test_defect_equation_rejects_radius_one():
    symbols, m, ops = scalar_tuple(1.0)
    with pytest.raises(DivergenceError):
        solve_defect_equation(symbols, m, ops, np.eye(3))


# ---------------------------------------------------------------------------
# Sz.-Nagy fixed point
# ---------------------------------------------------------------------------

def test_sznagy_commuting_unitaries_immediate():
    rng = np.random.default_rng(31)
    G = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    W, _ = np.linalg.qr(G)
    rows = []
    for _ in range(2):
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=4))
        rows.append([(W * phases) @ W.conj().T])
    ops = OperatorTuple(rows)
    symbols = (polyball_symbol(1), polyball_symbol(1))
    cert, T = sznagy_solve(symbols, ops)
    assert cert.status == "PASS"
    assert np.linalg.norm(cert.Q - np.eye(4), 2) <= 1e-7
    for i, row in enumerate(T.rows):
        M = row[0]
        assert np.linalg.norm(M.conj().T @ M - np.eye(4), 2) <= 1e-7


@pytest.mark.parametrize("seed", range(3))
def test_sznagy_conjugated_unitaries(seed):
    inst = generate("conjugated_unitaries", seed, k=2, dim=5)
    cert, T = sznagy_solve(inst.symbols, inst.ops)
    assert cert.status == "PASS"
    for i in range(1, 3):
        assert cert.residuals[f"fixed_point_{i}"] <= 1e-7
    for row in T.rows:
        M = row[0]
        assert np.linalg.norm(M.conj().T @ M - np.eye(5), 2) <= 1e-7
    # Q must lie inside the common fixed space of the maps, to rounding
    for i in range(1, 3):
        assert cert.residuals[f"fixed_point_{i}"] <= 1e-12


def test_sznagy_coisometry_row():
    K1, K2 = coisometry_pair(7)
    ops = OperatorTuple([[K1, K2]])
    cert, T = sznagy_solve([polyball_symbol(2)], ops)
    assert cert.status == "PASS"
    assert np.linalg.norm(cert.Q - np.eye(4), 2) <= 1e-7
    assert cert.residuals["fixed_point_1"] <= 1e-12
    T1, T2 = T.rows[0]
    assert np.linalg.norm(T1 @ T1.conj().T + T2 @ T2.conj().T - np.eye(4), 2) <= 1e-7


def test_sznagy_conjugated_coisometry_recovers_witness():
    K1, K2 = coisometry_pair(8)
    xi = mild_pd(8, 4, spread=2.5)
    xi_inv = np.linalg.inv(xi)
    ops = OperatorTuple([[xi @ K1 @ xi_inv, xi @ K2 @ xi_inv]])
    cert, T = sznagy_solve([polyball_symbol(2)], ops)
    assert cert.status == "PASS"
    W = xi @ xi.conj().T
    W = W / np.linalg.norm(W, 2)
    assert np.linalg.norm(cert.Q - W, 2) <= 1e-6
    T1, T2 = T.rows[0]
    assert np.linalg.norm(T1 @ T1.conj().T + T2 @ T2.conj().T - np.eye(4), 2) <= 1e-7


@pytest.mark.parametrize("seed", range(12))
def test_sznagy_q_is_the_closed_form_ergodic_projection(seed):
    # in the coordinates Y = W^* xi^{-1} X xi^{-*} W each map multiplies Y_ab
    # by p_a conj(p_b), so the Cesaro means of I keep only the diagonal of
    # W^* xi^{-1} xi^{-*} W
    rng = np.random.default_rng(4400 + seed)
    d = 3 + seed % 3
    G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    W, _ = np.linalg.qr(G)
    xi = np.eye(d) + 0.3 * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    xi_inv = np.linalg.inv(xi)
    rows = []
    for _ in range(2):
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=d))
        rows.append([xi @ (W * phases) @ W.conj().T @ xi_inv])
    cert, T = sznagy_solve((polyball_symbol(1), polyball_symbol(1)), OperatorTuple(rows))
    assert cert.status == "PASS"
    C = W.conj().T @ xi_inv @ xi_inv.conj().T @ W
    want = xi @ (W * np.real(np.diag(C))) @ W.conj().T @ xi.conj().T
    want = want / np.linalg.norm(want, 2)
    assert np.linalg.norm(cert.Q - want, 2) <= 1e-9


def test_sznagy_plateau_seed_gives_positive_q():
    # iterated Cesaro means stall at the rounding floor on this seed and can
    # leave an indefinite Q (min eigenvalue -0.032)
    inst = generate("conjugated_unitaries", 3200033, dim=3)
    cert, T = sznagy_solve(inst.symbols, inst.ops)
    assert cert.status == "PASS"
    assert cert.witnesses["Q_min_eig"] > 0
    assert T is not None


def test_sznagy_jordan_block_is_not_semisimple():
    J = np.array([[1.0, 1.0], [0.0, 1.0]])
    cert, T = sznagy_solve([polyball_symbol(1)], OperatorTuple([[J]]))
    assert cert.status == "INCONCLUSIVE"
    assert T is None
    assert any("not semisimple" in n for n in cert.notes)


def assert_refuted(cert, T, reason):
    assert cert.status == "FAILED" and T is None
    assert cert.residuals == {"positive_fixed_point": 1.0}
    assert cert.tolerances == {"positive_fixed_point": 0.0}
    assert len(cert.notes) == 1
    assert reason in cert.notes[0] and "no similarity" in cert.notes[0]


def test_sznagy_no_similarity_for_strict_contractions(monkeypatch):
    # the decaying identity orbits refute it before any null space is formed
    calls = []
    real = polydom.similarity._ergodic_fixed_point
    monkeypatch.setattr(polydom.similarity, "_ergodic_fixed_point",
                        lambda phi: calls.append(phi) or real(phi))
    C = strict_contractions(9, k=2, dim=4, norm_cap=0.6)
    ops = OperatorTuple([[C[0]], [C[1]]])
    cert, T = sznagy_solve([polyball_symbol(1), polyball_symbol(1)], ops)
    assert_refuted(cert, T, "decays")
    assert calls == []


@pytest.mark.parametrize("seed", (0, 1))
def test_sznagy_refutes_a_decaying_orbit(seed):
    inst = generate("polyball_random", seed, dim=3)
    assert_refuted(*sznagy_solve(inst.symbols, inst.ops), "decays")


def test_sznagy_refutes_a_singular_ergodic_projection():
    # Phi^s(I) = diag(1, 0.25^s): the fixed space is spanned by E_11
    ops = OperatorTuple([[np.diag([1.0, 0.5])]])
    cert, T = sznagy_solve([polyball_symbol(1)], ops)
    assert_refuted(cert, T, "not positive definite")
    assert cert.witnesses["fixed_space_dim"] == 1.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("path", ("eigenbasis", "dense"))
def test_sznagy_refutes_a_zero_ergodic_projection(path, monkeypatch):
    # radius 1.0201, but lambda_min(Phi^t(I))^{1/t} < 1 keeps the radius
    # enclosure below one; the fixed space is spanned by E_12 and E_21, and
    # I projects to 0, which no positive definite fixed point allows
    calls = record_dense_fixed_point(monkeypatch)
    if path == "dense":
        monkeypatch.setattr(polydom.similarity, "_ergodic_fixed_point",
                            polydom.similarity._dense_fixed_point)
    ops = OperatorTuple([[np.diag([1.01, 1 / 1.01])]])
    cert, T = sznagy_solve([polyball_symbol(1)], ops)
    assert len(calls) == (path == "dense")
    assert_refuted(cert, T, "the ergodic projection of I is zero")
    assert cert.witnesses["fixed_space_dim"] == 2.0 and cert.Q is None


def test_sznagy_refutes_maps_without_a_common_fixed_point():
    inst = generate("commuting_polynomials", 0, dim=3, target_radius=1.2)
    cert, T = sznagy_solve(inst.symbols, inst.ops)
    assert_refuted(cert, T, "no common fixed point")
    assert cert.witnesses["fixed_space_dim"] == 0.0


def test_sznagy_reads_the_svd_cutoff():
    # U E_12 U^* = e^{-1e-8 i} E_12: to a cutoff of 1e-6, E_12 and E_21 are
    # fixed as well as the diagonal
    U = np.diag([1.0, np.exp(1e-8j), -1.0])
    for tol, dim in ((Tolerances(), 3.0), (Tolerances(svd_cutoff=1e-6), 5.0)):
        cert, _ = sznagy_solve([polyball_symbol(1)], OperatorTuple([[U]], tol=tol))
        assert cert.witnesses["fixed_space_dim"] == dim


def record_dense_fixed_point(monkeypatch):
    """Records each tuple that _ergodic_fixed_point hands to the dense fallback."""
    calls = []
    dense = polydom.similarity._dense_fixed_point
    monkeypatch.setattr(polydom.similarity, "_dense_fixed_point",
                        lambda phi: calls.append(phi) or dense(phi))
    return calls


@pytest.mark.parametrize("seed,d", [(s, d) for s in range(6) for d in (3, 4, 5, 8, 12, 16)])
def test_sznagy_reads_conjugated_unitaries_off_the_joint_eigenbasis(seed, d, monkeypatch):
    # the letters xi U_i xi^{-1} share one eigenbasis, so no d^2 x d^2 matrix
    # is formed; the dense null spaces are the oracle
    inst = generate("conjugated_unitaries", seed, dim=d)
    dense = polydom.similarity._dense_fixed_point
    calls = record_dense_fixed_point(monkeypatch)
    phi = CPMapTuple(inst.symbols, inst.ops)
    cert, _ = polydom.similarity._sznagy(phi, 1e-7)
    assert calls == [] and phi._matricized == {}
    monkeypatch.setattr(polydom.similarity, "_ergodic_fixed_point", dense)
    oracle, _ = sznagy_solve(inst.symbols, inst.ops)
    assert cert.status == oracle.status == "PASS"
    assert cert.witnesses["fixed_space_dim"] == oracle.witnesses["fixed_space_dim"]
    assert np.linalg.norm(cert.Q - oracle.Q, 2) <= 1e-12


def clock_and_shift(d=3):
    return np.diag(np.exp(2j * np.pi * np.arange(d) / d)), np.roll(np.eye(d), 1, axis=0)


def fallback_tuple(name):
    if name == "jordan":
        return CPMapTuple([polyball_symbol(1)], OperatorTuple([[np.array([[1.0, 1.0], [0.0, 1.0]])]]))
    if name == "coisometry":
        return CPMapTuple([polyball_symbol(2)], OperatorTuple([list(coisometry_pair(7))]))
    if name == "weyl":
        Z, X = clock_and_shift()
        return CPMapTuple.from_kraus([[Z], [X]])
    # the pair (0, 1) of diag(1, e^{1e-8 i}, -1) reads s = 1e-8; conjugated by
    # xi, cond(xi) = 10.9, it lies between the bars 2e-6 / kappa and 2e-6 kappa
    xi = np.array([[1.0, 3.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    U = xi @ np.diag([1.0, np.exp(1e-8j), -1.0]) @ np.linalg.inv(xi)
    return CPMapTuple([polyball_symbol(1)], OperatorTuple([[U]], tol=Tolerances(svd_cutoff=1e-6)))


@pytest.mark.parametrize("name,status,dim", [
    ("jordan", "INCONCLUSIVE", 2.0),
    ("coisometry", "PASS", 1.0),
    ("weyl", "PASS", 1.0),
    ("band", "PASS", 5.0),
])
def test_sznagy_falls_back_to_the_dense_null_spaces(name, status, dim, monkeypatch):
    # a Jordan block, letters with no joint eigenbasis, and a pair between
    # the bars are each decided by the d^2 x d^2 null spaces, as before
    calls = record_dense_fixed_point(monkeypatch)
    phi = fallback_tuple(name)
    cert, _ = polydom.similarity._sznagy(phi, 1e-7)
    assert calls == [phi] and phi._matricized
    assert cert.status == status
    assert cert.witnesses["fixed_space_dim"] == dim


@pytest.mark.parametrize("d", (1, 3, 8))
@pytest.mark.parametrize("path", ("eigenbasis", "dense"))
def test_sznagy_fixes_everything_under_a_scalar_unitary(d, path, monkeypatch):
    # Phi(X) = X up to rounding, so every direction is fixed: the shifted
    # maps are measured against the identity term, not their own norm
    calls = record_dense_fixed_point(monkeypatch)
    if path == "dense":
        monkeypatch.setattr(polydom.similarity, "_ergodic_fixed_point",
                            polydom.similarity._dense_fixed_point)
    ops = OperatorTuple([[np.exp(0.3j) * np.eye(d)]])
    cert, T = sznagy_solve([polyball_symbol(1)], ops)
    assert len(calls) == (path == "dense")
    assert cert.status == "PASS" and T is not None
    assert cert.witnesses["fixed_space_dim"] == d * d
    assert np.linalg.norm(cert.Q - np.eye(d), 2) <= 1e-12
    unital = cpmap_similarity(CPMapTuple.from_kraus([[ops.rows[0][0]]]), (1,), "unital")
    assert unital.status == "PASS"


@pytest.mark.parametrize("seed,d", [(s, d) for s in range(6) for d in (3, 4, 5)])
def test_sznagy_bounds_hold_on_every_composed_iterate(seed, d):
    # the oracle is a sample grid: Phi_1^{s1} Phi_2^{s2}(I) for s1, s2 <= 16
    # must lie between c I and d I, the bounds read off Q
    inst = generate("conjugated_unitaries", seed, dim=d)
    cert, _ = sznagy_solve(inst.symbols, inst.ops)
    assert cert.status == "PASS"
    c, d_up = cert.witnesses["c"], cert.witnesses["d"]
    assert c == cert.witnesses["Q_min_eig"] / cert.witnesses["Q_max_eig"]
    phi = CPMapTuple(inst.symbols, inst.ops)
    assert phi.k == 2
    X1 = np.eye(d, dtype=np.complex128)
    for s1 in range(17):
        X = X1
        for s2 in range(17):
            lam = np.linalg.eigvalsh(hermitize(X))
            assert c * (1 - 1e-8) <= lam[0] and lam[-1] <= d_up * (1 + 1e-8), (s1, s2)
            X = phi.apply(2, X)
        X1 = phi.apply(1, X1)


# ---------------------------------------------------------------------------
# variety similarity
# ---------------------------------------------------------------------------

def cone_report(symbols, m, ops, R):
    # checked outside the certificate, from the original tuple
    return membership(CPMapTuple(symbols, ops), m, R, with_purity=False)


def variety_residuals(cert, polys):
    return [cert.residuals[f"variety_{idx}"] for idx in range(len(polys))]


def test_variety_feasibility_already_in_domain():
    inst = generate("nilpotent", 14, dim=4, ensure_cone=True)
    polys = (commutator_polynomial(1, 1, 2),)
    cert, T = similarity_to_variety(inst.symbols, inst.m, inst.ops, Q_polys=polys)
    assert cert.status == "PASS" and cert.kind == "variety_similarity" and T is not None
    assert cone_report(inst.symbols, inst.m, inst.ops, cert.Q).member
    assert all(r <= 1e-6 for r in variety_residuals(cert, polys))


def test_variety_feasibility_conjugated_instance():
    inst = generate("nilpotent", 15, dim=4, ensure_cone=True)
    xi = mild_pd(15, 4, spread=1.5)
    xi_inv = np.linalg.inv(xi)
    rows = [[xi @ M @ xi_inv for M in row] for row in inst.ops.rows]
    ops = OperatorTuple(rows)
    polys = (commutator_polynomial(1, 1, 2),)
    cert, T = similarity_to_variety(inst.symbols, inst.m, ops, Q_polys=polys)
    assert cert.status == "PASS" and T is not None
    assert cone_report(inst.symbols, inst.m, ops, cert.Q).member
    assert all(r <= 1e-6 for r in variety_residuals(cert, polys))


def test_variety_feasibility_radius_obstruction():
    rng = np.random.default_rng(40)
    G = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    U, _ = np.linalg.qr(G)
    ops = OperatorTuple([[1.2 * U]])
    cert, T = similarity_to_variety((polyball_symbol(1),), (1,), ops)
    # Phi(I) = 1.44 I: no R >= cI can have Phi(R) <= R
    assert cert.status == "FAILED" and cert.kind == "variety_similarity"
    assert cert.Q is None and T is None
    assert cert.notes == ["factor 1 has radius at least 1.200000 > 1"]


@pytest.mark.parametrize("seed", (0, 1))
def test_variety_feasibility_finds_the_series_of_identity_at_radius_099(seed):
    inst = generate("commuting_polynomials", seed, dim=3, target_radius=0.99)
    cert, T = similarity_to_variety(inst.symbols, inst.m, inst.ops)
    assert cert.status == "PASS"
    rep = cone_report(inst.symbols, inst.m, inst.ops, cert.Q)
    assert rep.member
    # R = Delta^{-m}(I): every defect Delta^p(R), p <= m, is at least I
    assert min(rep.min_eigs.values()) >= 1.0 - 1e-8
    # and T lies strictly inside the domain
    assert cert.witnesses["T_defect_min_eig"] > 0.0


def test_variety_feasibility_finds_the_fixed_point_on_conjugated_unitaries():
    inst = generate("conjugated_unitaries", 0, dim=4)
    cert, T = similarity_to_variety(inst.symbols, inst.m, inst.ops)
    assert cert.status == "PASS" and T is not None
    assert cone_report(inst.symbols, inst.m, inst.ops, cert.Q).member
    assert np.linalg.eigvalsh(cert.Q)[0] > 0.0
    phi = CPMapTuple(inst.symbols, inst.ops)
    for i in range(1, phi.k + 1):
        assert np.linalg.norm(phi.apply(i, cert.Q) - cert.Q, 2) <= 1e-10


def test_variety_feasibility_undecided_above_radius_one():
    # the Collatz-Wielandt lower bound with Y = I stays below one here
    inst = generate("commuting_polynomials", 0, dim=3, target_radius=1.02)
    cert, T = similarity_to_variety(inst.symbols, inst.m, inst.ops)
    assert cert.status == "INCONCLUSIVE"
    assert cert.Q is None and T is None
    assert cert.notes == [
        "Sz.-Nagy certificate: the maps have no common fixed point; no similarity"]


def same_tuple(S, T):
    return all(np.array_equal(a, b) for ra, rb in zip(S.rows, T.rows) for a, b in zip(ra, rb))


def test_variety_feasibility_reads_the_rota_certificate():
    inst = generate("commuting_polynomials", 1, dim=4, target_radius=0.8)
    polys = (commutator_polynomial(1, 1, 2),)
    out, T_out = similarity_to_variety(inst.symbols, inst.m, inst.ops, Q_polys=polys)
    cert, T = rota_conjugate(inst.symbols, inst.m, inst.ops, polys)
    assert out.status == "PASS" and out.kind == "variety_similarity"
    assert np.array_equal(out.Q, cert.Q) and same_tuple(T_out, T)
    assert out.residuals == cert.residuals and out.tolerances == cert.tolerances


def test_variety_feasibility_reads_the_sznagy_certificate():
    inst = generate("conjugated_unitaries", 0, dim=4)
    out, T_out = similarity_to_variety(inst.symbols, inst.m, inst.ops)
    cert, T = sznagy_solve(inst.symbols, inst.ops)
    assert out.status == "PASS" and out.kind == "variety_similarity"
    assert np.array_equal(out.Q, cert.Q) and same_tuple(T_out, T)
    assert out.residuals == cert.residuals


def test_variety_similarity_reads_one_membership_on_the_rota_path(monkeypatch):
    calls = []
    real = polydom.similarity.membership
    monkeypatch.setattr(polydom.similarity, "membership",
                        lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs))
    inst = generate("commuting_polynomials", 1, dim=4, target_radius=0.8)
    polys = (commutator_polynomial(1, 1, 2),)
    cert, T = similarity_to_variety(inst.symbols, inst.m, inst.ops, Q_polys=polys)
    assert cert.status == "PASS"
    # the one call is _rota's strict membership of I for T
    assert len(calls) == 1 and calls[0][0].ops is not inst.ops


def test_variety_similarity_reports_a_failed_rota_certificate_inconclusive(monkeypatch):
    real = polydom.similarity._rota

    def failing(*args):
        cert, T = real(*args)
        cert.status = "FAILED"
        cert.notes.append("forced")
        return cert, T

    monkeypatch.setattr(polydom.similarity, "_rota", failing)
    inst = generate("commuting_polynomials", 1, dim=4, target_radius=0.8)
    cert, T = similarity_to_variety(inst.symbols, inst.m, inst.ops)
    # every factor is settled, so Rota's theorem guarantees a similarity
    assert cert.status == "INCONCLUSIVE" and cert.notes[-1] == "Rota certificate: forced"


def cross_commutator():
    # Z_{1,1} Z_{2,1} - Z_{2,1} Z_{1,1}: the two factors commute
    return NCPolynomial(((1.0, ((1, 1), (2, 1))), (-1.0, ((2, 1), (1, 1)))))


def test_variety_similarity_gates_the_constraints_on_the_sznagy_path():
    inst = generate("conjugated_unitaries", 0, dim=4)
    polys = (cross_commutator(),)
    cert, T = similarity_to_variety(inst.symbols, inst.m, inst.ops, Q_polys=polys)
    assert cert.status == "PASS" and T is not None and "fixed_point_1" in cert.residuals
    # q(T) = Q^{-1/2} q(A) Q^{1/2}, with ||q(A)|| <= tol = 1e-8
    assert cert.tolerances["variety_0"] == 1e-8 * cert.cond
    assert cert.residuals["variety_0"] <= cert.tolerances["variety_0"]
    assert cert.residuals["variety_0"] == np.linalg.norm(T.evaluate_poly(polys[0]), 2)
    # the gate has teeth: Z_{1,1} itself is far from zero on T
    phi = CPMapTuple(inst.symbols, inst.ops)
    bad = NCPolynomial(((1.0, ((1, 1),)),))
    failed, _ = polydom.similarity._sznagy(phi, 1e-8, (bad,))
    assert failed.status == "FAILED"
    assert failed.residuals["variety_0"] > failed.tolerances["variety_0"]


def rotated(blocks, seed):
    A = np.zeros((3, 3), dtype=np.complex128)
    A[:2, :2], A[2, 2] = blocks
    rng = np.random.default_rng(seed)
    V, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    return V @ A @ V.conj().T


@pytest.mark.parametrize("A", [
    np.diag([1.0, 0.5]).astype(np.complex128),
    rotated((np.diag(np.exp([0.3j, 2.1j])), 0.5), 7),
], ids=["diag", "rotated_unitary_plus_half"])
def test_variety_similarity_passes_a_tuple_already_in_the_domain(A):
    # R = I is in the cone (Delta(I) = I - A A^* >= 0), but the radius is one,
    # so neither Rota nor Sz.-Nagy (ergodic projection of I singular) decides
    ops = OperatorTuple([[A]])
    cert, T = similarity_to_variety((polyball_symbol(1),), (1,), ops)
    assert cert.status == "PASS" and cert.kind == "variety_similarity"
    assert np.array_equal(cert.Q, np.eye(A.shape[0])) and cert.cond == 1.0
    assert T is ops
    assert sznagy_solve((polyball_symbol(1),), ops)[0].status != "PASS"


def test_variety_similarity_reports_an_unrepresentable_series_inconclusive():
    # settled, but Delta^{-m}(I) at m = (30, 1) is about 1e36 and its computed
    # minimum eigenvalue negative
    inst = generate("commuting_polynomials", 0, dim=3, target_radius=0.99, m=(30, 1))
    cert, T = similarity_to_variety(inst.symbols, inst.m, inst.ops)
    assert cert.status == "INCONCLUSIVE" and T is None
    assert cert.notes[-1].startswith("the series value P is not positive definite")


def test_variety_feasibility_rejects_nonannihilating_constraint():
    # E12 and E23 are nilpotent but do not commute with each other
    A11 = np.zeros((4, 4), dtype=np.complex128)
    A12 = np.zeros((4, 4), dtype=np.complex128)
    A11[0, 1] = 1.0
    A12[1, 2] = 1.0
    ops = OperatorTuple([[A11, A12], [np.zeros((4, 4), dtype=np.complex128)]])
    symbols = (polyball_symbol(2), polyball_symbol(1))
    bad = commutator_polynomial(1, 1, 2)
    with pytest.raises(ValueError):
        similarity_to_variety(symbols, (1, 1), ops, Q_polys=(bad,))


@pytest.mark.parametrize("m", [(0,), (1, 1)])
def test_variety_feasibility_rejects_a_bad_multi_degree(m):
    symbols, _, ops = scalar_tuple(1.2)
    with pytest.raises(ValueError, match="m must have"):
        similarity_to_variety(symbols, m, ops)


def implication_spec(name, seed):
    if name != "scaled_unitary":
        inst = generate(name, seed, dim=3)
        return inst.symbols, inst.m, inst.ops
    rng = np.random.default_rng(40)
    U, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    return (polyball_symbol(1),), (1,), OperatorTuple([[1.2 * U]])


def certificate_status(call):
    try:
        out = call()
    except (ValueError, ArithmeticError, DivergenceError) as e:
        return type(e).__name__
    return (out[0] if isinstance(out, tuple) else out).status


@pytest.mark.parametrize(
    "name,seed", [(f, s) for f in FAMILIES for s in (0, 1)] + [("scaled_unitary", 0)])
def test_similarity_verdicts_follow_the_theorems(name, seed):
    # settled => a variety similarity, a Rota conjugation, a pure-cone model
    # and a refuted Sz.-Nagy fixed point; a radius certified above one => no
    # similarity at all; a Sz.-Nagy fixed point => a variety similarity
    symbols, m, ops = implication_spec(name, seed)
    phi = CPMapTuple(symbols, ops)
    kraus = CPMapTuple.from_kraus([list(row) for row in ops.rows])
    variety = certificate_status(lambda: similarity_to_variety(symbols, m, ops))
    sznagy = certificate_status(lambda: sznagy_solve(symbols, ops))
    if all(phi._settled(i) for i in range(1, phi.k + 1)):
        assert variety == "PASS"
        assert sznagy == "FAILED"
        assert certificate_status(lambda: rota_conjugate(symbols, m, ops)) == "PASS"
        assert certificate_status(
            lambda: cpmap_similarity(kraus, m, "pure_cone", degree_cap=4)) == "PASS"
    if any(phi.radius_power_sequence(i)[0] > 1.0 for i in range(1, phi.k + 1)):
        assert variety == "FAILED"
        assert certificate_status(lambda: rota_conjugate(symbols, m, ops)) != "PASS"
        assert sznagy == "FAILED"
        for mode in ("strict", "pure_cone", "unital"):
            assert certificate_status(
                lambda: cpmap_similarity(kraus, m, mode, degree_cap=4)) != "PASS"
    if sznagy == "PASS":
        assert variety == "PASS"


def test_model_embed_and_pure_cone_sum_the_series_once(monkeypatch):
    calls = []
    original = CPMapTuple.weighted_series

    def counted(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(CPMapTuple, "weighted_series", counted)
    inst = generate("commuting_polynomials", 0, dim=3, target_radius=0.8)
    assert model_embed(inst.symbols, inst.m, inst.ops, np.eye(3), degree_cap=3).status == "PASS"
    assert len(calls) == 1
    phi = CPMapTuple.from_kraus([list(row) for row in inst.ops.rows])
    assert cpmap_similarity(phi, inst.m, "pure_cone", degree_cap=3).status == "PASS"
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# positive-map wrappers
# ---------------------------------------------------------------------------

def test_cpmap_strict_scalar():
    c = 0.7
    phi = CPMapTuple.from_kraus([[c * np.eye(3, dtype=np.complex128)]])
    cert = cpmap_similarity(phi, (1,), "strict")
    assert cert.status == "PASS"
    assert np.linalg.norm(cert.Q - np.eye(3) / (1 - c * c), 2) <= 1e-9
    assert abs(cert.witnesses["T_defect_min_eig"] - (1 - c * c)) <= 1e-8


def test_cpmap_strict_random_pair():
    rng = np.random.default_rng(44)
    M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    C1 = M @ M + 0.3 * M
    C2 = 0.5 * M @ M @ M - M
    C1 = 0.8 * C1 / max(np.abs(np.linalg.eigvals(C1)))
    C2 = 0.7 * C2 / max(np.abs(np.linalg.eigvals(C2)))
    phi = CPMapTuple.from_kraus([[C1], [C2]])
    cert = cpmap_similarity(phi, (1, 1), "strict")
    assert cert.status == "PASS"
    assert cert.witnesses["T_defect_min_eig"] >= 1e-6


def test_cpmap_strict_rejects_radius_one():
    rng = np.random.default_rng(45)
    G = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    U, _ = np.linalg.qr(G)
    phi = CPMapTuple.from_kraus([[U]])
    with pytest.raises(ValueError):
        cpmap_similarity(phi, (1,), "strict")


def test_cpmap_pure_cone_nilpotent():
    inst = generate("nilpotent", 18, dim=4, ensure_cone=True)
    phi = CPMapTuple(inst.symbols, inst.ops)
    cert = cpmap_similarity(phi, inst.m, "pure_cone", degree_cap=6)
    assert cert.status == "PASS"
    # the target tuple's I is a pure cone member exactly when Q = K^*K is
    assert cert.residuals["Q_cone_min_eig"] <= cert.tolerances["Q_cone_min_eig"]
    assert "Q_purity" not in cert.residuals
    for name, r in cert.residuals.items():
        if name.startswith("intertwine"):
            assert r <= 1e-7 * max(1.0, cert.witnesses["b"]) + 1e-8


def test_cpmap_pure_cone_default_R_is_identity():
    # Delta^m(I) is indefinite here, so the old default R failed the PSD check
    inst = generate("commuting_polynomials", 0, dim=3, target_radius=0.8)
    phi = CPMapTuple.from_kraus([list(row) for row in inst.ops.rows])
    assert np.linalg.eigvalsh(phi.defect(inst.m, np.eye(3)))[0] < 0.0
    cert = cpmap_similarity(phi, inst.m, "pure_cone", degree_cap=4)
    assert cert.status == "PASS"
    assert cert.residuals["Q_cone_min_eig"] <= cert.tolerances["Q_cone_min_eig"]


def test_cpmap_pure_cone_rejects_indefinite_R_before_the_series(monkeypatch):
    symbols, m, ops = zero_tuple()
    phi = CPMapTuple(symbols, ops)

    def no_series(*args, **kwargs):
        raise AssertionError("the series of an indefinite R was summed")

    monkeypatch.setattr(CPMapTuple, "weighted_series", no_series)
    with pytest.raises(ValueError, match="not positive semidefinite"):
        cpmap_similarity(phi, m, "pure_cone", R=np.diag([1.0, -1.0, 1.0]))


def test_cpmap_pure_cone_refuses_unsettled_tuple():
    # conjugated unitaries have tuple radius one: the series of R is refused
    inst = generate("conjugated_unitaries", 1, dim=4)
    phi = CPMapTuple.from_kraus([list(row) for row in inst.ops.rows])
    with pytest.raises(DivergenceError):
        cpmap_similarity(phi, (1,) * phi.k, "pure_cone")


def test_unsettled_tuple_is_refused_before_the_model_is_built(monkeypatch):
    def no_model(*args, **kwargs):
        raise AssertionError("a model was built for an unsettled tuple")

    monkeypatch.setattr(polydom.similarity, "build_model", no_model)
    monkeypatch.setattr(polydom.berezin, "build_model", no_model)
    inst = generate("conjugated_unitaries", 1, dim=4)
    with pytest.raises(DivergenceError):
        model_embed(inst.symbols, inst.m, inst.ops, np.eye(4), degree_cap=3)
    phi = CPMapTuple.from_kraus([list(row) for row in inst.ops.rows])
    with pytest.raises(DivergenceError):
        cpmap_similarity(phi, inst.m, "pure_cone", degree_cap=3)


def test_cpmap_pure_cone_rejects_degenerate_R():
    symbols, m, ops = zero_tuple()
    phi = CPMapTuple(symbols, ops)
    with pytest.raises(ValueError):
        cpmap_similarity(phi, m, "pure_cone", R=np.diag([1.0, 0.0, 0.0]))


def test_cpmap_unital_unitary_conjugation():
    rng = np.random.default_rng(46)
    G = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    U, _ = np.linalg.qr(G)
    phi = CPMapTuple.from_kraus([[U]])
    cert = cpmap_similarity(phi, (1,), "unital")
    assert cert.status == "PASS"
    assert cert.kind == "cpmap_similarity"
    assert np.linalg.norm(cert.Q - np.eye(4), 2) <= 1e-7


def test_cpmap_unknown_mode():
    symbols, m, ops = scalar_tuple(0.5)
    phi = CPMapTuple(symbols, ops)
    with pytest.raises(ValueError):
        cpmap_similarity(phi, m, "fastest")


@pytest.mark.parametrize("mode", ["strict", "pure_cone", "unital"])
@pytest.mark.parametrize("m", [(1,), (1, 0), (1, 1, 1)])
def test_cpmap_validates_m_in_every_mode(mode, m):
    inst = generate("commuting_polynomials", 0, dim=3, target_radius=0.8)
    phi = CPMapTuple.from_kraus([list(row) for row in inst.ops.rows])
    with pytest.raises(ValueError, match="m must have k = 2 entries"):
        cpmap_similarity(phi, m, mode, degree_cap=3)


def test_cpmap_modes_return_the_theorem_certificates():
    inst = generate("commuting_polynomials", 0, dim=3, target_radius=0.8)
    phi = CPMapTuple.from_kraus([list(row) for row in inst.ops.rows])
    rota, _ = rota_conjugate(inst.symbols, inst.m, inst.ops, tol=1e-7)
    embed = model_embed(inst.symbols, inst.m, inst.ops, np.eye(3), degree_cap=3, tol=1e-7)
    unital, _ = sznagy_solve(inst.symbols, inst.ops)
    for mode, theorem in (("strict", rota), ("pure_cone", embed), ("unital", unital)):
        cert = cpmap_similarity(phi, inst.m, mode, degree_cap=3)
        assert cert.kind == "cpmap_similarity" and cert.notes[-1] == f"mode={mode}"
        assert cert.status == theorem.status
        assert cert.residuals == theorem.residuals
        assert cert.witnesses == theorem.witnesses


@pytest.mark.parametrize("seed", range(3))
def test_cpmap_pure_cone_degree_two_symbol(seed):
    # a settled tuple whose symbol is not a polyball one: the model is built
    # from phi's own symbols
    f = PositiveSymbol(2, {(1,): 1.0, (2,): 1.0, (1, 2): 0.5}, 2)
    inst = generate("commuting_polynomials", seed, dim=3, arities=(2,), target_radius=0.3)
    phi = CPMapTuple((f,), inst.ops)
    assert phi._settled(1)
    assert cpmap_similarity(phi, inst.m, "pure_cone", degree_cap=10).status == "PASS"


def test_unconstrained_embedding_builds_no_variety_subspace(monkeypatch):
    # at D = 8 the (2, 1) model has dimension 4599, above the dense cap of
    # variety_subspace; without constraints N_Q is the whole model
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    original = polydom.similarity.variety_subspace
    monkeypatch.setattr(polydom.similarity, "variety_subspace", counted)
    inst = generate("commuting_polynomials", 0, dim=3)
    assert inst.ops.arities == (2, 1)
    cert = model_embed(inst.symbols, inst.m, inst.ops, np.eye(3), degree_cap=8)
    assert cert.status == "PASS"
    assert cert.residuals["range_leak"] == 0.0
    phi = CPMapTuple.from_kraus([list(row) for row in inst.ops.rows])
    assert cpmap_similarity(phi, inst.m, "pure_cone", degree_cap=8).status == "PASS"
    assert calls == []


def _non_finite_calls():
    inst = generate("commuting_polynomials", 0, dim=3, target_radius=0.8)
    symbols, m, ops = inst.symbols, inst.m, inst.ops
    polys = (commutator_polynomial(1, 1, 2),)
    phi = CPMapTuple(symbols, ops)
    model = build_model(symbols, m, 3)[1]
    return {
        "kernel": lambda M: polydom.berezin.kernel(phi, m, M, 3),
        "constrained_kernel": lambda M: constrained_kernel(
            kernel(phi, m, M, 3, model), model, variety_subspace(model, polys)),
        "model_embed": lambda M: model_embed(symbols, m, ops, M, polys, degree_cap=3),
        "pure_cone": lambda M: cpmap_similarity(phi, m, "pure_cone", R=M, degree_cap=3),
        "solve_defect_equation": lambda M: solve_defect_equation(symbols, m, ops, M),
        "membership": lambda M: membership(phi, m, M),
        "is_pure_element": lambda M: is_pure_element(phi, M),
    }


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("call", sorted(_non_finite_calls()))
def test_non_finite_R_or_X_is_refused_by_name(call, bad):
    M = np.eye(3, dtype=np.complex128)
    M[0, 1] = M[1, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        _non_finite_calls()[call](M)


def test_model_embed_refuses_a_non_finite_R_before_the_model(monkeypatch):
    def no_model(*args, **kwargs):
        raise AssertionError("a model was built for a non-finite R")

    monkeypatch.setattr(polydom.similarity, "build_model", no_model)
    monkeypatch.setattr(polydom.berezin, "build_model", no_model)
    inst = generate("nilpotent", 0, dim=4)
    R = np.eye(4)
    R[2, 2] = np.nan
    with pytest.raises(ValueError, match="R has non-finite entries"):
        model_embed(inst.symbols, inst.m, inst.ops, R,
                    (commutator_polynomial(1, 1, 2),), degree_cap=3)


# ---------------------------------------------------------------------------
# radius equivalences
# ---------------------------------------------------------------------------

def test_radius_report_nilpotent_exact_decay():
    inst = generate("nilpotent", 23, dim=4)
    rep = spectral_radius_equivalences(inst.symbols, inst.ops)
    assert rep.all_consistent
    for f in rep.factors:
        assert f.radius <= 1e-8
        assert f.decay[-1] == 0.0
        assert f.decays_to_zero


def test_radius_report_scalar_rates():
    c = 0.8
    symbols, _, ops = scalar_tuple(c)
    rep = spectral_radius_equivalences(symbols, ops, s_max=20)
    f = rep.factors[0]
    assert abs(f.radius - c) <= 1e-10
    for s, val in enumerate(f.decay, start=1):
        assert abs(val - c ** (2 * s)) <= 1e-12
    assert rep.all_consistent


def test_radius_report_unitary_stays_flat():
    rng = np.random.default_rng(47)
    G = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    U, _ = np.linalg.qr(G)
    ops = OperatorTuple([[U]])
    rep = spectral_radius_equivalences((polyball_symbol(1),), ops, s_max=24)
    f = rep.factors[0]
    assert abs(f.radius - 1.0) <= 1e-8
    assert not f.decays_to_zero
    assert rep.all_consistent


def test_radius_report_normal_instance_gelfand():
    rng = np.random.default_rng(48)
    rows = [
        [np.diag(0.9 * np.exp(1j * rng.uniform(0, 2 * np.pi, 4)) * rng.uniform(0.5, 1.0, 4))],
        [np.diag(0.8 * np.exp(1j * rng.uniform(0, 2 * np.pi, 4)) * rng.uniform(0.5, 1.0, 4))],
    ]
    ops = OperatorTuple(rows)
    symbols = (polyball_symbol(1), polyball_symbol(1))
    rep = spectral_radius_equivalences(symbols, ops, s_max=64)
    for f, row in zip(rep.factors, rows):
        want = float(np.max(np.abs(np.diag(row[0]))))
        assert abs(f.radius - want) <= 1e-8
        assert abs(f.gelfand[-1] - want) <= 1e-3
    assert rep.all_consistent


def commuting_rows_at(seed, d, target):
    """Rows p_{i,j}(M) in one seeded M, arities (2, 1), each scaled to tuple radius target."""
    rng = np.random.default_rng([seed, d, 0])
    gauss = lambda shape: (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    M = gauss((d, d)) / np.sqrt(d)
    rows = []
    for n in (2, 1):
        row = []
        for _ in range(n):
            c = gauss(3)
            row.append(c[0] * np.eye(d) + c[1] * M + c[2] * (M @ M))
        rows.append(row)
    symbols = (polyball_symbol(2), polyball_symbol(1))
    phi = CPMapTuple(symbols, OperatorTuple(rows, check_commutation=False), validate=False)
    r1 = [phi.joint_spectral_radius(i, crosscheck=False) for i in (1, 2)]
    return symbols, OperatorTuple([[(target / r) * A for A in row] for row, r in zip(rows, r1)])


def test_radius_report_extends_the_orbit_below_the_margin():
    # radius 0.99: factor 2 has ||Phi^64(I)|| = 6.4, so the decay needs a longer orbit
    symbols, ops = commuting_rows_at(1620656289, 24, 0.99)
    rep = spectral_radius_equivalences(symbols, ops)
    assert rep.all_consistent
    for f in rep.factors:
        assert f.decays_to_zero and len(f.decay) == 64
        assert f.radius == pytest.approx(0.99, rel=1e-9)


def test_strict_mode_refuses_tuple_radius_above_margin():
    # tuple radius 0.996 > 1 - radius_margin, map radius 0.992 < 1 - radius_margin
    phi = CPMapTuple.from_kraus([[0.996 * np.eye(3)]])
    assert phi.joint_spectral_radius(1) ** 2 < 1.0 - phi.tol.radius_margin
    with pytest.raises(ValueError, match="tuple radius"):
        cpmap_similarity(phi, (1,), "strict")


def test_map_radius_is_square_of_tuple_radius():
    inst = generate("commuting_polynomials", 30, target_radius=0.8)
    phi = CPMapTuple(inst.symbols, inst.ops)
    for i in range(1, phi.k + 1):
        eig = float(np.max(np.abs(np.linalg.eigvals(phi.matricize(i)))))
        assert abs(phi.joint_spectral_radius(i) ** 2 - eig) <= 1e-8
