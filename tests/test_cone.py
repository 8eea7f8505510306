"""Cone membership, purity, reconstruction, flatness, factorization."""

import numpy as np
import pytest

from polydom.cone import (
    factor_through,
    flat_equivalence,
    is_pure_element,
    membership,
    radial_membership,
    reconstruct,
)
from polydom.cpmap import CPMapTuple, OperatorTuple, multi_grid
from polydom.generate import generate, random_pd
from polydom.words import NCPolynomial, polyball_symbol, scale_symbol_action

from conftest import random_complex, random_psd


def scalar_instance(c, d=3):
    return CPMapTuple([polyball_symbol(1)], OperatorTuple([[c * np.eye(d)]]))


def cone_element(phi, m, seed):
    """A guaranteed member: the weighted series of a random PSD matrix."""
    rng = np.random.default_rng(seed)
    R = random_psd(rng, phi.dim)
    return phi.weighted_series(m, R, tol=1e-12).value, R


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

def test_membership_rejects_a_negative_m():
    # m = (-1, 1) read only the defect (0, 0): multi_grid turns a negative
    # entry into an empty range
    inst = generate("commuting_polynomials", 0, dim=3)
    phi = CPMapTuple(inst.symbols, inst.ops)
    with pytest.raises(ValueError, match=r"m must be >= 0 componentwise, got \(-1, 1\)"):
        membership(phi, (-1, 1), np.eye(3))


@pytest.mark.parametrize("m", [(0, 0), (0, 1)])
def test_membership_rejects_a_zero_m(m):
    # m = (0, 0) read X >= 0 alone as in_cone, and m = (0, 1) only the
    # second factor; weighted_series and build_model need m >= 1 too
    inst = generate("commuting_polynomials", 0, dim=3)
    phi = CPMapTuple(inst.symbols, inst.ops)
    with pytest.raises(ValueError, match=rf"m must be >= 1 componentwise, got \({m[0]}, {m[1]}\)"):
        membership(phi, m, np.eye(3))


def test_membership_zero_is_boundary():
    phi = scalar_instance(0.5)
    rep = membership(phi, (2,), np.zeros((3, 3)))
    assert rep.member and rep.verdict == "boundary"
    assert all(abs(v) <= 1e-12 for v in rep.min_eigs.values())


def test_membership_scalar_strict():
    c = 0.5
    phi = scalar_instance(c)
    rep = membership(phi, (2,), np.eye(3))
    assert rep.verdict == "in_cone" and rep.strict
    assert rep.min_eigs[(1,)] == pytest.approx(1 - c**2, abs=1e-12)
    assert rep.min_eigs[(2,)] == pytest.approx((1 - c**2) ** 2, abs=1e-12)
    assert rep.min_eigs[(0,)] == pytest.approx(1.0, abs=1e-12)


def test_membership_requires_hermitian(rng):
    phi = scalar_instance(0.5)
    with pytest.raises(ValueError):
        membership(phi, (1,), random_complex(rng, 3, 3))


def test_membership_from_domination():
    # m1 Phi_1(Y) + ... + mk Phi_k(Y) <= Y forces cone membership
    inst = generate("commuting_polynomials", 9, target_radius=0.8)
    phi = CPMapTuple(inst.symbols, inst.ops)
    m = (2, 1)
    rng = np.random.default_rng(9)
    Y = random_psd(rng, phi.dim) + 0.1 * np.eye(phi.dim)
    S = sum(mi * phi.apply(i, Y) for i, mi in enumerate(m, start=1))
    lam = np.linalg.eigvalsh(S).max() / np.linalg.eigvalsh(Y).min()
    t = 0.95 / np.sqrt(lam)  # scaling rows by t scales each map by >= t^2 <= ...
    shrunk = OperatorTuple([[t * A for A in row] for row in inst.ops.rows])
    phi_t = CPMapTuple(inst.symbols, shrunk)
    S_t = sum(mi * phi_t.apply(i, Y) for i, mi in enumerate(m, start=1))
    assert np.linalg.eigvalsh(Y - S_t).min() >= 0  # construction sanity
    rep = membership(phi_t, m, Y, with_purity=False)
    assert rep.member


def test_membership_outside_detected():
    phi = scalar_instance(0.5)
    X = np.diag([1.0, 1.0, -1.0])
    rep = membership(phi, (1,), X)
    assert not rep.member and rep.verdict == "outside"


# ---------------------------------------------------------------------------
# Delta inequalities on constructed members
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(6))
def test_defect_chain_inequality(seed):
    inst = generate("commuting_polynomials", seed, target_radius=0.75)
    phi = CPMapTuple(inst.symbols, inst.ops)
    m = (2, 1)
    Y, _ = cone_element(phi, m, seed + 1000)
    scale = max(1.0, np.linalg.norm(Y, 2))
    Dm = phi.defect(m, Y)
    for q in multi_grid(m):
        if q == (0, 0) or q == m:
            continue
        Dq = phi.defect(q, Y)
        assert np.linalg.eigvalsh(Dq - Dm).min() >= -1e-9 * scale
    assert np.linalg.eigvalsh(Dm).min() >= -1e-9 * scale


@pytest.mark.parametrize("seed", range(6))
def test_preimage_construction_is_member(seed):
    # Delta^m(Y) >= 0 with pure factors forces every intermediate defect >= 0
    inst = generate("commuting_polynomials", seed + 20, target_radius=0.75)
    phi = CPMapTuple(inst.symbols, inst.ops)
    m = (1, 2)
    Y, R = cone_element(phi, m, seed + 2000)
    rep = membership(phi, m, Y, with_purity=True)
    assert rep.member
    assert rep.purity is not None and rep.purity.pure
    # the defect recovers the seed matrix
    assert np.linalg.norm(phi.defect(m, Y) - R) <= 1e-7 * max(1, np.linalg.norm(R))


@pytest.mark.parametrize("seed", range(4))
def test_membership_monotone_under_smaller_symbols(seed):
    inst = generate("commuting_polynomials", seed + 40, target_radius=0.8)
    phi = CPMapTuple(inst.symbols, inst.ops)
    m = (1, 1)
    Y, _ = cone_element(phi, m, seed + 3000)
    assert membership(phi, m, Y, with_purity=False).member
    for r in (0.9, 0.5, 0.2):
        smaller = [scale_symbol_action(f, r) for f in inst.symbols]
        psi = CPMapTuple(smaller, inst.ops)
        assert membership(psi, m, Y, with_purity=False).member


# ---------------------------------------------------------------------------
# radial grid
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(4))
def test_radial_membership_forward(seed):
    inst = generate("commuting_polynomials", seed + 60, target_radius=0.8)
    phi = CPMapTuple(inst.symbols, inst.ops)
    m = (1, 1)
    Y, _ = cone_element(phi, m, seed + 4000)
    scale = max(1.0, np.linalg.norm(Y, 2))
    grid = radial_membership(phi, m, Y)
    assert set(grid) == {0.9, 0.99, 0.999}
    for r, low in grid.items():
        assert low >= -1e-9 * scale, f"radial defect at r={r} dips to {low}"


def test_radial_membership_consistent_at_boundary_radius():
    # unitary tuple: Y = I is flat at r = 1 yet strictly inside for r < 1
    U = np.diag(np.exp(1j * np.array([0.2, 1.4, 2.6])))
    phi = CPMapTuple([polyball_symbol(1)], OperatorTuple([[U]]))
    grid = radial_membership(phi, (1,), np.eye(3))
    for r, low in grid.items():
        assert low >= (1 - r**2) - 1e-12
    assert membership(phi, (1,), np.eye(3), with_purity=False).member


# ---------------------------------------------------------------------------
# similarity covariance of defects
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(4))
def test_defect_covariance_under_kraus_conjugation(seed):
    rng = np.random.default_rng(seed + 80)
    inst = generate("commuting_polynomials", seed + 80, target_radius=0.8)
    lam = CPMapTuple(inst.symbols, inst.ops)
    d = lam.dim
    R = random_pd(rng, d, cond=6.0)
    Rinv = np.linalg.inv(R)
    conj_ops = OperatorTuple([[R @ A @ Rinv for A in row] for row in inst.ops.rows])
    phi = CPMapTuple(inst.symbols, conj_ops)
    X = random_psd(rng, d)
    for p in [(1, 0), (1, 1), (2, 1)]:
        lhs = phi.defect(p, R @ X @ R.conj().T)
        rhs = R @ lam.defect(p, X) @ R.conj().T
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(1.0, np.linalg.norm(rhs))


# ---------------------------------------------------------------------------
# purity
# ---------------------------------------------------------------------------

def test_purity_nilpotent_crosses_at_order():
    inst = generate("nilpotent", 4, dim=5)
    phi = CPMapTuple(inst.symbols, inst.ops)
    rep = is_pure_element(phi, np.eye(5))
    assert rep.pure
    for fac in rep.factors:
        assert fac.crossed_at is not None and fac.crossed_at <= 5


def test_purity_unitary_is_not_pure():
    U = np.diag(np.exp(1j * np.array([0.3, 2.1])))
    phi = CPMapTuple([polyball_symbol(1)], OperatorTuple([[U]]))
    rep = is_pure_element(phi, np.eye(2))
    assert not rep.pure
    assert all(abs(x - 1.0) <= 1e-12 for x in rep.factors[0].decay)


@pytest.mark.parametrize(
    "family", ["commuting_polynomials", "conjugated_unitaries", "nilpotent", "polyball_random"]
)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_purity_of_identity_reads_the_orbit_bit_for_bit(family, seed):
    # from X = I the decay lists come from the cached orbit; they must equal
    # the direct iteration with the spectral norm exactly
    inst = generate(family, seed)
    phi = CPMapTuple(inst.symbols, inst.ops)
    rep = is_pure_element(phi, np.eye(phi.dim))
    assert set(phi._orbits) == set(range(1, phi.k + 1))
    direct = CPMapTuple(inst.symbols, inst.ops)
    for i, fac in enumerate(rep.factors, start=1):
        Y = np.eye(phi.dim, dtype=np.complex128)
        want = []
        for _ in fac.decay:
            Y = direct.apply(i, Y)
            want.append(float(np.linalg.norm(Y, 2)))
        assert fac.decay == want
    assert not direct._orbits
    assert is_pure_element(phi, 2.0 * np.eye(phi.dim)).factors[0].decay == [
        2.0 * x for x in rep.factors[0].decay
    ]


def test_purity_decay_rate_tracks_squared_radius():
    inst = generate("commuting_polynomials", 77, target_radius=0.9)
    phi = CPMapTuple(inst.symbols, inst.ops)
    rep = is_pure_element(phi, np.eye(phi.dim))
    for i, fac in enumerate(rep.factors, start=1):
        r = phi.joint_spectral_radius(i)
        assert fac.fitted_rate is not None
        assert abs(fac.fitted_rate - r**2) <= 0.05
        # the Gelfand bound of the orbit lies above the map radius
        assert fac.fitted_rate >= r**2 * (1 - 1e-12)


@pytest.mark.parametrize(
    "family", ["commuting_polynomials", "conjugated_unitaries", "nilpotent", "polyball_random"]
)
@pytest.mark.parametrize("dim", [3, 4, 5])
def test_purity_decay_bounds_every_hermitian_iterate(family, dim):
    # Russo-Dye: ||Phi_i^s(X)||_2 <= ||X||_2 eta_s for Hermitian X; past a
    # zero iterate the decay list ends and the iterates are exactly zero
    inst = generate(family, 11 + dim, dim=dim)
    phi = CPMapTuple(inst.symbols, inst.ops)
    rng = np.random.default_rng(dim)
    G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    X = G + G.conj().T
    lam = np.linalg.eigvalsh(X)
    assert lam[0] < 0 < lam[-1]
    rep = is_pure_element(phi, X)
    for i, fac in enumerate(rep.factors, start=1):
        Y = X.astype(np.complex128)
        for s in range(1, 65):
            Y = phi.apply(i, Y)
            bound = fac.decay[s - 1] if s <= len(fac.decay) else 0.0
            assert float(np.linalg.norm(Y, 2)) <= bound * (1 + 1e-12 * s)


def test_purity_fields_mean_the_same_after_a_longer_orbit():
    inst = generate("commuting_polynomials", 3, dim=4, target_radius=0.99)
    phi = CPMapTuple(inst.symbols, inst.ops)
    fresh = is_pure_element(phi, np.eye(4))
    assert fresh.pure
    for i in range(1, phi.k + 1):
        phi._orbit(i).norm(3000)
    assert is_pure_element(phi, np.eye(4)) == fresh


def test_purity_of_zero_and_of_a_wrong_shape():
    U = np.diag(np.exp(1j * np.array([0.3, 2.1])))
    phi = CPMapTuple([polyball_symbol(1)], OperatorTuple([[U]]))
    rep = is_pure_element(phi, np.zeros((2, 2)))
    assert rep.pure and rep.factors[0].crossed_at == 0
    assert not is_pure_element(phi, np.eye(2)).factors[0].pure
    for X in (np.eye(3), np.zeros((2, 3)), np.ones(2)):
        with pytest.raises(ValueError):
            is_pure_element(phi, X)


# ---------------------------------------------------------------------------
# reconstruct
# ---------------------------------------------------------------------------

def test_reconstruct_zero():
    phi = scalar_instance(0.4)
    rec = reconstruct(phi, (1,), np.zeros((3, 3)))
    assert rec.residual == 0.0


def test_reconstruct_scalar_identity():
    phi = scalar_instance(0.5)
    rec = reconstruct(phi, (1,), np.eye(3))
    assert rec.residual <= 1e-10


def test_reconstruct_nilpotent_exact(rng):
    inst = generate("nilpotent", 8, dim=5)
    phi = CPMapTuple(inst.symbols, inst.ops)
    X = random_psd(rng, 5)
    rec = reconstruct(phi, (1, 1), X)
    assert rec.residual <= 1e-12 * max(1.0, np.linalg.norm(X))


def test_reconstruct_random_small_radius(rng):
    inst = generate("commuting_polynomials", 13, target_radius=0.7)
    phi = CPMapTuple(inst.symbols, inst.ops)
    X = random_psd(rng, phi.dim)
    rec = reconstruct(phi, (2, 1), X)
    assert rec.residual <= 1e-8 * max(1.0, np.linalg.norm(X))


def test_reconstruct_refuses_a_non_hermitian_x():
    # the disc tuple diag(0.5, 0.3, 0.2): a non-Hermitian X was reconstructed
    # with a residual of 2.3e-13 instead of being refused
    phi = CPMapTuple([polyball_symbol(1)], OperatorTuple([[np.diag([0.5, 0.3, 0.2])]]))
    X = np.eye(3) + np.triu(np.ones((3, 3)), 1)
    with pytest.raises(ValueError, match="X is not Hermitian"):
        reconstruct(phi, (1,), X)
    with pytest.raises(ValueError, match="X has shape"):
        reconstruct(phi, (1,), np.eye(2))


# ---------------------------------------------------------------------------
# flatness equivalence
# ---------------------------------------------------------------------------

def test_flat_unitary_true_true():
    U = np.diag(np.exp(1j * np.array([0.5, 1.0, 1.5])))
    phi = CPMapTuple([polyball_symbol(1)], OperatorTuple([[U]]))
    rep = flat_equivalence(phi, (2,), np.eye(3))
    assert rep.flat_full and rep.flat_ones and rep.consistent


def test_flat_contraction_false_false():
    phi = scalar_instance(0.5)
    rep = flat_equivalence(phi, (2,), np.eye(3))
    assert not rep.flat_full and not rep.flat_ones and rep.consistent


def test_flat_mixed_blocks_false_false():
    A = np.diag([np.exp(0.7j), np.exp(1.9j), 0.5, 0.5])
    phi = CPMapTuple([polyball_symbol(1)], OperatorTuple([[A]]))
    rep = flat_equivalence(phi, (2,), np.eye(4))
    assert not rep.flat_full and not rep.flat_ones and rep.consistent


def test_flat_rejects_nonmember():
    phi = scalar_instance(0.5)
    with pytest.raises(ValueError):
        flat_equivalence(phi, (1,), np.diag([1.0, -1.0, 1.0]))


def test_flat_rejects_unbounded():
    phi = scalar_instance(1.2)
    with pytest.raises(ValueError):
        flat_equivalence(phi, (1,), np.eye(3))


# ---------------------------------------------------------------------------
# factorization through a cone element
# ---------------------------------------------------------------------------

def shrink_until_identity_member(inst):
    rows = [list(row) for row in inst.ops.rows]
    for _ in range(30):
        ops = OperatorTuple(rows)
        base = CPMapTuple(inst.symbols, ops)
        if membership(base, inst.m, np.eye(ops.dim), with_purity=False).member:
            return ops
        rows = [[0.8 * M for M in row] for row in rows]
    raise AssertionError("could not shrink the instance into the cone")


def test_factor_through_identity_gamma():
    inst = generate("commuting_polynomials", 21, target_radius=0.8)
    ops = shrink_until_identity_member(inst)
    res = factor_through(np.eye(4), inst.symbols, inst.m, ops)
    assert res.rank == 4
    assert res.max_intertwine <= 1e-10
    for i in range(1, ops.k + 1):
        for j in range(1, ops.arities[i - 1] + 1):
            assert np.linalg.norm(res.T.matrix(i, j) - ops.matrix(i, j)) <= 1e-10


def test_factor_through_zero_gamma():
    inst = generate("commuting_polynomials", 22, target_radius=0.8)
    res = factor_through(np.zeros((4, 4)), inst.symbols, inst.m, inst.ops)
    assert res.rank == 0
    for i in range(1, inst.ops.k + 1):
        for j in range(1, inst.ops.arities[i - 1] + 1):
            assert np.linalg.norm(res.T.matrix(i, j)) == 0.0


def half_identity_constraint(gap):
    """One factor of arity 1, A = 0.5 I, and q = Z_11 - (0.5 - gap) with q(A) = gap I."""
    ops = OperatorTuple([[0.5 * np.eye(2, dtype=np.complex128)]])
    q = NCPolynomial(((1.0, ((1, 1),)), (-(0.5 - gap), ())))
    return (polyball_symbol(1),), (1,), ops, q


def test_factor_through_checks_the_constraints_against_tol():
    symbols, m, ops, q = half_identity_constraint(1e-6)
    with pytest.raises(ValueError, match="does not annihilate"):
        factor_through(np.eye(2), symbols, m, ops, Q_polys=(q,))
    res = factor_through(np.eye(2), symbols, m, ops, Q_polys=(q,), tol=1e-3)
    assert res.variety_residuals == [pytest.approx(1e-6, rel=1e-6)]


def test_factor_through_zero_gamma_evaluates_the_constraints():
    # T = 0 on a zero Gamma, so q(T) = -0.5 I although q(A) = 0
    symbols, m, ops, q = half_identity_constraint(0.0)
    res = factor_through(np.zeros((2, 2)), symbols, m, ops, Q_polys=(q,))
    assert res.rank == 0
    assert res.variety_residuals == [0.5]
    assert res.intertwine_residuals == [[0.0]] and res.max_intertwine == 0.0


def test_factor_through_recovers_conjugated_tuple(rng):
    # A = R T0 R^{-1} with Gamma = R R^*: the factorization recovers a tuple
    # similar to T0, so spectra must match entrywise
    inst = generate("commuting_polynomials", 23, target_radius=0.7)
    d = inst.ops.dim
    T0 = shrink_until_identity_member(inst)
    R = random_pd(rng, d, cond=4.0)
    Rinv = np.linalg.inv(R)
    A = OperatorTuple([[R @ M @ Rinv for M in row] for row in T0.rows])
    Gamma = R @ R.conj().T
    res = factor_through(Gamma, inst.symbols, inst.m, A)
    assert res.rank == d
    assert res.max_intertwine <= 1e-8
    assert res.gamma_report.member
    for i in range(1, A.k + 1):
        for j in range(1, A.arities[i - 1] + 1):
            got = np.sort_complex(np.linalg.eigvals(res.T.matrix(i, j)))
            want = np.sort_complex(np.linalg.eigvals(T0.matrix(i, j)))
            assert np.max(np.abs(got - want)) <= 1e-6
