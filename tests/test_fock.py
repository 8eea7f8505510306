"""Truncated Fock models: shifts, weights, varieties, compressions."""

import time
from math import comb

import numpy as np
import pytest
import scipy.sparse as sp

from polydom.cli import _instance_to_spec
from polydom.config import ResourceCapError, Tolerances, default_tolerances
from polydom.cpmap import CPMapTuple, OperatorTuple
from polydom.fock import _grade_blocks, build_model, compress, domain_check_model, variety_subspace
from polydom.generate import generate
from polydom.words import (
    NCPolynomial,
    PositiveSymbol,
    Word,
    commutator_polynomial,
    polyball_symbol,
)

from oracles import brute_weight, dense_variety_subspace


def polyball_model(n=2, m=1, cap=4):
    return build_model([polyball_symbol(n)], [m], cap)


# ---------------------------------------------------------------------------
# space bookkeeping
# ---------------------------------------------------------------------------

def test_fock_dimension_polyball():
    fock, _ = polyball_model(n=2, cap=3)
    assert fock.dim == 1 + 2 + 4 + 8
    assert fock.vacuum_index == fock.index_of([()])


def test_index_words_roundtrip():
    fock, _ = build_model([polyball_symbol(2), polyball_symbol(1)], (1, 1), 2)
    for g in range(fock.dim):
        beta = fock.words_at(g)
        assert fock.index_of(beta) == g
    assert fock.k == 2 and fock.arities == (2, 1)


def test_fock_resource_cap():
    tol = Tolerances(max_fock_dim=50)
    with pytest.raises(ResourceCapError):
        build_model([polyball_symbol(3)], [1], 6, tol=tol)


# ---------------------------------------------------------------------------
# creation operators
# ---------------------------------------------------------------------------

def test_polyball_shift_is_isometry_below_cap():
    # for f = Z1+...+Zn, m=1 the weights are all 1 and W_j is a plain shift
    fock, model = polyball_model(n=2, m=1, cap=4)
    deg = fock.max_degree_array()
    interior = deg < fock.degree_cap
    for j in (1, 2):
        W = model.W(1, j).toarray()
        G = W.conj().T @ W
        assert np.allclose(G[np.ix_(interior, interior)], np.eye(fock.dim)[np.ix_(interior, interior)], atol=1e-12)


def test_shift_weight_ratios_match_brute_weights():
    f = PositiveSymbol(2, {Word((1,)): 1, Word((2,)): 0.5, Word((1, 2)): 0.25}, 2)
    m = 2
    fock, model = build_model([f], [m], 3)
    coeffs = {tuple(w): a for w, a in f.coeffs.items()}
    W1 = model.W(1, 1).toarray()
    for g in range(fock.dim):
        w = fock.words_at(g)[0]
        if len(w) >= 3:
            continue
        target = Word((1,) + tuple(w))
        r = fock.index_of([target])
        bw = brute_weight(coeffs, tuple(w), m)
        bt = brute_weight(coeffs, tuple(target), m)
        assert W1[r, g] == pytest.approx(np.sqrt(float(bw) / float(bt)), rel=1e-12)


def test_w_word_matches_products():
    fock, model = build_model([polyball_symbol(2), polyball_symbol(1)], (1, 1), 3)
    w121 = model.W_word(1, (1, 2))
    direct = model.W(1, 1) @ model.W(1, 2)
    assert sp.linalg.norm(w121 - direct) <= 1e-13
    wid = model.W_word(2, ())
    assert sp.linalg.norm(wid - sp.identity(fock.dim, format="csr")) <= 1e-14


def test_cross_factor_model_commutation():
    fock, model = build_model([polyball_symbol(2), polyball_symbol(2)], (1, 2), 3)
    for j in (1, 2):
        for l in (1, 2):
            A = model.W(1, j)
            B = model.W(2, l)
            assert sp.linalg.norm(A @ B - B @ A) <= 1e-13


def test_evaluate_poly_on_model():
    fock, model = build_model([polyball_symbol(2)], [1], 3)
    q = commutator_polynomial(1, 1, 2)
    val = model.evaluate_poly(q)
    direct = model.W(1, 1) @ model.W(1, 2) - model.W(1, 2) @ model.W(1, 1)
    assert sp.linalg.norm(val - direct) <= 1e-14


# ---------------------------------------------------------------------------
# diagonal defect engine
# ---------------------------------------------------------------------------

def test_defect_diagonal_matches_dense(rng):
    f = PositiveSymbol(2, {Word((1,)): 0.8, Word((2,)): 0.6, Word((2, 1)): 0.3}, 2)
    g = polyball_symbol(1)
    fock, model = build_model([f, g], (2, 1), 3)
    dense_rows = [
        [model.W(1, 1).toarray(), model.W(1, 2).toarray()],
        [model.W(2, 1).toarray()],
    ]
    phi = CPMapTuple([f, g], OperatorTuple(dense_rows, check_commutation=False))
    u = np.ones(fock.dim)
    grid = model.defect_diag_grid((2, 1), u)
    dense_grid = phi.defect_grid((2, 1), np.eye(fock.dim))
    interior = fock.max_degree_array() <= fock.degree_cap - 2
    for p, diag_vec in grid.items():
        dense_diag = np.real(np.diag(dense_grid[p]))
        assert np.max(np.abs((diag_vec - dense_diag)[interior])) <= 1e-12


def test_domain_check_polyball():
    for n, m in [(1, 1), (2, 1), (2, 3)]:
        _, model = polyball_model(n=n, m=m, cap=5)
        rep = domain_check_model(model)
        assert rep.ok
        assert min(rep.min_entries.values()) >= -1e-10


def test_domain_check_general_symbol():
    f = PositiveSymbol(2, {Word((1,)): 1.0, Word((2,)): 0.7, Word((1, 1)): 0.2}, 2)
    _, model = build_model([f], [2], 6)
    rep = domain_check_model(model)
    assert rep.ok


# ---------------------------------------------------------------------------
# variety subspaces and compression
# ---------------------------------------------------------------------------

def test_variety_empty_constraints_full_space():
    fock, model = polyball_model(n=2, cap=3)
    sub = variety_subspace(model, [])
    assert sub.dim_N == fock.dim
    comp = compress(model, sub)
    for j in (1, 2):
        assert np.linalg.norm(comp.S[(1, j)] - model.W(1, j).toarray()) <= 1e-12


def test_variety_commutator_dimension():
    # modding out Z1Z2 - Z2Z1 leaves one basis vector per commutative monomial
    cap = 4
    fock, model = polyball_model(n=2, cap=cap)
    sub = variety_subspace(model, [commutator_polynomial(1, 1, 2)])
    want = sum(L + 1 for L in range(cap + 1))
    assert sub.dim_N == want
    assert sub.invariance_residual_interior <= 1e-10


@pytest.mark.parametrize("letter", [(3, 1), (1, 3), (2, 2)])
def test_variety_rejects_letters_outside_the_model(letter):
    # arities (2, 1): no third factor, no Z_{1,3}, no Z_{2,2}
    fock, model = build_model([polyball_symbol(2), polyball_symbol(1)], (1, 1), 3)
    q = NCPolynomial(((1.0, ((1, 1), letter)), (-1.0, (letter, (1, 1)))))
    with pytest.raises(ValueError, match="outside a model with arities"):
        variety_subspace(model, [commutator_polynomial(1, 1, 2), q])


def test_compressed_model_annihilates_constraint():
    fock, model = polyball_model(n=2, cap=4)
    q = commutator_polynomial(1, 1, 2)
    sub = variety_subspace(model, [q])
    comp = compress(model, sub)
    assert comp.q_residuals_interior[0] <= 1e-10
    qS = comp.poly_value(q)
    assert np.linalg.norm(qS, 2) == pytest.approx(comp.q_residuals_full[0], rel=1e-9, abs=1e-12)


def test_compression_is_coisometric_on_variety():
    # P_N W restricted to N: products of compressed shifts match compressed
    # word operators on the interior (co-invariance of N under W^*)
    fock, model = polyball_model(n=2, cap=5)
    q = commutator_polynomial(1, 1, 2)
    sub = variety_subspace(model, [q])
    comp = compress(model, sub)
    B = sub.basis_N
    for word in [(1, 2), (2, 2, 1)]:
        Sw = np.eye(sub.dim_N, dtype=np.complex128)
        for letter in word:
            Sw = Sw @ comp.S[(1, letter)]
        direct = B.conj().T @ (model.W_word(1, word) @ B)
        # equality holds on compressed vectors supported below the boundary:
        # C spans the null space of the high-degree coordinate block
        deg = fock.max_degree_array()
        high = B[deg > fock.degree_cap - len(word)]
        _, s, Vt = np.linalg.svd(high, full_matrices=True)
        rank = int(np.count_nonzero(s > 1e-10)) if s.size else 0
        C = Vt.conj().T[:, rank:]
        assert C.shape[1] > 0
        gap = np.linalg.norm((Sw - direct) @ C, 2)
        assert gap <= 1e-10


# ---------------------------------------------------------------------------
# graded variety subspace against the dense oracle
# ---------------------------------------------------------------------------

def _commutators(arities):
    return [
        commutator_polynomial(i, j1, j2)
        for i, n in enumerate(arities, start=1)
        for j1 in range(1, n + 1)
        for j2 in range(j1 + 1, n + 1)
    ]


def _assert_matches_dense(model, polys, sub=None):
    sub = sub if sub is not None else variety_subspace(model, polys)
    ref = dense_variety_subspace(model, polys)
    assert sub.dim_N == ref.dim_N
    assert np.linalg.norm(sub.projector() - ref.projector(), 2) <= 1e-10
    assert sub.invariance_residual_full <= 1e-10
    assert sub.invariance_residual_interior <= 1e-10
    comp = compress(model, sub)
    assert len(comp.q_residuals_full) == len(comp.q_residuals_interior) == len(polys)
    assert max(comp.q_residuals_full + comp.q_residuals_interior, default=0.0) <= 1e-10


@pytest.mark.parametrize("D", [2, 3, 4, 5, 6])
def test_variety_matches_dense_on_gen_specs(D):
    # the model depends only on (symbols, m, constraints), which every gen
    # spec of these families shares at its default arities, so the oracle
    # runs once per distinct model
    checked = {}
    for family in ("commuting_polynomials", "nilpotent"):
        for seed in range(3):
            spec = _instance_to_spec(generate(family, seed, dim=4))
            key = repr((spec.symbols, spec.m, spec.constraints))
            _, model = build_model(spec.symbols, spec.m, D)
            sub = variety_subspace(model, spec.constraints)
            if key not in checked:
                _assert_matches_dense(model, spec.constraints, sub)
                checked[key] = sub
            ref = checked[key]
            assert sub.dim_N == ref.dim_N
            assert np.array_equal(sub.basis_N, ref.basis_N)


NON_HOMOGENEOUS = NCPolynomial(((1.0, ((1, 1), (1, 2))), (-0.5, ((1, 1),))))
GENERAL_SYMBOL = PositiveSymbol(2, {Word((1,)): 0.8, Word((2,)): 0.6, Word((2, 1)): 0.3}, 2)


@pytest.mark.parametrize(
    "symbols, m, cap, polys",
    [
        ([polyball_symbol(2)], [1], 5, _commutators((2,))),
        ([polyball_symbol(3)], [1], 4, _commutators((3,))),
        ([polyball_symbol(3)], [2], 3, _commutators((3,))),
        ([polyball_symbol(2), polyball_symbol(2), polyball_symbol(1)], [1, 1, 1], 2, _commutators((2, 2, 1))),
        ([GENERAL_SYMBOL, polyball_symbol(1)], [2, 1], 4, _commutators((2, 1))),
        # two constraints with different degree profiles, (2, 0) and (1, 1)
        ([polyball_symbol(2), polyball_symbol(2)], [1, 1], 3,
         _commutators((2, 2)) + [NCPolynomial(((1.0, ((1, 1), (2, 2))), (-1.0, ((2, 2), (1, 1)))))]),
        # q(W) = 0: N is the whole space, and compress sees more columns than high rows
        ([polyball_symbol(1), polyball_symbol(1)], [1, 1], 4,
         [NCPolynomial(((1.0, ((1, 1), (2, 1))), (-1.0, ((2, 1), (1, 1)))))]),
    ],
    ids=["polyball2", "polyball3", "polyball3-m2", "k3-221", "general-symbol", "mixed-profiles", "zero-constraint"],
)
def test_variety_matches_dense_on_families(symbols, m, cap, polys):
    _, model = build_model(symbols, m, cap)
    _assert_matches_dense(model, polys)


@pytest.mark.parametrize("arities, cap", [((2,), 4), ((2, 1), 3)])
def test_non_homogeneous_constraint_is_one_block(arities, cap):
    _, model = build_model([polyball_symbol(n) for n in arities], [1] * len(arities), cap)
    assert len(_grade_blocks(model, (NON_HOMOGENEOUS,))[0]) == 1
    _assert_matches_dense(model, [NON_HOMOGENEOUS])


def test_variety_svds_stay_within_one_grade_block(monkeypatch):
    # default gen spec at the default degree cap: dimension 889, largest
    # grade block 2^6 = 64; the dense computation took about 5 s
    spec = _instance_to_spec(generate("commuting_polynomials", 0))
    fock, model = build_model(spec.symbols, spec.m, 6)
    assert fock.dim == 889
    assert max(len(r) for r in _grade_blocks(model, spec.constraints)[0]) == 64
    shapes = []
    svd, norm = np.linalg.svd, np.linalg.norm

    def spy_svd(a, *args, **kwargs):
        shapes.append(np.shape(a)[-2:])
        return svd(a, *args, **kwargs)

    def spy_norm(x, ord=None, *args, **kwargs):
        if ord == 2:
            shapes.append(np.shape(x)[-2:])
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy_svd)
    monkeypatch.setattr(np.linalg, "norm", spy_norm)
    t0 = time.perf_counter()
    sub = variety_subspace(model, spec.constraints)
    wall = time.perf_counter() - t0
    assert sub.dim_N == 196
    assert shapes and max(max(s) for s in shapes) <= 64
    assert wall < 1.0
