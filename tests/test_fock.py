"""Truncated Fock models: shifts, weights, varieties, compressions."""

import time
import tracemalloc
from math import comb

import numpy as np
import pytest

from polydom.cli import _instance_to_spec
from polydom.berezin import BerezinKernel, constrained_kernel, kernel, model_word_value
from polydom.config import ResourceCapError, Tolerances, default_tolerances
from polydom.cpmap import CPMapTuple, OperatorTuple
from polydom.fock import (
    _grade_blocks,
    _poly_blocks,
    build_model,
    clear_cache,
    compress,
    domain_check_model,
    variety_subspace,
)
from polydom.generate import generate, random_symbol
from polydom.words import (
    NCPolynomial,
    PositiveSymbol,
    Word,
    commutator_polynomial,
    polyball_symbol,
    weight_table,
)

from oracles import (
    brute_weight,
    csr_diag_map,
    csr_mono,
    csr_shift,
    dense_basis,
    dense_compress,
    dense_constrained_projection,
    dense_shifts,
    dense_variety_subspace,
    evaluate,
    evaluate_poly,
)


@pytest.mark.parametrize("symbols, m", [
    ((polyball_symbol(2), polyball_symbol(1)), (1, 2)),
    ((random_symbol(3, 2), random_symbol(4, 1, degree=2)), (2, 1)),
])
def test_build_model_carries_the_float_weight_tables(symbols, m):
    # float weight tables hold Python floats, so the model keeps them as they are
    fock = build_model(symbols, m, 4)[0]
    for f, mi, table in zip(symbols, m, fock.weights):
        ref = weight_table(f, mi, 4)
        assert all(type(v) is float for v in ref.entries.values())
        assert table == ref


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


@pytest.mark.parametrize("g", [-1, 15, 20])
def test_words_at_rejects_indices_outside_the_space(g):
    fock, _ = polyball_model(n=2, cap=3)
    assert fock.dim == 15
    with pytest.raises(ValueError, match="outside 0..14"):
        fock.words_at(g)


@pytest.mark.parametrize("beta", [[(1, 2, 1, 2)], [(3,)], [(0,)], [(1, 3)]])
def test_index_of_rejects_words_outside_the_basis(beta):
    # cap 3 and arity 2: too long, letter 3, letter 0, letter 3 after 1
    fock, _ = polyball_model(n=2, cap=3)
    with pytest.raises(ValueError, match="is not a word of factor 1"):
        fock.index_of(beta)


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


def gen_models(max_cap=4):
    """(spec, fock, model) for the gen families at d = 3, seeds 0-1, degree caps 2..max_cap."""
    for family in ("commuting_polynomials", "conjugated_unitaries", "nilpotent", "polyball_random"):
        for seed in range(2):
            spec = _instance_to_spec(generate(family, seed, dim=3))
            for cap in range(2, max_cap + 1):
                fock, model = build_model(spec.symbols, spec.m, cap)
                yield spec, fock, model


def rel_gap(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


def test_shifts_match_the_sparse_oracle(rng):
    # a single gather is one product per entry: bitwise equal to CSR
    for _, fock, model in gen_models():
        X = rng.standard_normal((fock.dim, 2)) + 1j * rng.standard_normal((fock.dim, 2))
        csr = {(i, j): csr_shift(fock, i, j) for (i, j, _) in model.all_W()}
        for (i, j, W) in model.all_W():
            C = csr[(i, j)]
            assert np.array_equal(W.toarray(), C.toarray())
            assert np.array_equal(W @ X, C @ X)
            assert np.array_equal(W @ X[:, 0], C @ X[:, 0])
            assert np.array_equal(W.adjoint(X), C.conj().T @ X)
            for (i2, j2, W2) in model.all_W():
                assert np.array_equal((W @ W2).toarray(), (C @ csr[(i2, j2)]).toarray())


def test_words_and_diagonal_maps_match_the_sparse_oracle(rng):
    for spec, fock, model in gen_models():
        for i, f in enumerate(spec.symbols, start=1):
            for w in f.coeffs:
                assert np.array_equal(model.W_mono([(i, j) for j in w]).toarray(), csr_mono(fock, [(i, j) for j in w]).toarray())
            u = rng.random(fock.dim)
            assert rel_gap(model.apply_diag(i, u), csr_diag_map(fock, i) @ u) <= 1e-15


def test_seed_blocks_match_the_dense_constraint_value():
    for spec, fock, model in gen_models():
        polys = tuple(spec.constraints) + (NON_HOMOGENEOUS,) * (fock.arities[0] >= 2)
        for q in polys:
            rows, local, sources, _ = _grade_blocks(model, (q,))
            Q = evaluate_poly(fock, q)
            blocks = _poly_blocks(model, q, rows, local, sources)
            profile = q.degree_profiles(fock.k)[0]
            assert sorted(blocks) == [b for b, a in enumerate(sources(profile)) if a is not None]
            covered = 0.0
            for b, a in enumerate(sources(profile)):
                if a is not None:
                    want = Q[np.ix_(rows[b], rows[a])]
                    assert rel_gap(blocks[b], want) <= 1e-15
                    covered += np.linalg.norm(want) ** 2
            # the blocks hold all of q(W)
            assert covered == pytest.approx(np.linalg.norm(Q) ** 2, rel=1e-12)


@pytest.mark.parametrize("shape", [(14,), (16,), (1, 15), (14, 2)], ids=["short", "long", "row", "short-2d"])
def test_model_operands_of_the_wrong_length_raise(shape):
    fock, model = polyball_model(n=2, cap=3)
    assert fock.dim == 15
    X = np.ones(shape)
    with pytest.raises(ValueError, match="does not match model dimension 15"):
        model.W(1, 1) @ X
    with pytest.raises(ValueError, match="does not match model dimension 15"):
        model.W(1, 1).adjoint(X)
    with pytest.raises(ValueError, match="does not match model dimension 15"):
        model.apply_diag(1, X)
    with pytest.raises(ValueError, match="does not match model dimension 15"):
        model.defect_diag_grid((1,), X)


def test_model_operands_act_column_by_column():
    fock, model = polyball_model(n=2, cap=3)
    U = np.arange(2.0 * fock.dim).reshape(fock.dim, 2)
    for apply in (model.W(1, 2).__matmul__, model.W(1, 2).adjoint, lambda u: model.apply_diag(1, u)):
        assert np.array_equal(apply(U), np.stack([apply(U[:, 0]), apply(U[:, 1])], axis=1))


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
    w121 = model.W_mono([(1, j) for j in (1, 2)])
    direct = model.W(1, 1) @ model.W(1, 2)
    assert np.linalg.norm(w121.toarray() - direct.toarray()) <= 1e-13
    wid = model.W_mono([(2, j) for j in ()])
    assert np.linalg.norm(wid.toarray() - np.eye(fock.dim)) <= 1e-14


def test_cross_factor_model_commutation():
    fock, model = build_model([polyball_symbol(2), polyball_symbol(2)], (1, 2), 3)
    for j in (1, 2):
        for l in (1, 2):
            A = model.W(1, j)
            B = model.W(2, l)
            assert np.linalg.norm((A @ B).toarray() - (B @ A).toarray()) <= 1e-13


def test_evaluate_poly_on_model():
    fock, model = build_model([polyball_symbol(2)], [1], 3)
    q = commutator_polynomial(1, 1, 2)
    val = evaluate_poly(fock, q)
    direct = (model.W(1, 1) @ model.W(1, 2)).toarray() - (model.W(1, 2) @ model.W(1, 1)).toarray()
    assert np.linalg.norm(val - direct) <= 1e-14


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
    # N_Q's coordinates are in grade-block order; B maps them to the natural order
    B, S = dense_basis(sub), dense_shifts(comp)
    for j in (1, 2):
        assert np.linalg.norm(B @ S[(1, j)] @ B.conj().T - model.W(1, j).toarray()) <= 1e-12


def test_dense_cap_binds_on_the_widest_block_without_constraints():
    # with no constraints N is one dense identity per grade block, here the
    # degree levels 1, 2, 4 and 8, so the cap binds on the widest block only
    fock, model = polyball_model(n=2, cap=3)
    sub = variety_subspace(model, (), dense_cap=10)
    assert fock.dim == 15 and sub.dim_N == 15
    for N in sub.blocks:
        assert np.array_equal(N, np.eye(N.shape[0]))
    with pytest.raises(ResourceCapError, match="block of 8 exceeds 7"):
        variety_subspace(model, (), dense_cap=7)
    with pytest.raises(ResourceCapError, match="dim 15 exceeds 10"):
        variety_subspace(model, [commutator_polynomial(1, 1, 2)], dense_cap=10)


def test_dense_cap_refuses_a_wide_unconstrained_level():
    # one factor of arity 3 at cap 8: dimension 9841, top level 3^8 = 6561
    fock, model = polyball_model(n=3, cap=8)
    assert fock.dim == 9841
    with pytest.raises(ResourceCapError, match="block of 6561 exceeds 4096"):
        variety_subspace(model, ())


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
    S = dense_shifts(comp)
    qS = evaluate(q, lambda i, j: S[(i, j)], np.eye(sub.dim_N, dtype=np.complex128))
    assert np.linalg.norm(qS, 2) == pytest.approx(comp.q_residuals_full[0], rel=1e-9, abs=1e-12)


def test_compression_is_coisometric_on_variety():
    # P_N W restricted to N: products of compressed shifts match compressed
    # word operators on the interior (co-invariance of N under W^*)
    fock, model = polyball_model(n=2, cap=5)
    q = commutator_polynomial(1, 1, 2)
    sub = variety_subspace(model, [q])
    comp = compress(model, sub)
    B, S = dense_basis(sub), dense_shifts(comp)
    for word in [(1, 2), (2, 2, 1)]:
        Sw = np.eye(sub.dim_N, dtype=np.complex128)
        for letter in word:
            Sw = Sw @ S[(1, letter)]
        direct = B.conj().T @ (model.W_mono([(1, j) for j in word]) @ B)
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
    B, B_ref = dense_basis(sub), dense_basis(ref)
    assert np.linalg.norm(B @ B.conj().T - B_ref @ B_ref.conj().T, 2) <= 1e-10
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
            assert np.array_equal(dense_basis(sub), dense_basis(ref))


NON_HOMOGENEOUS = NCPolynomial(((1.0, ((1, 1), (1, 2))), (-0.5, ((1, 1),))))
GENERAL_SYMBOL = PositiveSymbol(2, {Word((1,)): 0.8, Word((2,)): 0.6, Word((2, 1)): 0.3}, 2)


FAMILY_CASES = [
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
]
FAMILY_IDS = ["polyball2", "polyball3", "polyball3-m2", "k3-221", "general-symbol", "mixed-profiles", "zero-constraint"]


@pytest.mark.parametrize("symbols, m, cap, polys", FAMILY_CASES, ids=FAMILY_IDS)
def test_variety_matches_dense_on_families(symbols, m, cap, polys):
    _, model = build_model(symbols, m, cap)
    _assert_matches_dense(model, polys)


@pytest.mark.parametrize("arities, cap", [((2,), 4), ((2, 1), 3)])
def test_non_homogeneous_constraint_is_one_block(arities, cap):
    _, model = build_model([polyball_symbol(n) for n in arities], [1] * len(arities), cap)
    assert len(_grade_blocks(model, (NON_HOMOGENEOUS,))[0]) == 1
    _assert_matches_dense(model, [NON_HOMOGENEOUS])


# ---------------------------------------------------------------------------
# block compression and constrained kernel against the dense basis
# ---------------------------------------------------------------------------

def _close(got, want):
    """Entrywise |got - want| <= 1e-12 max(1, |want|)."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


def _random_kernel(fock, rank, d, rng):
    """A BerezinKernel whose K is a random tensor: the projection is linear in
    K, and a K outside N_Q tensor C^rank gives a range leak of order one."""
    K = rng.standard_normal((fock.dim * rank, d)) + 1j * rng.standard_normal((fock.dim * rank, d))
    return BerezinKernel(K=K, fock=fock, rank=rank, R2=np.eye(rank, d), tail_bound=0.0,
                         certified=True, series=None)


def _assert_blocks_match_dense(model, sub, base):
    """compress, the compressed words and adjoints, and constrained_kernel on
    the grade blocks of sub agree with the dense-basis computations of
    tests/oracles.py."""
    comp = compress(model, sub)
    S, full, interior = dense_compress(model, sub)
    blocks = dense_shifts(comp)
    assert sorted(blocks) == sorted(S)
    rng = np.random.default_rng(0)
    Y = rng.standard_normal((comp.dim_N, 3)) + 1j * rng.standard_normal((comp.dim_N, 3))
    for ij in S:
        _close(blocks[ij], S[ij])
        _close(comp.norm(*ij), np.linalg.norm(S[ij], 2))
        _close(comp.adjoint(*ij, Y), S[ij].conj().T @ Y)
    fock = model.fock
    empty = ((),) * fock.k
    words = [empty, ((1,),) + empty[1:], ((fock.arities[0], 1),) + empty[1:],
             ((1,) * (fock.degree_cap + 1),) + empty[1:]]  # the last leaves the space: S_(alpha) = 0
    if fock.k > 1:
        words.append(((1,), (fock.arities[1],)) + empty[2:])
    for alphas in words:
        want = np.eye(comp.dim_N, dtype=np.complex128)
        for i, w in enumerate(alphas, start=1):
            for j in w:
                want = want @ blocks[(i, j)]
        _close(model_word_value(comp, alphas), want)
    _close(comp.q_residuals_full, full)
    _close(comp.q_residuals_interior, interior)
    ck = constrained_kernel(base, model, sub)
    K, leak = dense_constrained_projection(base, sub)
    _close(ck.K, K)
    _close(ck.range_residual, leak)


@pytest.mark.parametrize("D", [2, 3, 4, 5, 6])
def test_block_compression_matches_dense_on_gen_specs(D):
    models = {}
    for family in ("commuting_polynomials", "nilpotent"):
        for seed in range(3):
            inst = generate(family, seed, dim=4)
            spec = _instance_to_spec(inst)
            key = repr((spec.symbols, spec.m, spec.constraints))
            if key not in models:
                _, model = build_model(spec.symbols, spec.m, D)
                models[key] = (model, variety_subspace(model, spec.constraints))
            model, sub = models[key]
            base = kernel(CPMapTuple(inst.symbols, inst.ops), inst.m, np.eye(4), D, model)
            _assert_blocks_match_dense(model, sub, base)


@pytest.mark.parametrize(
    "symbols, m, cap, polys",
    FAMILY_CASES + [
        ([polyball_symbol(2)], [1], 4, [NON_HOMOGENEOUS]),
        ([polyball_symbol(2), polyball_symbol(1)], [1, 1], 3, [NON_HOMOGENEOUS]),
        ([polyball_symbol(2), polyball_symbol(1)], [1, 1], 3, []),
    ],
    ids=FAMILY_IDS + ["non-homogeneous-2", "non-homogeneous-21", "no-constraint"],
)
def test_block_compression_matches_dense_on_families(symbols, m, cap, polys, rng):
    fock, model = build_model(symbols, m, cap)
    sub = variety_subspace(model, polys)
    ref = dense_variety_subspace(model, polys)
    for rank, d in ((1, 3), (2, 2)):
        base = _random_kernel(fock, rank, d, rng)
        _assert_blocks_match_dense(model, sub, base)
        # the oracle's one-block subspace takes the same path
        _assert_blocks_match_dense(model, ref, base)
    if NON_HOMOGENEOUS in polys:
        assert len(sub.rows) == 1 and np.array_equal(sub.rows[0], np.arange(fock.dim))
    if sub.dim_N == fock.dim:
        # nothing is removed: N_Q keeps the grade blocks, each an identity
        assert all(np.array_equal(N, np.eye(len(R))) for R, N in zip(sub.rows, sub.blocks))
        assert sub.invariance_residual_full == sub.invariance_residual_interior == 0.0


def test_variety_svds_stay_within_one_grade_block(monkeypatch):
    # default gen spec at the default degree cap: dimension 889, largest
    # grade block 2^6 = 64; the dense computation took about 5 s
    clear_cache()  # the spies count the work of a build
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
    # nothing removed: N_Q keeps the grade blocks, one identity each
    assert max(max(N.shape) for N in variety_subspace(model, []).blocks) <= 64


def test_compression_and_constrained_kernel_stay_within_one_grade_block(monkeypatch):
    # default gen spec at degree cap 6: dim_N 196, largest grade block 64;
    # the dense basis took the SVD of the 734 x 196 high-degree row block
    clear_cache()  # the spies count the work of a build
    inst = generate("commuting_polynomials", 0)
    spec = _instance_to_spec(inst)
    fock, model = build_model(spec.symbols, spec.m, 6)
    assert max(len(r) for r in _grade_blocks(model, spec.constraints)[0]) == 64
    sub = variety_subspace(model, spec.constraints)
    base = kernel(CPMapTuple(inst.symbols, inst.ops), inst.m, np.eye(inst.ops.dim), 6, model)
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
    comp = compress(model, sub)
    ck = constrained_kernel(base, model, sub)
    norms = [comp.norm(i, j) for (i, j) in comp.blocks]
    assert comp.dim_N == ck.subspace.dim_N == 196
    assert shapes and max(max(s) for s in shapes) <= 64
    assert max(comp.q_residuals_full + comp.q_residuals_interior) <= 1e-10
    assert min(norms) > 0.0


def test_variety_seeds_never_form_the_dense_constraint_value():
    # default gen spec at degree cap 7, dimension 2040: forming q(W) densely
    # took 66.6 MB of an 84.9 MB tracemalloc peak
    clear_cache()  # the peak is that of a build
    spec = _instance_to_spec(generate("commuting_polynomials", 0))
    fock, model = build_model(spec.symbols, spec.m, 7)
    assert fock.dim == 2040
    tracemalloc.start()
    try:
        sub = variety_subspace(model, spec.constraints)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 84.9e6 / 3
    assert sub.dim_N == 288
    assert sub.invariance_residual_full <= 1e-13
    assert sub.invariance_residual_interior <= 1e-13
