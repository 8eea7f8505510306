"""Berezin kernels, transforms, and the von Neumann checks."""

import time
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import brentq

import polydom.berezin
from polydom.berezin import (
    constrained_kernel,
    extended_transform_sweep,
    intertwine_check,
    intertwine_check_constrained,
    kernel,
    model_word_value,
    transform,
    vn_check_model,
    vn_check_polydisc,
)
from polydom.cpmap import CPMapTuple, OperatorTuple, hermitize
from polydom.fock import build_model, compress, variety_subspace
from polydom.config import ResourceCapError, Tolerances, default_tolerances
from polydom.generate import generate, random_symbol, strict_contractions
from polydom.words import NCPolynomial, PositiveSymbol, Word, commutator_polynomial, polyball_symbol

from conftest import random_psd
from oracles import csr_shift, dense_shifts, dense_vn_rhs, torus_grid_sup


def nilpotent_instance(seed, dim=5, ensure_cone=False):
    return generate("nilpotent", seed, dim=dim, ensure_cone=ensure_cone)


def random_poly_matrix(rng, k, rows=2, cols=2, degree=3, scale=1.0):
    letters = [(i, 1) for i in range(1, k + 1)]
    out = []
    for _ in range(rows):
        line = []
        for _ in range(cols):
            terms = []
            n_terms = rng.integers(2, 6)
            for _ in range(n_terms):
                L = int(rng.integers(0, degree + 1))
                mono = tuple(letters[rng.integers(0, k)] for _ in range(L))
                coeff = complex(rng.standard_normal(), rng.standard_normal()) * scale
                terms.append((coeff, mono))
            line.append(NCPolynomial(tuple(terms)))
        out.append(line)
    return out


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(5))
def test_kernel_gram_identity_nilpotent(seed, rng):
    inst = nilpotent_instance(seed)
    phi = CPMapTuple(inst.symbols, inst.ops)
    R = random_psd(rng, phi.dim)
    kern = kernel(phi, inst.m, R, degree_cap=6)
    series = phi.weighted_series(inst.m, R)
    gap = np.linalg.norm(kern.gram() - series.value, 2)
    assert gap <= 1e-10 * max(1.0, np.linalg.norm(R))
    assert kern.tail_bound == 0.0 and kern.certified


def degree3_instance(seed, dim=4, target_radius=0.2):
    """One factor of arity 2 with a degree-3 random symbol, tuple radius target_radius.

    At a small radius the terms Phi^s with ceil((D+1)/3) <= s <= D carry most
    of the mass beyond the box, so a tail started at D+1 misses it. The radius
    is not linear in the row scale for a degree-3 symbol, so the scale is
    solved for.
    """
    rng = np.random.default_rng(seed)
    f = random_symbol(rng, 2, degree=3)
    row = [(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / 2
           for _ in range(2)]

    def excess(t):
        phi = CPMapTuple((f,), OperatorTuple([[t * A for A in row]]))
        return phi.joint_spectral_radius(1, crosscheck=False) - target_radius

    t = brentq(excess, 0.0, 1.0, xtol=1e-12)
    return (f,), (1,), OperatorTuple([[t * A for A in row]])


_TAIL_CASES = {
    f"commuting-d{d}-D{D}": ("commuting_polynomials", 3, d, D) for d, D in ((3, 6), (4, 8), (5, 6))
}
_TAIL_CASES["polyball-d4-D6"] = ("polyball_random", 3, 4, 6)
_TAIL_CASES.update({
    f"degree3-s{seed}-D{D}": ("degree3", seed, 4, D) for seed in range(3) for D in (2, 3, 4, 5)
})


@pytest.mark.parametrize("case", sorted(_TAIL_CASES))
def test_kernel_tail_bound_is_sound(case, rng):
    kind, seed, dim, D = _TAIL_CASES[case]
    if kind == "degree3":
        symbols, m, ops = degree3_instance(seed, dim)
    else:
        inst = generate(kind, seed, dim=dim, target_radius=0.6)
        symbols, m, ops = inst.symbols, inst.m, inst.ops
    phi = CPMapTuple(symbols, ops)
    R = random_psd(rng, phi.dim)
    kern = kernel(phi, m, R, degree_cap=D)
    series = phi.weighted_series(m, R, tol=1e-13)
    gap = np.linalg.norm(kern.gram() - series.value, 2)
    assert kern.certified
    assert gap <= kern.tail_bound + series.tail_bound + 1e-9


_MARGIN_A = (1.0 - default_tolerances().radius_margin) ** 2


@pytest.mark.parametrize("a", [_MARGIN_A * (1.0 + 1e-12), 1.0])
def test_kernel_tail_bound_refuses_radius_at_margin(a):
    # Phi(X) = a X: the tuple radius is sqrt(a), just above 1 - radius_margin for the first a
    symbols = (PositiveSymbol(1, {Word((1,)): a}, 1),)
    ops = OperatorTuple([[np.eye(3)]])
    kern = kernel(CPMapTuple(symbols, ops), (1,), np.eye(3), degree_cap=4)
    assert np.isnan(kern.tail_bound) and not kern.certified and kern.series is None


def test_kernel_tail_bound_certifies_radius_on_margin():
    # tuple radius exactly 1 - radius_margin: settled, as for the weighted series
    symbols = (PositiveSymbol(1, {Word((1,)): _MARGIN_A}, 1),)
    ops = OperatorTuple([[np.eye(3)]])
    assert CPMapTuple(symbols, ops).weighted_series((1,), np.eye(3)).certified
    kern = kernel(CPMapTuple(symbols, ops), (1,), np.eye(3), degree_cap=4)
    assert kern.certified and np.isfinite(kern.tail_bound)


def test_kernel_carries_the_series_of_R(rng):
    inst = generate("commuting_polynomials", 4, dim=4, target_radius=0.8)
    R = hermitize(random_psd(rng, 4))
    kern = kernel(CPMapTuple(inst.symbols, inst.ops), inst.m, R, degree_cap=4)
    fresh = CPMapTuple(inst.symbols, inst.ops).weighted_series(inst.m, R)
    assert kern.series.terms == fresh.terms
    assert np.array_equal(kern.series.value, fresh.value)


def test_kernel_rejects_indefinite_R():
    inst = nilpotent_instance(1)
    with pytest.raises(ValueError):
        kernel(CPMapTuple(inst.symbols, inst.ops), inst.m, np.diag([1.0, -1.0, 0, 0, 0]), 6)


def test_kernel_rejects_negative_definite_R():
    inst = nilpotent_instance(1)
    with pytest.raises(ValueError):
        kernel(CPMapTuple(inst.symbols, inst.ops), inst.m, -np.eye(5), 6)


def test_kernel_of_rounding_negative_R_has_rank_zero():
    inst = nilpotent_instance(1)
    kern = kernel(CPMapTuple(inst.symbols, inst.ops), inst.m, -1e-18 * np.eye(5), 6)
    assert kern.rank == 0
    assert not np.any(kern.K)


@pytest.mark.parametrize("seed", range(3))
def test_kernel_intertwining_nilpotent(seed, rng):
    inst = nilpotent_instance(seed + 10)
    R = random_psd(rng, inst.ops.dim)
    model = build_model(inst.symbols, inst.m, 6)[1]
    kern = kernel(CPMapTuple(inst.symbols, inst.ops), inst.m, R, 6, model)
    res = intertwine_check(kern, model, inst.ops)
    for (i, j), (full, interior) in res.items():
        assert interior <= 1e-12
        assert full <= 1e-12  # nilpotent: nothing reaches the boundary


def test_kernel_intertwining_interior_small_radius(rng):
    inst = generate("commuting_polynomials", 8, target_radius=0.7)
    R = random_psd(rng, inst.ops.dim)
    model = build_model(inst.symbols, inst.m, 8)[1]
    kern = kernel(CPMapTuple(inst.symbols, inst.ops), inst.m, R, 8, model)
    res = intertwine_check(kern, model, inst.ops)
    for (i, j), (full, interior) in res.items():
        assert interior <= 1e-10
        rhs = sp.kron(csr_shift(model.fock, i, j).conj().T, sp.identity(kern.rank)) @ kern.K
        want = np.linalg.norm(kern.K @ inst.ops.matrix(i, j).conj().T - rhs, 2)
        assert abs(full - want) <= 1e-12 * max(want, 1.0)


# ---------------------------------------------------------------------------
# constrained kernels on a variety
# ---------------------------------------------------------------------------

def variety_tuple(seed, dim=5):
    """A nilpotent tuple annihilated by the factor-1 commutator, its defect of I, and that constraint."""
    inst = nilpotent_instance(seed, dim=dim, ensure_cone=True)
    R = CPMapTuple(inst.symbols, inst.ops).defect(inst.m, np.eye(dim))
    return inst, R, (commutator_polynomial(1, 1, 2),)


def constrained(inst, R, polys, D):
    """phi -> build_model -> kernel -> variety_subspace -> constrained_kernel."""
    model = build_model(inst.symbols, inst.m, D)[1]
    base = kernel(CPMapTuple(inst.symbols, inst.ops), inst.m, R, D, model)
    return constrained_kernel(base, model, variety_subspace(model, polys))


def test_kernel_refuses_a_model_built_for_other_values():
    inst, R, polys = variety_tuple(2)
    phi = CPMapTuple(inst.symbols, inst.ops)
    model = build_model(inst.symbols, inst.m, 4)[1]
    for m, D in ((inst.m, 5), ((2, 1), 4)):
        with pytest.raises(ValueError, match="model was built for"):
            kernel(phi, m, R, D, model)
    # an equal model built separately is accepted: the check is by value
    base = kernel(phi, inst.m, R, 4, build_model(inst.symbols, inst.m, 4)[1])
    assert np.array_equal(base.K, kernel(phi, inst.m, R, 4, model).K)
    other = build_model(inst.symbols, inst.m, 3)[1]
    with pytest.raises(ValueError, match="model was built for"):
        constrained_kernel(base, other, variety_subspace(other, polys))


@pytest.mark.parametrize("seed", range(4))
def test_constrained_kernel_isometry_on_pure_variety(seed):
    ck = constrained(*variety_tuple(seed + 20), 6)
    G = ck.gram()
    assert np.linalg.norm(G - np.eye(G.shape[0]), 2) <= 1e-8
    assert ck.range_residual <= 1e-8


def test_constrained_kernel_intertwines(seed=31):
    inst, R, polys = variety_tuple(seed)
    ck = constrained(inst, R, polys, 6)
    res = intertwine_check_constrained(ck, inst.ops)
    assert max(res.values()) <= 1e-10
    # against the explicit (S^* kron I_rank) K, also where truncation leaves a residual
    wide = generate("commuting_polynomials", seed, target_radius=0.8)
    wide_ck = constrained(wide, random_psd(np.random.default_rng(seed), 4), polys, 3)
    for ops, ck in ((inst.ops, ck), (wide.ops, wide_ck)):
        res = intertwine_check_constrained(ck, ops)
        for (i, j), S in dense_shifts(ck.compressed).items():
            rhs = np.kron(S.conj().T, np.eye(ck.rank)) @ ck.K
            want = np.linalg.norm(ck.K @ ops.matrix(i, j).conj().T - rhs, 2)
            assert abs(res[(i, j)] - want) <= 1e-12 * max(want, 1.0)
    assert max(res.values()) > 1e-3


def test_transform_reproduces_point_values():
    inst, R, polys = variety_tuple(7)
    ck = constrained(inst, R, polys, 6)
    comp = ck.compressed
    for alphas in [((1,), ()), ((1, 2), ()), ((), (1,))]:
        chi = model_word_value(comp, alphas)
        got = transform(ck, chi)
        want = inst.ops.monomial([(i, j) for i, w in enumerate(alphas, start=1) for j in w])
        assert np.linalg.norm(got - want, 2) <= 1e-8


def test_transform_shape_guard():
    ck = constrained(*variety_tuple(9), 6)
    with pytest.raises(ValueError):
        transform(ck, np.eye(ck.subspace.dim_N + 1))


# ---------------------------------------------------------------------------
# radial sweep
# ---------------------------------------------------------------------------

def test_extended_sweep_variety_gram_and_r_powers():
    inst, R, polys = variety_tuple(12)
    D = np.eye(inst.ops.dim)
    ck = constrained(inst, R, polys, 6)
    S1 = model_word_value(ck.compressed, ((1,), ()))
    dim_N = ck.subspace.dim_N
    chis = [np.eye(dim_N, dtype=np.complex128), S1 @ S1.conj().T]
    rep = extended_transform_sweep(
        inst.symbols, inst.m, inst.ops, D, polys,
        r_grid=(0.5, 0.7, 0.9), chis=chis, degree_cap=6,
    )
    A1 = inst.ops.monomial([(1, 1)])
    assert len(rep.points) == 3
    for pt in rep.points:
        assert pt.gram_residual <= 1e-8
        assert np.linalg.norm(pt.transforms[0] - D, 2) <= 1e-8
        # chi = S1 S1^* picks up exactly r^2 at grid point r
        want = pt.r ** 2 * (A1 @ A1.conj().T)
        assert np.linalg.norm(pt.transforms[1] - want, 2) <= 1e-8
    for diffs in rep.cauchy:
        assert all(np.isfinite(x) for x in diffs)


def test_extended_sweep_unconstrained_small_radius():
    inst = generate("commuting_polynomials", 12, target_radius=0.8)
    D = np.eye(inst.ops.dim)
    rep = extended_transform_sweep(
        inst.symbols, inst.m, inst.ops, D, (), r_grid=(0.2, 0.3), degree_cap=6
    )
    for pt in rep.points:
        assert pt.gram_residual <= 1e-6
    for diffs in rep.cauchy:
        assert all(np.isfinite(x) for x in diffs)


def test_extended_sweep_requires_homogeneous_constraints():
    inst = generate("commuting_polynomials", 13, target_radius=0.8)
    bad = NCPolynomial(((1.0, ((1, 1),)), (1.0, ((1, 1), (1, 2)))))
    with pytest.raises(ValueError):
        extended_transform_sweep(
            inst.symbols, inst.m, inst.ops, np.eye(4), (bad,), r_grid=(0.9,)
        )


# ---------------------------------------------------------------------------
# von Neumann checks
# ---------------------------------------------------------------------------

def test_vn_model_single_contraction(rng):
    C = strict_contractions(3, k=1, dim=3, norm_cap=0.7)
    ops = OperatorTuple([[C[0]]])
    D = random_psd(rng, 3) + 0.2 * np.eye(3)
    terms = [
        (np.array([[1.0, 0.3], [0.0, 0.5]]), ((1,),), ((),)),
        (np.array([[0.2, 0.0], [0.1, 0.4]]), ((1, 1),), ((1,),)),
    ]
    rep = vn_check_model([polyball_symbol(1)], (1,), ops, D, terms, degree_cap=24)
    assert rep.verdict == "PASS"
    assert rep.lhs <= rep.factor * rep.rhs * (1 + 1e-8)


def test_vn_model_scalar_coefficient_matches_one_by_one(rng):
    C = strict_contractions(5, k=1, dim=3, norm_cap=0.7)
    ops = OperatorTuple([[C[0]]])
    D = random_psd(rng, 3) + 0.2 * np.eye(3)
    words = [(((1,),), ((),)), (((1, 1),), ((1,),))]
    args = ([polyball_symbol(1)], (1,), ops, D)
    scalar = vn_check_model(*args, [(0.5, a, b) for a, b in words], degree_cap=8)
    block = vn_check_model(*args, [(np.array([[0.5]]), a, b) for a, b in words], degree_cap=8)
    assert scalar == block


def test_vn_and_sweep_build_their_models_with_the_tuple_tolerances():
    # arities (2, 1): the models at D = 4, 5, 6 have dimension 155, 378, 889
    inst = generate("commuting_polynomials", 0, dim=4)
    ops = OperatorTuple(inst.ops.rows, tol=Tolerances(max_fock_dim=100))
    with pytest.raises(ResourceCapError, match="exceeds the cap 100"):
        vn_check_model(inst.symbols, inst.m, ops, np.eye(4), [(np.eye(1), [[1], []], [[], []])],
                       degree_cap=4)
    with pytest.raises(ResourceCapError, match="exceeds the cap 100"):
        extended_transform_sweep(inst.symbols, inst.m, ops, np.eye(4), (), [0.5], degree_cap=4)


# the (2, 1) spec's word pairs (alpha, beta) for the right side's block graph
VN_WORDS = {
    "one-offset": [(((1,), ()), ((), ()))],
    "equal-total-degree": [(((1,), ()), ((), ())), (((), (1,)), ((), ()))],
    "constant-and-shifts": [(((), ()), ((), ())), (((1,), ()), ((), ())), (((), (1,)), ((), ()))],
    "beta": [(((1, 2), (1,)), ((2,), ())), (((1,), ()), ((), (1,)))],
    "longer-than-cap": [(((1, 2, 1, 2, 1, 2), ()), ((), ())), (((2,), (1,)), ((1,), ()))],
    "no-terms": [],
}
VN_POLYS = {
    "none": (),
    "commutator": (commutator_polynomial(1, 1, 2),),
    "non-homogeneous": (NCPolynomial(((1.0, ((1, 1), (1, 2))), (-0.5, ((1, 1),)))),),
}


def _vn_rhs_against_dense(terms, polys, degree_cap):
    """vn_check_model's right side at each cap, and dense_vn_rhs at that cap."""
    inst = generate("commuting_polynomials", 0, dim=4)
    rep = vn_check_model(inst.symbols, inst.m, inst.ops, np.eye(4), terms, polys, degree_cap=degree_cap)
    want = []
    for cap in (degree_cap, degree_cap + 1, degree_cap + 2):
        _, model = build_model(inst.symbols, inst.m, cap)
        want.append(dense_vn_rhs(compress(model, variety_subspace(model, polys)), terms))
    return rep.details["rhs_by_degree"], want


@pytest.mark.parametrize("polys", VN_POLYS, ids=list(VN_POLYS))
@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("words", VN_WORDS, ids=list(VN_WORDS))
def test_vn_model_rhs_matches_the_dense_right_side(words, q, polys):
    rng = np.random.default_rng(q)
    terms = [(rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q)), a, b) for a, b in VN_WORDS[words]]
    got, want = _vn_rhs_against_dense(terms, VN_POLYS[polys], degree_cap=2)
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-13 * w


def test_vn_model_rhs_is_not_the_largest_block():
    # S_{1,1} (x) I + 0.3 S_{2,1} (x) I joins blocks of equal total degree:
    # its largest single block has norm 1, the whole right side 1.255 at cap 4
    terms = [(np.eye(2), ((1,), ()), ((), ())), (0.3 * np.eye(2), ((), (1,)), ((), ()))]
    got, want = _vn_rhs_against_dense(terms, (), degree_cap=4)
    assert abs(got[0] - 1.2551534554089) <= 1e-12
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-13 * w


def test_vn_model_without_constraints_takes_no_wide_svd(monkeypatch):
    # the whole right side at cap 6 is 1778 x 1778 (dimension 889, q = 2); its
    # widest component, total degree 6 onto 7, is 252 x 254
    widths = []
    svd, norm = np.linalg.svd, np.linalg.norm

    def spy_svd(a, *args, **kwargs):
        widths.append(np.shape(a)[-1])
        return svd(a, *args, **kwargs)

    def spy_norm(x, *args, **kwargs):
        widths.append(np.shape(x)[-1] if np.ndim(x) > 1 else 1)
        return norm(x, *args, **kwargs)

    inst = generate("commuting_polynomials", 0, dim=4)
    terms = [(np.eye(2), ((1,), ()), ((), ())), (0.3 * np.eye(2), ((), (1,)), ((), ()))]
    monkeypatch.setattr(np.linalg, "svd", spy_svd)
    monkeypatch.setattr(np.linalg, "norm", spy_norm)
    t0 = time.perf_counter()
    rep = vn_check_model(inst.symbols, inst.m, inst.ops, np.eye(4), terms, degree_cap=4)
    wall = time.perf_counter() - t0
    assert rep.verdict == "INCONCLUSIVE"
    assert widths and max(widths) <= 256, max(widths)
    assert wall < 1.0, wall


def test_vn_model_refuses_a_component_wider_than_the_dense_cap(monkeypatch):
    # at cap 4 the (2, 1) model has dimension 155; a constant term joins all
    # of it into one component, while the shifts' widest component is 31 wide
    monkeypatch.setattr(polydom.berezin, "DENSE_CAP", 100)
    inst = generate("commuting_polynomials", 0, dim=4)
    shifts = [(np.eye(2), ((1,), ()), ((), ())), (0.3 * np.eye(2), ((), (1,)), ((), ()))]
    rep = vn_check_model(inst.symbols, inst.m, inst.ops, np.eye(4), shifts, degree_cap=2)
    assert rep.verdict == "INCONCLUSIVE"
    with pytest.raises(ResourceCapError, match="155 x 155 exceeds 100"):
        vn_check_model(inst.symbols, inst.m, inst.ops, np.eye(4),
                       [(np.eye(2), ((), ()), ((), ()))] + shifts, degree_cap=2)


@pytest.mark.parametrize("coeff", [np.array([[1.0, np.nan], [0.0, 1.0]]), np.array([[np.inf]]), float("nan")],
                         ids=["nan-block", "inf-block", "nan-scalar"])
def test_vn_model_rejects_a_non_finite_coefficient(coeff, monkeypatch):
    inst = generate("commuting_polynomials", 0, dim=4)

    def no_model(*args, **kwargs):
        raise AssertionError("a model was built")

    monkeypatch.setattr(polydom.berezin, "build_model", no_model)
    q = np.shape(np.atleast_2d(coeff))[0]
    terms = [(np.eye(q), ((1,), ()), ((), ())), (coeff, ((), (1,)), ((), ()))]
    with pytest.raises(ValueError, match="vn term 1: coefficient block is not finite"):
        vn_check_model(inst.symbols, inst.m, inst.ops, np.eye(4), terms, degree_cap=2)


def test_vn_polydisc_rejects_a_non_finite_coefficient():
    with pytest.raises(ValueError, match="is not finite"):
        vn_check_polydisc(polydisc_ops(1), [[NCPolynomial(((float("nan"), ((1, 1),)),))]])


def test_vn_polydisc_pass_and_oracle_consistency(rng):
    Cs = strict_contractions(17, k=2, dim=4, norm_cap=0.7)
    ops = OperatorTuple([[Cs[0]], [Cs[1]]])
    pm = random_poly_matrix(rng, k=2)
    rep = vn_check_polydisc(ops, pm, base_grid=64)
    assert rep.verdict == "PASS"
    # the library grid sup must dominate a coarse independent grid
    coarse = torus_grid_sup(pm, k=2, grid=16)
    assert rep.rhs >= coarse - 1e-9


def test_vn_polydisc_inconclusive_on_unitaries(rng):
    U1 = np.diag(np.exp(1j * np.array([0.1, 0.9, 2.2, 3.0])))
    U2 = np.diag(np.exp(1j * np.array([1.0, 0.4, 2.8, 0.2])))
    ops = OperatorTuple([[U1], [U2]])
    pm = random_poly_matrix(rng, k=2)
    start = time.perf_counter()
    rep = vn_check_polydisc(ops, pm, base_grid=32)
    assert rep.verdict == "INCONCLUSIVE"
    # radius one is settled up front, not after a long power loop
    assert time.perf_counter() - start < 0.5


def test_vn_polydisc_rejects_multi_generator_rows():
    inst = generate("commuting_polynomials", 2, target_radius=0.5)
    with pytest.raises(ValueError):
        vn_check_polydisc(inst.ops, [[commutator_polynomial(1, 1, 2)]])


def polydisc_ops(k, seed=17, dim=3):
    return OperatorTuple([[C] for C in strict_contractions(seed, k=k, dim=dim, norm_cap=0.7)])


@pytest.mark.parametrize("k,grid", [(1, 16), (2, 12), (3, 6), (4, 4)])
@pytest.mark.parametrize("shape", [(1, 1), (1, 3), (2, 2), (3, 2), (3, 3)])
def test_vn_polydisc_grid_sup_matches_pointwise_oracle(k, grid, shape, rng):
    pm = random_poly_matrix(rng, k, rows=shape[0], cols=shape[1])
    # a monomial of degree >= grid folds onto its exponent mod grid
    high = ((1, 1),) * (grid + 2) + ((k, 1),) * (grid if k > 1 else 0)
    pm[-1][0] = NCPolynomial(pm[-1][0].terms + ((0.7 - 0.4j, high),))
    rep = vn_check_polydisc(polydisc_ops(k), pm, base_grid=grid, max_rounds=1)
    assert rep.details["grid"] == grid
    want = torus_grid_sup(pm, k=k, grid=grid)
    assert abs(rep.details["sup_grid"] - want) <= 1e-13 * want


@pytest.mark.parametrize("k,grid", [(1, 16), (2, 12), (3, 6), (4, 4)])
@pytest.mark.parametrize("shape", [(1, 1), (1, 3), (2, 2), (3, 2), (3, 3)])
@pytest.mark.parametrize("slab", [1, 5, None])
def test_vn_polydisc_grid_sup_with_every_first_residue_matches_pointwise_oracle(
    k, grid, shape, slab, rng, monkeypatch
):
    # z_1^j for j < grid + 3 puts a block at every residue of the first
    # variable, three of them twice, so the first axis is not reduced at all;
    # slab is the number of first-axis indices per slab (None: the default
    # byte budget, which holds the whole grid here)
    if slab is not None:
        monkeypatch.setattr(polydom.berezin, "_SLAB_BYTES", slab * 16 * shape[0] * shape[1] * grid ** (k - 1))
    pm = random_poly_matrix(rng, k, rows=shape[0], cols=shape[1])
    every = tuple(
        (complex(rng.standard_normal(), rng.standard_normal()),
         ((1, 1),) * j + ((k, 1),) * (j % 3 if k > 1 else 0))
        for j in range(grid + 3)
    )
    pm[0][-1] = NCPolynomial(pm[0][-1].terms + every)
    rep = vn_check_polydisc(polydisc_ops(k), pm, base_grid=grid, max_rounds=1)
    want = torus_grid_sup(pm, k=k, grid=grid)
    assert abs(rep.details["sup_grid"] - want) <= 1e-13 * want


def test_vn_polydisc_refines_the_grid_until_it_decides():
    # q = 1 - z_1 vanishes at z_1 = 1, the one point of the grid g = 1, so a
    # single round reads sup_grid 0 and cannot decide; the second round
    # (g = 2) samples z_1 = -1, where |q| = 2 is the sup
    q = NCPolynomial(((1.0, ()), (-1.0, ((1, 1),))))
    one = vn_check_polydisc(polydisc_ops(1), [[q]], base_grid=1, max_rounds=1)
    assert one.verdict == "INCONCLUSIVE"
    assert one.details["grid"] == 1 and one.details["sup_grid"] == 0.0
    three = vn_check_polydisc(polydisc_ops(1), [[q]], base_grid=1, max_rounds=3)
    assert three.verdict == "PASS"
    assert three.details["grid"] == 2 and three.details["sup_grid"] == 2.0


def test_vn_polydisc_streams_the_grid():
    # the grid of 96^3 points holds 2 x 2 values of 16 bytes each, 57 MB, and
    # one inverse FFT over all of it peaked at about 170 MB
    pm = random_poly_matrix(np.random.default_rng(5), k=3)
    ops = polydisc_ops(3, dim=4)
    tracemalloc.start()
    try:
        rep = vn_check_polydisc(ops, pm, base_grid=96, max_rounds=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.details["grid"] == 96
    assert peak < 16e6, peak


def test_vn_polydisc_two_by_two_takes_no_batched_svd(monkeypatch):
    # only the torus grid's stacks count: they end in the polynomial matrix's
    # shape or its transpose, while the identity orbit's (n, d, d) stacks of
    # the radius gate do not
    batched, grid_shapes = [], set()
    svd, norm = np.linalg.svd, np.linalg.norm

    def on_grid(a):
        return np.ndim(a) > 2 and np.shape(a)[-2:] in grid_shapes

    def spy_svd(a, *args, **kwargs):
        if on_grid(a):
            batched.append(np.shape(a))
        return svd(a, *args, **kwargs)

    def spy_norm(x, ord=None, *args, **kwargs):
        if ord == 2 and on_grid(x):
            batched.append(np.shape(x))
        return norm(x, ord, *args, **kwargs)

    def check(ops, pm, **kwargs):
        grid_shapes.clear()
        grid_shapes.update({(len(pm), len(pm[0])), (len(pm[0]), len(pm))})
        return vn_check_polydisc(ops, pm, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy_svd)
    monkeypatch.setattr(np.linalg, "norm", spy_norm)
    # the spy sees the batched SVD that 3 x 3 polynomial matrices still take
    pm3 = random_poly_matrix(np.random.default_rng(3), k=1, rows=3, cols=3)
    check(polydisc_ops(1), pm3, base_grid=16, max_rounds=1)
    assert batched
    batched.clear()
    # k = 3, 2 x 2 at the default grid of 48^3 points: the closed form only
    pm = random_poly_matrix(np.random.default_rng(5), k=3)
    rep = check(polydisc_ops(3, dim=4), pm)
    assert rep.verdict == "PASS" and rep.details["grid"] == 48
    # two columns or one row also take the smaller Gram matrix
    for shape in [(3, 2), (1, 3)]:
        pm = random_poly_matrix(np.random.default_rng(6), k=1, rows=shape[0], cols=shape[1])
        check(polydisc_ops(1), pm, base_grid=16, max_rounds=1)
    assert batched == []


@pytest.mark.parametrize("row_lengths", [(), (0,), (2, 1), (1, 2), (2, 0)])
def test_vn_polydisc_rejects_non_rectangular_matrices(row_lengths):
    q = NCPolynomial(((1.0, ((1, 1),)),))
    pm = [[q] * n for n in row_lengths]
    with pytest.raises(ValueError):
        vn_check_polydisc(polydisc_ops(2), pm)


@pytest.mark.parametrize("kwargs", [{"base_grid": 0}, {"max_rounds": 0}])
def test_vn_polydisc_rejects_empty_grid_or_no_rounds(kwargs):
    q = NCPolynomial(((1.0, ((1, 1),)),))
    with pytest.raises(ValueError):
        vn_check_polydisc(polydisc_ops(2), [[q]], **kwargs)


@pytest.mark.parametrize("letter", [(3, 1), (1, 2)])
def test_vn_polydisc_rejects_letters_outside_the_tuple(letter):
    q = NCPolynomial(((1.0, ((1, 1),)), (0.5, (letter,))))
    with pytest.raises(ValueError):
        vn_check_polydisc(polydisc_ops(2), [[q]])
