"""Generalized and constrained Berezin kernels and transforms.

The kernel of a compatible tuple (f, m, A, R, Q) maps h to the family of
blocks sqrt(prod_i b_{i,beta_i}) R^{1/2} A_{1,beta_1}^* ... A_{k,beta_k}^*
indexed by the truncated Fock basis. Its Gram matrix reproduces the weighted
binomial series of R, and conjugation by it intertwines A^* with the
universal-model adjoints.

The basis index runs factor 1 most significant over the per-factor word
lists, so K is R^{1/2} times one stack sqrt(b_{i,w}) A_{i,w}^* per factor,
over factor i's n_i^{<=D} words: one batched product per factor, no loop
over the basis. The stacks of A_{i,w} come from OperatorTuple.stack, which
multiplies every tuple word in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .cone import hermitian, positive, psd_range
from .config import DivergenceError, require_tol
from .cpmap import CPMapTuple, OperatorTuple, SeriesResult, _require_degree, hermitize
from .fock import (
    CompressedModel,
    ModelOperators,
    TruncatedFock,
    VarietySubspace,
    build_model,
    compress,
    variety_subspace,
)
from .words import NCPolynomial, PositiveSymbol, as_count, polyball_symbol


@dataclass
class BerezinKernel:
    """K as a (fockdim * rank) x d matrix, fock index most significant.

    series is the certified weighted series of R that the Gram matrix
    reproduces, None when some factor's radius is above 1 - radius_margin
    (or its series is refused); then tail_bound is NaN and certified False.
    """

    K: np.ndarray
    fock: TruncatedFock
    rank: int
    R2: np.ndarray  # rank x d, coordinates of R^{1/2} on its range
    tail_bound: float
    certified: bool
    series: Optional[SeriesResult]

    @property
    def d(self) -> int:
        return self.K.shape[1]

    def as_tensor(self) -> np.ndarray:
        # a zero R keeps one zero row per basis vector
        return self.K.reshape(self.fock.dim, max(self.rank, 1), self.d)

    def gram(self) -> np.ndarray:
        return hermitize(self.K.conj().T @ self.K)


def _kernel_tail_bound(
    phi: CPMapTuple,
    m: Sequence[int],
    R: np.ndarray,
    degree_cap: int,
) -> Tuple[float, Optional[SeriesResult]]:
    """Bound on the PSD mass of kernel rows beyond the truncation box, and the series of R.

    The rows of K with beta fixed outside factor i sum to the factor-i series
    sum_s C(s+m_i-1, m_i-1) Phi_i^s(Y_i), Y_i the other factors' series of R,
    and a word of length above degree_cap first occurs in Phi_i^s once
    s deg f_i > degree_cap. So the rows with |beta_i| > degree_cap weigh at
    most ||Y_i|| T_i <= ||S|| T_i, where S is the full series of R and
    T_i = sum_{s >= s_i} C(s+m_i-1, m_i-1) ||Phi_i^s||,
    s_i = ceil((degree_cap+1) / deg f_i); by Russo-Dye ||Phi_i^s|| is the
    identity orbit's eta_s. Summing over i covers every row outside the box.
    A factor that is not settled gives (NaN, None) before any series term is
    summed, and a refused series gives (NaN, None) too.
    """
    if not all(phi._settled(i) for i in range(1, phi.k + 1)):
        return float("nan"), None
    try:
        series = phi.weighted_series(m, R)
    except DivergenceError:
        return float("nan"), None
    tails = sum(
        phi._orbit(i).norm_sum(m[i - 1], start=-(-(degree_cap + 1) // f.degree()))
        for i, f in enumerate(phi.symbols, start=1)
    )
    return (float(np.linalg.norm(series.value, 2)) + series.tail_bound) * tails, series


def _require_model(model: ModelOperators, symbols: Sequence[PositiveSymbol],
                   m: Sequence[int], degree_cap: int) -> None:
    """ValueError unless model was built for these symbols, m and degree cap (by value)."""
    fock = model.fock
    want = (tuple(symbols), tuple(m), degree_cap)
    if (fock.symbols, fock.m, fock.degree_cap) != want:
        raise ValueError(
            f"the model was built for m = {fock.m}, degree cap {fock.degree_cap}; "
            f"needed: m = {want[1]}, degree cap {want[2]}, on the same symbols"
        )


def kernel(
    phi: CPMapTuple,
    m: Sequence[int],
    R: np.ndarray,
    degree_cap: int,
    model: Optional[ModelOperators] = None,
) -> BerezinKernel:
    """The generalized Berezin kernel of phi truncated at per-factor degree degree_cap.

    model is the truncated model for (phi.symbols, m, degree_cap), built
    here when not given; a model built for other values raises ValueError, as
    does an R that is not Hermitian PSD (cone.hermitian, cone.positive).
    The weighted series of R is summed once on phi, certified, for the tail
    bound and carried as the kernel's series; it is None, and no series term
    is summed, when some factor's radius is above 1 - radius_margin.

    K is built from its tensor-product structure: with F_i the stack of
    sqrt(b_{i,w}) A_{i,w}^* over factor i's words, the (dim, rank, d) tensor
    is R2 contracted with F_1, ..., F_k in turn, one matrix product (one
    BLAS call) per factor. That costs O(sum_i n_i^{<=D} d^3 + dim * rank * d^2),
    with the word products read from OperatorTuple.stack, built level by level.
    """
    m, degree_cap = _require_degree("m", m, phi.k, 1), as_count(degree_cap, "degree_cap")
    if model is not None:
        _require_model(model, phi.symbols, m, degree_cap)
    ops = phi.ops
    d = phi.dim
    R = hermitian(R, "R", d)
    _, lam, V = positive(R, phi.tol, what="R", vectors=True)
    keep = psd_range(lam, phi.tol)[0]
    rank = int(np.count_nonzero(keep))
    R2 = (np.sqrt(lam[keep])[:, None] * V[:, keep].conj().T) if rank else np.zeros((0, d))

    if model is None:
        model = build_model(phi.symbols, m, degree_cap, tol=phi.tol)[1]
    fock = model.fock
    r = max(rank, 1)  # a zero R keeps one zero row per basis vector
    T = R2 if rank else np.zeros((1, d))
    for i, words in enumerate(fock.factor_words, start=1):
        # F[x, w, y] = sqrt(b_{i,w}) conj(A_{i,w}[y, x]): factor i's stack as one d x (n_i d) matrix
        F = np.concatenate(ops.stack(i, fock.degree_cap)).transpose(2, 0, 1).conj()
        F *= np.sqrt([float(fock.weights[i - 1].entries[w]) for w in words])[:, None]
        T = (T.reshape(-1, d) @ F.reshape(d, -1)).reshape(-1, r, len(words), d).swapaxes(1, 2)
    K = T.reshape(-1, d)
    tail, series = _kernel_tail_bound(phi, m, R, degree_cap)
    return BerezinKernel(K=K, fock=fock, rank=rank, R2=R2, tail_bound=tail,
                         certified=bool(np.isfinite(tail)), series=series)


@dataclass
class ConstrainedKernel:
    """K_omega in coordinates of an orthonormal basis B of N_Q."""

    K: np.ndarray  # (dim_N * rank) x d
    base: BerezinKernel
    subspace: VarietySubspace
    compressed: CompressedModel
    range_residual: float

    @property
    def d(self) -> int:
        return self.K.shape[1]

    @property
    def rank(self) -> int:
        return self.base.rank

    def as_tensor(self) -> np.ndarray:
        return self.K.reshape(self.subspace.dim_N, max(self.rank, 1), self.d)

    def gram(self) -> np.ndarray:
        return hermitize(self.K.conj().T @ self.K)


def constrained_kernel(
    base: BerezinKernel,
    model: ModelOperators,
    sub: VarietySubspace,
) -> ConstrainedKernel:
    """K_omega = (P_N tensor I) K, returned in N_Q coordinates.

    base is the kernel of the tuple, model the model it was built on and sub
    the variety subspace of that model. The range of the unconstrained
    kernel lies inside N_Q tensor R-bar when the constraints annihilate A;
    the measured leakage is reported as range_residual rather than silently
    projected away.

    The projection runs block by block: the rows of K in grade block b are
    projected onto N_b. The leak L = (I - P_N) K stacks one block of rows
    per grade block, a block with dim N_b = 0 counting in full, so
    ||L||_2^2 is the largest eigenvalue of the d x d sum of the blocks'
    Gram matrices L_b^* L_b.
    """
    fock = base.fock
    _require_model(model, fock.symbols, fock.m, fock.degree_cap)
    T = base.K.reshape(fock.dim, -1)
    parts = []
    gram = np.zeros((base.d, base.d), dtype=np.complex128)
    for R, N in zip(sub.rows, sub.blocks):
        Tb = T[R]
        P = N.conj().T @ Tb
        L = (Tb - N @ P).reshape(-1, base.d)
        gram += L.conj().T @ L
        parts.append(P)
    K = np.vstack(parts).reshape(-1, base.d)
    leak = float(np.sqrt(np.linalg.norm(gram, 2)))
    return ConstrainedKernel(
        K=K, base=base, subspace=sub, compressed=compress(model, sub), range_residual=leak
    )


def _intertwine_residual(K: np.ndarray, rank: int, A: np.ndarray, S_adjoint) -> np.ndarray:
    """K A^* - (S^* tensor I_rank) K, without the Kronecker product: K's rows
    are model-basis-major, and S_adjoint(Y) is S^* @ Y."""
    d = K.shape[1]
    return K @ A.conj().T - S_adjoint(K.reshape(-1, rank * d)).reshape(-1, d)


def intertwine_check(kern: BerezinKernel, model: ModelOperators, ops: OperatorTuple) -> Dict[Tuple[int, int], Tuple[float, float]]:
    """Residuals ||K A_{i,j}^* - (W_{i,j}^* tensor I) K||, full and interior.

    The full residual concentrates on rows whose factor-i degree equals the
    truncation cap, where the model side is annihilated; interior rows are
    exact up to roundoff.
    """
    fock = kern.fock
    rank = max(kern.rank, 1)
    out: Dict[Tuple[int, int], Tuple[float, float]] = {}
    for (i, j, W) in model.all_W():
        diff = _intertwine_residual(kern.K, rank, ops.matrix(i, j), W.adjoint)
        full = float(np.linalg.norm(diff, 2))
        deg_i = fock.factor_degree_array(i - 1)
        interior_rows = np.repeat(deg_i < fock.degree_cap, rank)
        interior = float(np.linalg.norm(diff[interior_rows], 2)) if interior_rows.any() else 0.0
        out[(i, j)] = (full, interior)
    return out


def intertwine_check_constrained(ck: ConstrainedKernel, ops: OperatorTuple) -> Dict[Tuple[int, int], float]:
    """Residuals ||K_omega A_{i,j}^* - (S_{i,j}^* tensor I) K_omega||."""
    rank, comp = max(ck.rank, 1), ck.compressed
    return {
        (i, j): float(np.linalg.norm(_intertwine_residual(ck.K, rank, ops.matrix(i, j), partial(comp.adjoint, i, j)), 2))
        for (i, j) in sorted(comp.blocks)
    }


def transform(ck: ConstrainedKernel | BerezinKernel, chi: Optional[np.ndarray] = None) -> np.ndarray:
    """B_omega[chi] = K_omega^* (chi tensor I) K_omega; on a BerezinKernel,
    K^* (chi tensor I) K over the whole model.

    chi = None is the identity: the value is K^* K, and no dim_N x dim_N
    matrix is formed. An explicit chi must be dim_N x dim_N (ValueError).
    """
    if chi is None:
        return ck.K.conj().T @ ck.K
    T = ck.as_tensor()
    r = T.shape[0]
    chi = np.asarray(chi, dtype=np.complex128)
    if chi.shape != (r, r):
        raise ValueError(f"chi has shape {chi.shape}, expected {(r, r)}")
    return np.einsum("apx,ab,bpy->xy", T.conj(), chi, T, optimize=True)


def _letters(alphas: Sequence[Sequence[int]]) -> List[Tuple[int, int]]:
    """The letters (i, j) of the word alpha_1 ... alpha_k, factor i's word alpha_i."""
    return [(i, j) for i, w in enumerate(alphas, start=1) for j in w]


def model_word_value(comp: CompressedModel, alphas: Sequence[Sequence[int]]) -> np.ndarray:
    """S_{(alpha)} = S_{1,alpha_1} ... S_{k,alpha_k} on the compressed space,
    as a dense dim_N x dim_N matrix assembled from the word's blocks."""
    cols = comp.subspace.columns()
    out = np.zeros((comp.dim_N, comp.dim_N), dtype=np.complex128)
    for h, (a, block) in comp.word_blocks(_letters(alphas)).items():
        out[cols[h], cols[a]] = block
    return out


@dataclass
class SweepPoint:
    r: float
    gram_residual: float
    transforms: List[np.ndarray]


@dataclass
class SweepReport:
    points: List[SweepPoint]
    cauchy: List[List[float]]  # per chi, consecutive-diff norms
    notes: List[str]


def extended_transform_sweep(
    symbols: Sequence[PositiveSymbol],
    m: Sequence[int],
    ops: OperatorTuple,
    D_pos: np.ndarray,
    polys: Sequence[NCPolynomial],
    r_grid: Sequence[float],
    chis: Optional[Sequence[Optional[np.ndarray]]] = None,
    degree_cap: int = 8,
) -> SweepReport:
    """Evaluates the r-parametrized constrained transform along r_grid.

    Each grid point uses the tuple (f, m, rA, Delta_{f,rA}^m(D_pos), Q); the
    Gram identity K*K = D_pos is reported per point and Cauchy differences
    of the transform values across the grid stand in for the r -> 1 limit.
    chis defaults to the identity alone, passed to transform as None.
    A D_pos that is not Hermitian PSD raises ValueError; a defect that is not
    PSD is noted and shifted by its minimum eigenvalue.
    """
    symbols = tuple(symbols)
    m = tuple(m)
    polys = tuple(polys)
    k = len(symbols)
    D_pos = hermitian(D_pos, "D_pos", ops.dim)
    positive(D_pos, ops.tol, what="D_pos")
    for q in polys:
        if not q.is_homogeneous(k):
            raise ValueError("sweep requires homogeneous constraint polynomials")
    model = build_model(symbols, m, degree_cap, tol=ops.tol)[1]
    sub = variety_subspace(model, polys)
    notes: List[str] = []
    if chis is None:
        chis = [None]
    points: List[SweepPoint] = []
    for r in r_grid:
        r = float(r)
        rows = [[r * A for A in row] for row in ops.rows]
        ops_r = OperatorTuple(rows, tol=ops.tol, check_commutation=False)
        phi_r = CPMapTuple(symbols, ops_r, validate=False)
        R_r = hermitize(phi_r.defect(m, D_pos))
        psd, lam, _ = positive(R_r, ops.tol)
        if not psd:
            notes.append(f"r={r}: defect not PSD (min eig {lam[0]:.3e})")
            R_r = R_r - lam[0] * np.eye(R_r.shape[0])
        ck = constrained_kernel(kernel(phi_r, m, R_r, degree_cap, model), model, sub)
        gram_res = float(np.linalg.norm(ck.gram() - D_pos, 2))
        vals = [transform(ck, chi) for chi in chis]
        points.append(SweepPoint(r=r, gram_residual=gram_res, transforms=vals))
    cauchy: List[List[float]] = []
    for ci in range(len(chis)):
        diffs = [
            float(np.linalg.norm(points[t + 1].transforms[ci] - points[t].transforms[ci], 2))
            for t in range(len(points) - 1)
        ]
        cauchy.append(diffs)
    return SweepReport(points=points, cauchy=cauchy, notes=notes)


# --- von Neumann style inequality checks -------------------------------------


# the relative change of the model-side norm over two cap steps that counts as stabilized
_VN_STAB_REL = 1e-6


@dataclass
class VNReport:
    verdict: str  # "PASS" | "FAILED" | "INCONCLUSIVE"
    lhs: float
    rhs: float
    factor: float
    details: Dict[str, object]


def _vn_terms(symbols: Tuple[PositiveSymbol, ...], terms) -> List[Tuple[np.ndarray, Sequence, Sequence]]:
    """The terms with each C as a complex matrix; ValueError naming the first
    term whose words leave the model or whose C is not square or not of term 0's shape."""
    arities = tuple(f.arity for f in symbols)
    out: List[Tuple[np.ndarray, Sequence, Sequence]] = []
    for t, (C, alpha, beta) in enumerate(terms):
        for name, words in (("alpha", alpha), ("beta", beta)):
            if len(words) != len(arities) or any(j not in range(1, n + 1) for w, n in zip(words, arities) for j in w):
                raise ValueError(f"vn term {t}: {name} must be {len(arities)} words with letters "
                                 f"in 1..n_i for arities {arities}, got {words}")
        C = np.atleast_2d(np.asarray(C, dtype=np.complex128))
        first = out[0][0].shape if out else C.shape
        if C.ndim != 2 or C.shape[0] != C.shape[1] or C.shape != first:
            raise ValueError(f"vn term {t}: coefficient block of shape {C.shape} is not square "
                             f"or not of term 0's shape {first}")
        out.append((C, alpha, beta))
    return out


def vn_check_model(
    symbols: Sequence[PositiveSymbol],
    m: Sequence[int],
    ops: OperatorTuple,
    D_pos: np.ndarray,
    terms: Sequence[Tuple[np.ndarray, Sequence[Sequence[int]], Sequence[Sequence[int]]]],
    polys: Sequence[NCPolynomial] = (),
    degree_cap: int = 6,
    tol: float = 1e-8,
) -> VNReport:
    """Checks ||sum A_(alpha) D A_(beta)^* (x) C|| <= ||D|| ||sum S_(alpha) S_(beta)^* (x) C||.

    terms is a list of (C, alpha, beta) with C a q x q coefficient block, one
    q for all terms, and alpha, beta k-tuples of words with letters in
    1..n_i; D_pos must be Hermitian PSD. Both are checked before any model
    is built (ValueError). The model side is evaluated, on models built with
    ops.tol, at three consecutive truncation degrees; since truncated norms
    only increase with the cap, an unstabilized right side yields
    INCONCLUSIVE, never PASS.
    """
    symbols, m, tol = tuple(symbols), tuple(m), require_tol(tol)
    D_pos = hermitian(D_pos, "D_pos", ops.dim)
    positive(D_pos, ops.tol, what="D_pos")
    terms = _vn_terms(symbols, terms)
    d = ops.dim
    qdim = terms[0][0].shape[0] if terms else 1
    lhs_mat = np.zeros((d * qdim, d * qdim), dtype=np.complex128)
    for C, alpha, beta in terms:
        Aa = ops.monomial(_letters(alpha))
        Ab = ops.monomial(_letters(beta))
        lhs_mat += np.kron(Aa @ D_pos @ Ab.conj().T, C)
    lhs = float(np.linalg.norm(lhs_mat, 2))
    dnorm = float(np.linalg.norm(D_pos, 2))

    rhs_values: List[float] = []
    for cap in (degree_cap, degree_cap + 1, degree_cap + 2):
        _, model = build_model(symbols, m, cap, tol=ops.tol)
        sub = variety_subspace(model, polys)
        comp = compress(model, sub)
        r = comp.dim_N
        rhs_mat = np.zeros((r * qdim, r * qdim), dtype=np.complex128)
        for C, alpha, beta in terms:
            Sa = model_word_value(comp, alpha)
            Sb = model_word_value(comp, beta)
            rhs_mat += np.kron(Sa @ Sb.conj().T, C)
        rhs_values.append(float(np.linalg.norm(rhs_mat, 2)))
    rel_diffs = [
        abs(rhs_values[t + 1] - rhs_values[t]) / max(rhs_values[t + 1], 1e-300)
        for t in range(2)
    ]
    stabilized = all(x <= _VN_STAB_REL for x in rel_diffs)
    rhs = rhs_values[-1]
    if not stabilized:
        verdict = "INCONCLUSIVE"
    elif lhs <= dnorm * rhs * (1.0 + tol):
        verdict = "PASS"
    else:
        verdict = "FAILED"
    return VNReport(
        verdict=verdict,
        lhs=lhs,
        rhs=rhs,
        factor=dnorm,
        details={"rhs_by_degree": rhs_values, "rel_diffs": rel_diffs, "stabilized": stabilized},
    )


def _spectral_norms(V: np.ndarray) -> np.ndarray:
    """||V[:, :, n]||_2 for each n, read off the smaller Gram matrix.

    One row or column: the Euclidean norm. Two: the square root of the top
    eigenvalue of the Hermitian 2 x 2 Gram [[p, q], [q*, r]],
    (p+r)/2 + sqrt(((p-r)/2)^2 + |q|^2), where both terms under the root are
    non-negative. Otherwise a batched SVD.
    """
    if V.shape[0] > V.shape[1]:
        V = V.transpose(1, 0, 2)  # V^T has the singular values of V
    if V.shape[0] > 2:
        return np.linalg.norm(np.moveaxis(V, -1, 0), ord=2, axis=(1, 2))
    sq = (V.real ** 2 + V.imag ** 2).sum(axis=1)
    if V.shape[0] == 1:
        return np.sqrt(sq[0])
    p, r = sq
    q = np.sum(V[0] * V[1].conj(), axis=0)
    half = (p - r) / 2.0
    return np.sqrt((p + r) / 2.0 + np.sqrt(half * half + q.real ** 2 + q.imag ** 2))


_SLAB_BYTES = 1 << 20  # grid values per slab; a slab still holds one first-axis index


def _torus_sup(
    blocks: Dict[Tuple[int, ...], np.ndarray], rows: int, cols: int, k: int, g: int
) -> float:
    """max_n ||sum_e B_e z^e||_2 over the torus grid z_i = exp(2 pi i n_i / g).

    Each block B_e is added at e mod g, exact on the grid since z_i^g = 1
    there. The first axis keeps only the residues e_1 mod g that occur, and
    ifftn(norm="forward") runs over the other k - 1 axes. The first axis is
    then walked a slab of grid indices n_1 at a time: each slab is one
    tensordot with the phases z_1^{e_1}, gathered from the root table
    exp(2 pi i n / g), and holds at most _SLAB_BYTES (and at least one
    index), so the full grid is never held.
    """
    first = sorted({e[0] % g for e in blocks})
    slot = {r: j for j, r in enumerate(first)}
    # the residue axis is last, so each slab's tensordot reads it in place
    reduced = np.zeros((rows, cols) + (g,) * (k - 1) + (len(first),), dtype=np.complex128)
    for e, B in blocks.items():
        reduced[(slice(None), slice(None)) + tuple(x % g for x in e[1:]) + (slot[e[0] % g],)] += B
    if k > 1:
        reduced = np.fft.ifftn(reduced, axes=tuple(range(2, k + 1)), norm="forward")
    root = np.exp(2j * np.pi / g * np.arange(g))
    residues = np.array(first, dtype=int)
    step = max(1, _SLAB_BYTES // (reduced.itemsize * rows * cols * g ** (k - 1)))
    best = 0.0
    for start in range(0, g, step):
        phases = root[np.outer(residues, np.arange(start, min(start + step, g))) % g]
        slab = np.tensordot(reduced, phases, axes=1)
        best = max(best, float(_spectral_norms(slab.reshape(rows, cols, -1)).max()))
    return best


def vn_check_polydisc(
    C_ops: OperatorTuple,
    poly_matrix: Sequence[Sequence[NCPolynomial]],
    tol: float = 1e-8,
    base_grid: Optional[int] = None,
    max_rounds: int = 3,
) -> VNReport:
    """Checks ||[q_{s,t}(C)]|| <= sqrt(b) sup_{|z_i|=1} ||[q_{s,t}(z)]||.

    b = prod_i sum_s ||C_i^s||^2. The supremum is sampled on the torus grid
    z_i = exp(2 pi i n_i / g) and refined with the Lipschitz bound of the
    polynomial matrix; PASS is claimed only against the grid value (a lower
    bound of the sup), FAILED only against the Lipschitz-corrected upper
    bound.

    The grid values are streamed by _torus_sup, which transforms only the
    exponents that occur: the first variable keeps only the residues
    e_1 mod g of the polynomial matrix and is walked a slab of grid indices
    at a time, so no (rows, cols, g^k) array is held. On a 2 x 2 matrix in
    three variables (2-vCPU host, one BLAS thread) the default g = 48 grid
    takes about 3.6 ms and 2.5 MB traced where one inverse FFT over the
    whole grid took 11 ms and 21 MB, and g = 192 takes 0.4-0.7 s and 14 MB
    where it took 2.1 s and 1.36 GB. The norm at each point is read off
    the smaller Gram matrix: the Euclidean norm for one row or column, a
    closed form for two, and a batched SVD from 3 x 3 on.
    """
    k, tol = C_ops.k, require_tol(tol)
    if any(n != 1 for n in C_ops.arities):
        raise ValueError("polydisc mode needs one generator per factor")
    rows = len(poly_matrix)
    cols = len(poly_matrix[0]) if rows else 0
    if cols == 0 or any(len(row) != cols for row in poly_matrix):
        raise ValueError(
            "poly_matrix must be a non-empty rectangle; got row lengths "
            f"{[len(row) for row in poly_matrix]}"
        )
    d = C_ops.dim
    lhs_mat = np.zeros((rows * d, cols * d), dtype=np.complex128)
    # evaluate_poly rejects letters outside the tuple before the exponent table reads them
    for s in range(rows):
        for t in range(cols):
            lhs_mat[s * d:(s + 1) * d, t * d:(t + 1) * d] = C_ops.evaluate_poly(poly_matrix[s][t])
    lhs = float(np.linalg.norm(lhs_mat, 2))

    # ||C_i^s||^2 is the orbit norm of X -> C_i X C_i^*, whose tuple radius is rho(C_i)
    phi = CPMapTuple([polyball_symbol(1)] * k, C_ops)
    b = 1.0
    for i in range(1, k + 1):
        if not phi._settled(i):
            b = float("inf")
            break
        b *= phi._orbit(i).norm_sum(1)
    if not np.isfinite(b):
        return VNReport("INCONCLUSIVE", lhs, float("nan"), float("nan"),
                        {"reason": "power-norm sum not certified (radius >= 1?)"})
    factor = float(np.sqrt(b))

    # exponent table: coefficient block per commutative monomial degree
    blocks: Dict[Tuple[int, ...], np.ndarray] = {}
    for s in range(rows):
        for t in range(cols):
            for c, mono in poly_matrix[s][t].terms:
                e = [0] * k
                for (i, _) in mono:
                    e[i - 1] += 1
                key = tuple(e)
                if key not in blocks:
                    blocks[key] = np.zeros((rows, cols), dtype=np.complex128)
                blocks[key][s, t] += c
    lip = [
        sum(e[i] * float(np.linalg.norm(B, 2)) for e, B in blocks.items())
        for i in range(k)
    ]

    if base_grid is None:
        base_grid = {1: 4096, 2: 256, 3: 48}.get(k, 32)
    if base_grid < 1 or max_rounds < 1:
        raise ValueError(f"need base_grid >= 1 and max_rounds >= 1, got {base_grid}, {max_rounds}")
    g = base_grid
    details: Dict[str, object] = {"b": b}
    for round_idx in range(max_rounds):
        sup_grid = _torus_sup(blocks, rows, cols, k, g)
        h = np.pi / g  # max arc distance to nearest grid point per axis
        sup_upper = sup_grid + sum(L * h for L in lip)
        details.update({"grid": g, "sup_grid": sup_grid, "sup_upper": sup_upper})
        if lhs <= factor * sup_grid * (1.0 + tol):
            return VNReport("PASS", lhs, sup_grid, factor, details)
        if lhs > factor * sup_upper * (1.0 + tol):
            return VNReport("FAILED", lhs, sup_grid, factor, details)
        g *= 2
    return VNReport("INCONCLUSIVE", lhs, sup_grid, factor, details)
