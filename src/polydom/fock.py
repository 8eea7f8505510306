"""Truncated Fock spaces, weighted-shift universal models, and variety compressions.

The model space is a tensor product of per-factor truncated full Fock
spaces, each spanned by words of length <= D in graded-lex order, factor 1
most significant. The shifts W_{i,j} carry the square-root weight ratios of
the per-factor weight tables and annihilate top-degree vectors, so the
truncated space is co-invariant and all adjoint-side identities are exact.

The space is graded by the per-factor degree profile (|beta_1|, ...,
|beta_k|) of its basis vectors. W_{i,j} raises the grade by e_i and a
homogeneous constraint q raises it by its profile, so for homogeneous
constraints the constraint span M_Q and its complement N_Q are sums of
per-grade blocks, and variety_subspace works block by block with exactly the
thresholds of one dense computation. A constraint that is not homogeneous
makes the whole space one block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from .config import ResourceCapError, Tolerances, default_tolerances
from .cpmap import MultiDegree, defect_sweep
from .words import (
    NCPolynomial,
    PositiveSymbol,
    WeightTable,
    Word,
    enumerate_words,
    require_valid,
    weight_table,
)


@dataclass(frozen=True)
class TruncatedFock:
    """Index bookkeeping for the truncated tensor-product Fock space."""

    symbols: Tuple[PositiveSymbol, ...]
    m: MultiDegree
    degree_cap: int
    factor_words: Tuple[Tuple[Word, ...], ...]
    factor_index: Tuple[Dict[Word, int], ...]
    factor_dims: Tuple[int, ...]
    strides: Tuple[int, ...]
    dim: int
    weights: Tuple[WeightTable, ...]

    @property
    def k(self) -> int:
        return len(self.symbols)

    @property
    def arities(self) -> Tuple[int, ...]:
        return tuple(f.arity for f in self.symbols)

    def index_of(self, beta: Sequence[Sequence[int]]) -> int:
        if len(beta) != self.k:
            raise ValueError(f"expected {self.k} words, got {len(beta)}")
        g = 0
        for i, w in enumerate(beta):
            g += self.factor_index[i][Word(w)] * self.strides[i]
        return g

    def words_at(self, g: int) -> Tuple[Word, ...]:
        out = []
        for i in range(self.k):
            idx = (g // self.strides[i]) % self.factor_dims[i]
            out.append(self.factor_words[i][idx])
        return tuple(out)

    def factor_degree_array(self, i: int) -> np.ndarray:
        """len(beta_i) for every global basis index, as a vector."""
        degs = np.array([len(w) for w in self.factor_words[i]], dtype=np.int64)
        idx = (np.arange(self.dim) // self.strides[i]) % self.factor_dims[i]
        return degs[idx]

    def max_degree_array(self) -> np.ndarray:
        out = np.zeros(self.dim, dtype=np.int64)
        for i in range(self.k):
            out = np.maximum(out, self.factor_degree_array(i))
        return out

    @property
    def vacuum_index(self) -> int:
        return 0


class ModelOperators:
    """The weighted left creation operators W_{i,j} on the truncated space."""

    def __init__(self, fock: TruncatedFock, tol: Tolerances):
        self.fock = fock
        self.tol = tol
        self._W: Dict[Tuple[int, int], sp.csr_matrix] = {}
        self._diag_maps: Dict[int, sp.csr_matrix] = {}
        for i in range(1, fock.k + 1):
            for j in range(1, fock.arities[i - 1] + 1):
                self._build_shift(i, j)

    def _build_shift(self, i: int, j: int) -> None:
        fock = self.fock
        words = fock.factor_words[i - 1]
        index = fock.factor_index[i - 1]
        b = fock.weights[i - 1]
        rows: List[int] = []
        cols: List[int] = []
        vals: List[float] = []
        for c, w in enumerate(words):
            if len(w) >= fock.degree_cap:
                continue  # annihilate top degree
            target = Word((j,) + tuple(w))
            r = index[target]
            vals.append(float(np.sqrt(b.value(w) / b.value(target))))
            rows.append(r)
            cols.append(c)
        d_i = fock.factor_dims[i - 1]
        shift = sp.csr_matrix((vals, (rows, cols)), shape=(d_i, d_i))
        pre = int(np.prod(fock.factor_dims[: i - 1], initial=1))
        post = int(np.prod(fock.factor_dims[i:], initial=1))
        W = sp.kron(sp.identity(pre, format="csr"), sp.kron(shift, sp.identity(post, format="csr"), format="csr"), format="csr")
        self._W[(i, j)] = W

    def W(self, i: int, j: int) -> sp.csr_matrix:
        return self._W[(i, j)]

    def all_W(self) -> List[Tuple[int, int, sp.csr_matrix]]:
        return [(i, j, W) for (i, j), W in sorted(self._W.items())]

    def W_word(self, i: int, word: Sequence[int]) -> sp.csr_matrix:
        out = sp.identity(self.fock.dim, format="csr")
        for j in word:
            out = out @ self._W[(i, int(j))]
        return out

    def evaluate_poly(self, q: NCPolynomial) -> sp.csr_matrix:
        return q.evaluate(self.W, sp.identity(self.fock.dim, format="csr")).tocsr()

    # --- diagonal CP-map engine ------------------------------------------
    # Every W word maps basis vectors to scaled basis vectors, so the maps
    # Phi_i preserve diagonals; the diagonal action is a sparse nonnegative
    # matrix applied to the vector of diagonal entries.

    def _diag_map(self, i: int) -> sp.csr_matrix:
        hit = self._diag_maps.get(i)
        if hit is not None:
            return hit
        f = self.fock.symbols[i - 1]
        acc = None
        for w, a in f.coeffs.items():
            if a == 0 or len(w) == 0:
                continue
            Ww = self.W_word(i, w)
            S = Ww.multiply(Ww.conj())  # entrywise |.|^2; real here
            term = float(a) * S
            acc = term if acc is None else acc + term
        if acc is None:
            acc = sp.csr_matrix((self.fock.dim, self.fock.dim))
        acc = acc.tocsr()
        self._diag_maps[i] = acc
        return acc

    def apply_diag(self, i: int, u: np.ndarray) -> np.ndarray:
        """diag(Phi_i(diag(u))) as a vector."""
        return self._diag_map(i) @ np.asarray(u, dtype=np.float64)

    def defect_diag_grid(self, m: Sequence[int], u: np.ndarray) -> Dict[MultiDegree, np.ndarray]:
        return defect_sweep(m, np.asarray(u, dtype=np.float64), self.apply_diag)


def build_model(
    symbols: Sequence[PositiveSymbol],
    m: Sequence[int],
    degree_cap: int,
    tol: Tolerances | None = None,
    exact_weights: bool = False,
) -> Tuple[TruncatedFock, ModelOperators]:
    """Universal weighted shifts for (f_1..f_k, m) truncated at degree_cap."""
    tol = tol or default_tolerances()
    symbols = tuple(symbols)
    m = tuple(int(x) for x in m)
    if len(m) != len(symbols):
        raise ValueError(f"{len(symbols)} symbols but multi-degree of length {len(m)}")
    if any(mi < 1 for mi in m):
        raise ValueError(f"m must be >= 1 componentwise, got {m}")
    if degree_cap < 1:
        raise ValueError(f"degree_cap must be >= 1, got {degree_cap}")
    for f in symbols:
        require_valid(f)
    dims = []
    for f in symbols:
        n = f.arity
        dims.append((n ** (degree_cap + 1) - 1) // (n - 1) if n > 1 else degree_cap + 1)
    dim = int(np.prod(dims))
    if dim > tol.max_fock_dim:
        raise ResourceCapError(
            f"model dimension {dim} exceeds the cap {tol.max_fock_dim}"
        )
    factor_words = tuple(tuple(enumerate_words(f.arity, degree_cap, tol)) for f in symbols)
    factor_index = tuple({w: i for i, w in enumerate(ws)} for ws in factor_words)
    strides = tuple(int(np.prod(dims[i + 1:], initial=1)) for i in range(len(dims)))
    weights = tuple(
        weight_table(f, mi, degree_cap, exact=exact_weights, tol=tol)
        for f, mi in zip(symbols, m)
    )
    if not exact_weights:
        weights = tuple(
            WeightTable(w.m, {k: float(v) for k, v in w.entries.items()}, False)
            for w in weights
        )
    fock = TruncatedFock(
        symbols=symbols,
        m=m,
        degree_cap=degree_cap,
        factor_words=factor_words,
        factor_index=factor_index,
        factor_dims=tuple(dims),
        strides=strides,
        dim=dim,
        weights=weights,
    )
    return fock, ModelOperators(fock, tol)


@dataclass
class VarietySubspace:
    """Orthocomplement of the constraint span, with invariance diagnostics."""

    basis_N: np.ndarray  # dim x r, orthonormal columns
    polys: Tuple[NCPolynomial, ...]
    invariance_residual_full: float
    invariance_residual_interior: float

    @property
    def dim_N(self) -> int:
        return self.basis_N.shape[1]

    def projector(self) -> np.ndarray:
        return self.basis_N @ self.basis_N.conj().T


def _grade_blocks(model: ModelOperators, polys: Tuple[NCPolynomial, ...]):
    """The blocks on which M_Q splits, and each shift's block maps.

    The grade of a basis vector is its per-factor degree profile
    (|beta_1|, ..., |beta_k|) when every constraint is homogeneous; otherwise
    every vector has the empty grade and the whole space is one block.
    Returns the basis indices of each block (in lexicographic grade order),
    ``sources(shift)``, whose entry b is the block that an operator of that
    grade shift maps into block b (None when there is none), and for each
    W_{i,j} of ``model.all_W()`` one entry per target block h: None, or
    ``(a, take, scale)`` with W[rows[h], rows[a]] @ F == scale[:, None] *
    F[take]. Each W_{i,j} is a weighted shift, one nonzero per row and
    column, so its block maps are gathers and need no sparse indexing.
    """
    fock = model.fock
    if all(q.is_homogeneous(fock.k) for q in polys):
        grades = np.stack([fock.factor_degree_array(i) for i in range(fock.k)], axis=1)
    else:
        grades = np.zeros((fock.dim, 0), dtype=np.int64)
    radix = (fock.degree_cap + 1) ** np.arange(grades.shape[1] - 1, -1, -1)
    codes, block_of = np.unique(grades @ radix, return_inverse=True)
    keys = (codes[:, None] // radix) % (fock.degree_cap + 1)
    order = np.argsort(block_of, kind="stable")
    counts = np.bincount(block_of, minlength=len(codes))
    ends = np.cumsum(counts)
    starts = ends - counts
    rows = [order[s:e] for s, e in zip(starts, ends)]
    local = np.empty(fock.dim, dtype=np.int64)
    local[order] = np.arange(fock.dim) - np.repeat(starts, counts)
    index = {tuple(key): b for b, key in enumerate(keys.tolist())}

    def sources(shift: Sequence[int]) -> List[int | None]:
        # one-block keys have length 0, and so does every shift cut to them
        shift = np.asarray(shift, dtype=np.int64)[: keys.shape[1]]
        return [index.get(tuple(key)) for key in (keys - shift).tolist()]

    maps = []
    unit = np.eye(fock.k, dtype=np.int64)
    for (i, _, W) in model.all_W():
        row = np.repeat(np.arange(fock.dim), np.diff(W.indptr))
        take = np.zeros(fock.dim, dtype=np.int64)
        take[row] = local[W.indices]
        scale = np.zeros(fock.dim)
        scale[row] = W.data
        take, scale = take[order], scale[order]
        maps.append([
            None if a is None else (a, take[s:e], scale[s:e])
            for s, e, a in zip(starts, ends, sources(unit[i - 1]))
        ])
    return rows, sources, maps


def _svds(mats: Sequence[np.ndarray], full_matrices: bool) -> List[Tuple[np.ndarray, np.ndarray]]:
    """(U, s) of np.linalg.svd for each matrix, one stacked call per shape."""
    groups: Dict[Tuple[int, int], List[int]] = {}
    for t, X in enumerate(mats):
        groups.setdefault(X.shape, []).append(t)
    out: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
    for idx in groups.values():
        U, s, _ = np.linalg.svd(np.stack([mats[t] for t in idx]), full_matrices=full_matrices)
        for pos, t in enumerate(idx):
            out[t] = (U[pos], s[pos])
    return [out[t] for t in range(len(mats))]


def _max_norm(mats: Sequence[np.ndarray]) -> float:
    """max_t ||mats[t]||_2, one stacked singular-value call per shape."""
    groups: Dict[Tuple[int, int], List[np.ndarray]] = {}
    for X in mats:
        if X.size:
            groups.setdefault(X.shape, []).append(X)
    return max(
        (float(np.linalg.svd(np.stack(g), compute_uv=False)[:, 0].max()) for g in groups.values()),
        default=0.0,
    )


def _assemble(dim: int, rows: List[np.ndarray], blocks: Sequence[np.ndarray]) -> np.ndarray:
    """Dense dim x r basis from per-block bases, columns in block order."""
    out = np.zeros((dim, sum(B.shape[1] for B in blocks)), dtype=np.complex128)
    col = 0
    for R, B in zip(rows, blocks):
        out[R, col:col + B.shape[1]] = B
        col += B.shape[1]
    return out


def variety_subspace(
    model: ModelOperators,
    Q_polys: Sequence[NCPolynomial],
    dense_cap: int = 4096,
) -> VarietySubspace:
    """N = truncated space minus the W-invariant span of the q(W) ranges.

    The constraint span M is the smallest left-W-invariant subspace
    containing every vector q(W) W_{(beta)} vacuum; since those seed vectors
    are exactly the columns of q(W), M is computed as the invariant closure
    of the stacked column spaces.

    The work is done per grade block. W_{i,j} maps the basis vectors of
    grade g = (|beta_1|, ..., |beta_k|) into grade g + e_i, and a
    homogeneous q maps grade g into g + profile(q), so the seeds, the
    closure M, its orthocomplement N and the adjoint-invariance residuals
    all split into blocks, and each SVD is only as wide as one block (at
    most 64 on the default two-factor spec at degree cap 6, where the space
    has dimension 889). The thresholds stay absolute and global: cutoff
    times ||seeds||_2 (the largest block norm) for seeds, cutoff *
    max(||seeds||_2, 1) for children, cutoff times the largest singular
    value of the M basis for the complement. Each P_M W_{i,j}^* P_N has at
    most one nonzero block per block row and column, so its 2-norm is the
    largest block norm. When some constraint is not homogeneous the whole
    space is one block, and the same steps are one dense computation.
    The columns of basis_N come in block order; the M basis is kept per
    block only, for the invariance residuals.
    """
    fock = model.fock
    if fock.dim > dense_cap:
        raise ResourceCapError(
            f"variety computation is dense; dim {fock.dim} exceeds {dense_cap}"
        )
    cutoff = model.tol.svd_cutoff
    polys = tuple(Q_polys)
    bad = sorted({letter for q in polys for letter in q.letters_outside(fock.arities)})
    if bad:
        raise ValueError(
            f"constraint letters (i, j) in {bad} lie outside a model with arities {fock.arities}"
        )
    if not polys:
        return VarietySubspace(
            basis_N=np.eye(fock.dim, dtype=np.complex128),
            polys=polys,
            invariance_residual_full=0.0,
            invariance_residual_interior=0.0,
        )
    rows, sources, shifts = _grade_blocks(model, polys)
    nb = len(rows)
    empty = [np.zeros((len(R), 0), dtype=np.complex128) for R in rows]

    # seeds: block b holds the columns of each q(W) that land in it
    parts: List[List[np.ndarray]] = [[] for _ in rows]
    for q in polys:
        Q = model.evaluate_poly(q).toarray()
        profile = q.degree_profiles(fock.k)[0] if q.terms else (0,) * fock.k
        for b, a in enumerate(sources(profile)):
            if a is not None:
                parts[b].append(Q[np.ix_(rows[b], rows[a])])
    seeded = [b for b in range(nb) if parts[b]]
    seeds = dict(zip(seeded, _svds([np.hstack(parts[b]) for b in seeded], False)))
    scale0 = max((float(s[0]) for _, s in seeds.values()), default=0.0)
    basis = list(empty)
    if scale0 > 0.0:
        for b, (U, s) in seeds.items():
            basis[b] = U[:, s > cutoff * scale0]

    # invariant closure by breadth-first frontier: only the directions added
    # last round can generate anything new, so the children of the frontier
    # are orthonormalized against the accumulated basis of their block
    frontier = list(basis)
    while any(F.shape[1] for F in frontier):
        targets, stacks = [], []
        for h in range(nb):
            children = []
            for maps in shifts:
                if maps[h] is not None and frontier[maps[h][0]].shape[1]:
                    a, take, scale = maps[h]
                    children.append(scale[:, None] * frontier[a][take])
            if children:
                C = np.hstack(children)
                B = basis[h]
                C = C - B @ (B.conj().T @ C)
                C = C - B @ (B.conj().T @ C)
                targets.append(h)
                stacks.append(C)
        frontier = list(empty)
        for h, (U, s) in zip(targets, _svds(stacks, False)):
            frontier[h] = U[:, s > cutoff * max(scale0, 1.0)]
            basis[h] = np.hstack([basis[h], frontier[h]])

    # orthocomplement block by block, via the full SVD of each M block
    spanned = [b for b in range(nb) if basis[b].shape[1]]
    if spanned:
        full_svd = dict(zip(spanned, _svds([basis[b] for b in spanned], True)))
        smax = max(float(s[0]) for _, s in full_svd.values())
        complement = [
            full_svd[b][0][:, int(np.count_nonzero(full_svd[b][1] > cutoff * smax)):]
            if b in full_svd else np.eye(len(rows[b]), dtype=np.complex128)
            for b in range(nb)
        ]
        basis_N = _assemble(fock.dim, rows, complement)
    else:
        basis_N = np.eye(fock.dim, dtype=np.complex128)
    if basis_N.shape[1] == 0:
        raise ValueError("the variety subspace is {0}; no compression exists")

    # adjoint invariance of N: ||P_M W^* P_N|| per shift, full and interior.
    # W^* sends N block h into block a only, and M_a^* W^* N_h = (W M_a)^* N_h;
    # the interior part keeps the rows of block a below the top degree.
    full: List[np.ndarray] = []
    interior: List[np.ndarray] = []
    if spanned:
        low_rows = fock.max_degree_array() <= fock.degree_cap - 1
        for maps in shifts:
            for h, m in enumerate(maps):
                if m is None:
                    continue
                a, take, scale = m
                WM = basis[a][take]
                full.append((scale[:, None] * WM).conj().T @ complement[h])
                low = low_rows[rows[a]][take]
                interior.append(((scale * low)[:, None] * WM).conj().T @ complement[h])
    return VarietySubspace(
        basis_N=basis_N,
        polys=polys,
        invariance_residual_full=_max_norm(full),
        invariance_residual_interior=_max_norm(interior),
    )


@dataclass
class CompressedModel:
    """S_{i,j} = P_N W_{i,j} |_N in an orthonormal basis of N."""

    S: Dict[Tuple[int, int], np.ndarray]
    basis: np.ndarray
    q_residuals_full: List[float]
    q_residuals_interior: List[float]

    def poly_value(self, q: NCPolynomial) -> np.ndarray:
        r = self.basis.shape[1]
        eye = np.eye(r, dtype=np.complex128)
        return q.evaluate(lambda i, j: self.S[(i, j)], eye)


def compress(model: ModelOperators, subspace: VarietySubspace) -> CompressedModel:
    fock = model.fock
    B = subspace.basis_N
    S: Dict[Tuple[int, int], np.ndarray] = {}
    for (i, j, W) in model.all_W():
        S[(i, j)] = B.conj().T @ (W @ B)
    out = CompressedModel(S=S, basis=B, q_residuals_full=[], q_residuals_interior=[])
    deg = fock.max_degree_array()
    for q in subspace.polys:
        qS = out.poly_value(q)
        out.q_residuals_full.append(float(np.linalg.norm(qS, 2)))
        # restrict to compressed vectors supported below the truncation boundary
        cutoff = fock.degree_cap - max(q.max_degree(), 1)
        high = B[deg > cutoff]
        if high.shape[0] == 0:
            C = np.eye(B.shape[1], dtype=np.complex128)
        else:
            # a full Vt is needed only when high has fewer rows than columns
            _, s, Vt = np.linalg.svd(high, full_matrices=high.shape[0] < high.shape[1])
            rank = int(np.count_nonzero(s > model.tol.svd_cutoff * max(s[0], 1e-300))) if s.size else 0
            C = Vt.conj().T[:, rank:]
        if C.shape[1] == 0:
            out.q_residuals_interior.append(0.0)
        else:
            out.q_residuals_interior.append(float(np.linalg.norm(qS @ C, 2)))
    return out


@dataclass
class DomainCheckReport:
    interior_degree: int
    min_entries: Dict[MultiDegree, float]
    ok: bool


def domain_check_model(
    model: ModelOperators,
    interior_degree: int | None = None,
    tol: float = 1e-10,
) -> DomainCheckReport:
    """Verifies the defect diagonals Delta^p(I) >= 0 on interior basis rows.

    Delta^p(I) is exactly diagonal for weighted shifts; entries at rows whose
    degree is within m_i * deg(f_i) of the cap are polluted by truncation and
    excluded.
    """
    fock = model.fock
    m = fock.m
    if interior_degree is None:
        spread = max(mi * f.degree() for mi, f in zip(m, fock.symbols))
        interior_degree = fock.degree_cap - spread
    if interior_degree < 0:
        raise ValueError(
            f"interior degree {interior_degree} < 0; raise the truncation cap"
        )
    grid = model.defect_diag_grid(m, np.ones(fock.dim))
    deg = fock.max_degree_array()
    mask = deg <= interior_degree
    mins = {p: float(v[mask].min()) for p, v in grid.items()}
    ok = all(v >= -tol for v in mins.values())
    return DomainCheckReport(interior_degree=interior_degree, min_entries=mins, ok=ok)
