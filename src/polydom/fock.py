"""Truncated Fock spaces, weighted-shift universal models, and variety compressions.

The model space is a tensor product of per-factor truncated full Fock
spaces, each spanned by words of length <= D in graded-lex order, factor 1
most significant. The shifts W_{i,j} carry the square-root weight ratios of
the per-factor weight tables and annihilate top-degree vectors, so the
truncated space is co-invariant and all adjoint-side identities are exact.
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
        self.truncated = True
        self._W: Dict[Tuple[int, int], sp.csr_matrix] = {}
        self._factor_shifts: Dict[Tuple[int, int], sp.csr_matrix] = {}
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
        self._factor_shifts[(i, j)] = shift
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
        eye = sp.identity(self.fock.dim, format="csr")
        acc = None
        for c, mono in q.terms:
            prod = eye
            for (i, j) in mono:
                prod = prod @ self._W[(i, j)]
            term = c * prod
            acc = term if acc is None else acc + term
        if acc is None:
            return sp.csr_matrix((self.fock.dim, self.fock.dim))
        return acc.tocsr()

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
    basis_M: np.ndarray  # dim x rank(M_Q)
    polys: Tuple[NCPolynomial, ...]
    invariance_residual_full: float
    invariance_residual_interior: float

    @property
    def dim_N(self) -> int:
        return self.basis_N.shape[1]

    def projector(self) -> np.ndarray:
        return self.basis_N @ self.basis_N.conj().T


def _orth(cols: np.ndarray, cutoff_rel: float) -> np.ndarray:
    if cols.size == 0:
        return np.zeros((cols.shape[0], 0), dtype=np.complex128)
    U, s, _ = np.linalg.svd(cols, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((cols.shape[0], 0), dtype=np.complex128)
    keep = s > cutoff_rel * s[0]
    return U[:, keep]


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
    """
    fock = model.fock
    if fock.dim > dense_cap:
        raise ResourceCapError(
            f"variety computation is dense; dim {fock.dim} exceeds {dense_cap}"
        )
    cutoff = model.tol.svd_cutoff
    polys = tuple(Q_polys)
    if polys:
        seeds = np.hstack([model.evaluate_poly(q).toarray() for q in polys])
        B = _orth(seeds, cutoff)
        # invariant closure by breadth-first frontier: only the directions
        # added last round can generate anything new, so orthonormalize the
        # children of the frontier against the accumulated basis instead of
        # re-factoring the whole stack every round
        scale0 = float(np.linalg.norm(seeds, 2)) if seeds.size else 0.0
        frontier = B
        while frontier.shape[1] > 0:
            children = np.hstack([W @ frontier for (_, _, W) in model.all_W()])
            children = children - B @ (B.conj().T @ children)
            children = children - B @ (B.conj().T @ children)
            if children.size == 0:
                break
            U, s, _ = np.linalg.svd(children, full_matrices=False)
            keep = s > cutoff * max(scale0, 1.0)
            frontier = U[:, keep]
            if frontier.shape[1] == 0:
                break
            B = np.hstack([B, frontier])
        basis_M = B
    else:
        basis_M = np.zeros((fock.dim, 0), dtype=np.complex128)

    if basis_M.shape[1] == 0:
        basis_N = np.eye(fock.dim, dtype=np.complex128)
    else:
        # orthocomplement via the full SVD of the M basis
        U, s, _ = np.linalg.svd(basis_M, full_matrices=True)
        rank = int(np.count_nonzero(s > cutoff * s[0]))
        basis_N = U[:, rank:]
    if basis_N.shape[1] == 0:
        raise ValueError("the variety subspace is {0}; no compression exists")

    # adjoint invariance of N: ||P_M W^T P_N|| per shift, full and interior
    full = 0.0
    interior = 0.0
    if basis_M.shape[1] > 0:
        deg = fock.max_degree_array()
        low_rows = deg <= fock.degree_cap - 1
        for (_, _, W) in model.all_W():
            X = basis_M.conj().T @ (W.T.conj() @ basis_N)
            full = max(full, float(np.linalg.norm(X, 2)))
            Xi = (basis_M[low_rows].conj().T @ (W.T.conj() @ basis_N)[low_rows])
            interior = max(interior, float(np.linalg.norm(Xi, 2)))
    return VarietySubspace(
        basis_N=basis_N,
        basis_M=basis_M,
        polys=polys,
        invariance_residual_full=full,
        invariance_residual_interior=interior,
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
            _, s, Vt = np.linalg.svd(high, full_matrices=True)
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
