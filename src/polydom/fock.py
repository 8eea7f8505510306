"""Truncated Fock spaces, weighted-shift universal models, and variety compressions.

The model space is a tensor product of per-factor truncated full Fock
spaces, each spanned by words of length <= D in graded-lex order, factor 1
most significant. The shifts W_{i,j} carry the square-root weight ratios of
the per-factor weight tables and annihilate top-degree vectors, so the
truncated space is co-invariant and all adjoint-side identities are exact.
Each W_{i,j}, and each product of them, sends a basis vector to a multiple
of one other basis vector, so it is stored as a weighted gather (Shift): one
source index and one weight per row. Products compose gathers, adjoints
scatter, and no sparse-matrix library is needed.

The space is graded by the per-factor degree profile (|beta_1|, ...,
|beta_k|) of its basis vectors. W_{i,j} raises the grade by e_i and a
homogeneous constraint q raises it by its profile, so for homogeneous
constraints the constraint span M_Q and its complement N_Q are sums of
per-grade blocks, and variety_subspace works block by block with exactly the
thresholds of one dense computation. A constraint that is not homogeneous
makes the whole space one block. N_Q and each compressed shift S_{i,j} are
kept only in these blocks: W_{i,j} maps each block into one other block, so
S_{i,j}, its words and each q(S) have at most one nonzero block per block
row and block column, and a 2-norm is the largest block norm.

The model, N_Q and the compressed shifts depend only on the symbols, m, the
degree cap, the tolerances and the constraints, never on an operator tuple,
so build_model, variety_subspace and compress are served from one LRU cache
per process of CACHE_ENTRIES entries. build_model is keyed by the symbols as
given (arity, max_degree and each coefficient with its type, in dict
order), m and the degree cap as checked ints, the whole Tolerances and exact_weights;
variety_subspace by its model's key, every constraint's terms and
dense_cap; compress by the keys of its model and subspace. A model or
subspace that did not come from the cache is never looked up. A hit returns
the identical object, so every array a cached result holds (Shift.take and
.scale of each W_{i,j}, the subspace's rows, blocks and block maps, the
compressed blocks) is made read-only and a caller that writes into one
fails instead of corrupting a later hit. Errors are raised again on every
call and never stored. clear_cache empties the cache.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .config import ResourceCapError, Tolerances, default_tolerances, require_tol
from .cpmap import MultiDegree, _require_degree, defect_sweep
from .words import (
    NCPolynomial,
    PositiveSymbol,
    WeightTable,
    Word,
    as_count,
    as_letter,
    enumerate_words,
    require_valid,
    weight_table,
    word_count,
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
            idx = self.factor_index[i].get(tuple(w))
            if idx is None:
                raise ValueError(
                    f"{tuple(w)} is not a word of factor {i + 1}: letters 1..{self.arities[i]}, "
                    f"length <= {self.degree_cap}"
                )
            g += idx * self.strides[i]
        return g

    def words_at(self, g: int) -> Tuple[Word, ...]:
        if not 0 <= g < self.dim:
            raise ValueError(f"basis index {g} lies outside 0..{self.dim - 1}")
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


@dataclass(frozen=True, eq=False)
class Shift:
    """A weighted gather on the truncated space: (W @ X)[r] = scale[r] * X[take[r]].

    Every product of the W_{i,j} sends each basis vector to a multiple of one
    other basis vector, so it has at most one nonzero per row and per
    column; row r holds scale[r] in column take[r]. A zero row has scale 0
    and still a valid take, and the takes of the nonzero rows are distinct.
    """

    take: np.ndarray  # int64, one source index per row
    scale: np.ndarray  # float64, the row weights

    @property
    def dim(self) -> int:
        return len(self.take)

    def __matmul__(self, other):
        if isinstance(other, Shift):
            return Shift(other.take[self.take], self.scale * other.scale[self.take])
        return _gather(_rows_of(other, self.dim), self.take, self.scale)

    def adjoint(self, Y) -> np.ndarray:
        """W^* @ Y, by scattering each nonzero row onto its source."""
        Y = _rows_of(Y, self.dim)
        hit = np.flatnonzero(self.scale)
        out = np.zeros(Y.shape, dtype=np.result_type(Y, self.scale))
        out[self.take[hit]] = _gather(Y, hit, self.scale[hit])
        return out

    def toarray(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim))
        out[np.arange(self.dim), self.take] = self.scale
        return out


def _rows_of(X, dim: int) -> np.ndarray:
    """X as an array whose leading dimension is the model dimension."""
    X = np.asarray(X)
    if X.ndim == 0 or X.shape[0] != dim:
        raise ValueError(f"operand of shape {X.shape} does not match model dimension {dim}")
    return X


def _gather(X: np.ndarray, take: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """The rows scale[r] * X[take[r]], as a new array."""
    out = X[take].astype(np.result_type(X, scale), copy=False)
    # in place: a real-by-complex product with a broadcast operand is several
    # times slower out of place
    out *= scale.reshape((-1,) + (1,) * (out.ndim - 1))
    return out


class ModelOperators:
    """The weighted left creation operators W_{i,j} on the truncated space.

    Each W_{i,j} is a Shift: row beta reads the vector beta minus the first
    letter of its factor-i word, weighted by sqrt(b_gamma / b_beta) when that
    letter is j (beta = j gamma) and by 0 otherwise. Top-degree vectors are
    annihilated, since no row reads them.
    """

    # the model cache's key when build_model made this model, None otherwise
    cache_key: Hashable | None = None

    def __init__(self, fock: TruncatedFock, tol: Tolerances):
        self.fock = fock
        self.tol = tol
        self._W: Dict[Tuple[int, int], Shift] = {}
        self._diag_maps: Dict[int, List[Tuple[np.ndarray, np.ndarray]]] = {}
        for i in range(1, fock.k + 1):
            for j in range(1, fock.arities[i - 1] + 1):
                self._W[(i, j)] = self._build_shift(i, j)

    def _build_shift(self, i: int, j: int) -> Shift:
        fock = self.fock
        words = fock.factor_words[i - 1]
        index = fock.factor_index[i - 1]
        b = fock.weights[i - 1]
        # per factor: word w reads w[1:], with weight when w = j w[1:]
        take = np.array([index[w[1:]] if w else 0 for w in words], dtype=np.int64)
        scale = np.array([
            float(np.sqrt(b.value(w[1:]) / b.value(w))) if w and w[0] == j else 0.0
            for w in words
        ])
        g = np.arange(fock.dim)
        stride = fock.strides[i - 1]
        r = (g // stride) % fock.factor_dims[i - 1]
        return Shift(g + (take[r] - r) * stride, scale[r])

    def W(self, i: int, j: int) -> Shift:
        return self._W[(i, j)]

    def all_W(self) -> List[Tuple[int, int, Shift]]:
        return [(i, j, W) for (i, j), W in sorted(self._W.items())]

    def W_mono(self, mono: Sequence[Tuple[int, int]]) -> Shift:
        """The product W_{i_1,j_1} ... W_{i_s,j_s} of a monomial's letters;
        ValueError for a letter outside the model, as word_blocks."""
        out = Shift(np.arange(self.fock.dim), np.ones(self.fock.dim))
        for (i, j) in mono:
            i = as_letter(i, self.fock.k, "factor")
            out = out @ self._W[(i, as_letter(j, self.fock.arities[i - 1], f"row {i} letter"))]
        return out

    # --- diagonal CP-map engine ------------------------------------------
    # Every W word maps basis vectors to scaled basis vectors, so the maps
    # Phi_i preserve diagonals; the diagonal action is a sum of gathers
    # u -> a_w |scale_w|^2 u[take_w] of the vector of diagonal entries.

    def _diag_map(self, i: int) -> List[Tuple[np.ndarray, np.ndarray]]:
        hit = self._diag_maps.get(i)
        if hit is not None:
            return hit
        terms = []
        # longest word first: each row then sums its terms in ascending order
        # of source index, as the sparse reference in tests/oracles.py does,
        # so that the two agree bitwise
        for w, a in sorted(self.fock.symbols[i - 1].coeffs.items(), key=lambda wa: -len(wa[0])):
            if a == 0 or len(w) == 0:
                continue
            Ww = self.W_mono([(i, j) for j in w])
            terms.append((float(a) * (Ww.scale * Ww.scale), Ww.take))
        self._diag_maps[i] = terms
        return terms

    def apply_diag(self, i: int, u: np.ndarray) -> np.ndarray:
        """diag(Phi_i(diag(u))) as a vector."""
        u = _rows_of(np.asarray(u, dtype=np.float64), self.fock.dim)
        out = np.zeros(u.shape)
        for coef, take in self._diag_map(i):
            out += _gather(u, take, coef)
        return out

    def defect_diag_grid(self, m: Sequence[int], u: np.ndarray) -> Dict[MultiDegree, np.ndarray]:
        u = _rows_of(np.asarray(u, dtype=np.float64), self.fock.dim)
        return defect_sweep(m, u, self.apply_diag)


# --- the model cache (see the module docstring) ---------------------------------

CACHE_ENTRIES = 16
_cache: "OrderedDict[Hashable, Any]" = OrderedDict()


def clear_cache() -> None:
    """Drops every cached model, subspace and compression."""
    _cache.clear()


def _key(*parts) -> Hashable | None:
    """parts as a cache key, or None when some part cannot be hashed."""
    try:
        hash(parts)
    except TypeError:
        return None
    return parts


def _symbol_key(f: PositiveSymbol) -> tuple:
    # each coefficient with its type and in dict order: exact weights keep an
    # int or Fraction exactly, and the diagonal maps sum terms in this order
    return (type(f), f.arity, f.max_degree, tuple((w, type(a), a) for w, a in f.coeffs.items()))


def _read_only(arrays: Iterable[np.ndarray]) -> None:
    for A in arrays:
        A.flags.writeable = False


def _cached(key: Hashable | None, build: Callable[[], Any], freeze: Callable[[Any], None]) -> Any:
    """build(), or the object cached under key. A miss freezes the new result,
    keys it and evicts the least recently used entry beyond CACHE_ENTRIES; an
    error propagates and nothing is stored. A None key bypasses the cache."""
    if key is None:
        return build()
    hit = _cache.get(key)
    if hit is not None:
        _cache.move_to_end(key)
        return hit
    value = build()
    freeze(value)
    _cache[key] = value
    if len(_cache) > CACHE_ENTRIES:
        _cache.popitem(last=False)
    return value


def _freeze_model(built: Tuple[TruncatedFock, ModelOperators]) -> None:
    _read_only(a for _, _, W in built[1].all_W() for a in (W.take, W.scale))


def build_model(
    symbols: Sequence[PositiveSymbol],
    m: Sequence[int],
    degree_cap: int,
    tol: Tolerances | None = None,
    exact_weights: bool = False,
) -> Tuple[TruncatedFock, ModelOperators]:
    """Universal weighted shifts for (f_1..f_k, m) truncated at degree_cap,
    built once per key and then served from the model cache."""
    tol = tol or default_tolerances()
    symbols = tuple(symbols)
    # m and the cap are checked before they key the cache: (1.0, 1) hashes as (1, 1)
    m = _require_degree("m", m, len(symbols), 1)
    degree_cap = as_count(degree_cap, "degree_cap")
    try:
        key = _key("model", tuple(_symbol_key(f) for f in symbols), m,
                   degree_cap, tol, (type(exact_weights), exact_weights))
    except AttributeError:  # not a PositiveSymbol: _build_model says why
        key = None

    def build():
        fock, model = _build_model(symbols, m, degree_cap, tol, exact_weights)
        model.cache_key = key
        return fock, model

    return _cached(key, build, _freeze_model)


def _build_model(symbols, m, degree_cap, tol, exact_weights) -> Tuple[TruncatedFock, ModelOperators]:
    """build_model without the model cache, on a checked m and degree_cap."""
    for f in symbols:
        require_valid(f)
    dims = [word_count(f.arity, degree_cap) for f in symbols]
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


# a block of a shift into target block h: None, or (a, take, scale) with
# W[rows[h], rows[a]] @ F == scale[:, None] * F[take]
BlockMap = Optional[Tuple[int, np.ndarray, np.ndarray]]


@dataclass(eq=False)
class VarietySubspace:
    """Orthocomplement N_Q of the constraint span, kept per grade block, with
    invariance diagnostics.

    rows[b] lists the basis indices of block b and blocks[b] is an
    orthonormal basis of N_Q's part of block b, len(rows[b]) x r_b.
    shifts[(i, j)][h] is W_{i,j}'s block map into block h (see BlockMap).
    The coordinates of N_Q are the blocks' columns in block order, and no
    dense dim x dim_N basis is formed.
    """

    rows: List[np.ndarray]
    blocks: List[np.ndarray]
    shifts: Dict[Tuple[int, int], List[BlockMap]]
    polys: Tuple[NCPolynomial, ...]
    invariance_residual_full: float
    invariance_residual_interior: float
    # the model cache's key when variety_subspace served this subspace from
    # it, None otherwise (a class attribute, not a field)
    cache_key = None

    @property
    def dim_N(self) -> int:
        return sum(N.shape[1] for N in self.blocks)

    def columns(self) -> List[slice]:
        """The coordinates of each block's columns."""
        ends = np.cumsum([N.shape[1] for N in self.blocks]).tolist()
        return [slice(e - N.shape[1], e) for e, N in zip(ends, self.blocks)]


def _grade_blocks(model: ModelOperators, polys: Tuple[NCPolynomial, ...]):
    """The blocks on which M_Q splits, and each shift's block maps.

    The grade of a basis vector is its per-factor degree profile
    (|beta_1|, ..., |beta_k|) when every constraint is homogeneous; otherwise
    every vector has the empty grade and the whole space is one block.
    Returns the basis indices of each block (in lexicographic grade order),
    each basis vector's position within its block, ``sources(shift)``,
    whose entry b is the block that an operator of that grade shift maps
    into block b (None when there is none), and for each W_{i,j} of
    ``model.all_W()``, keyed by (i, j), its BlockMap into each target block.
    Each W_{i,j} is a Shift, so its block maps are the block rows of its
    gather with the takes made block-local.
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

    maps: Dict[Tuple[int, int], List[BlockMap]] = {}
    unit = np.eye(fock.k, dtype=np.int64)
    for (i, j, W) in model.all_W():
        take, scale = local[W.take][order], W.scale[order]
        maps[(i, j)] = [
            None if a is None else (a, take[s:e], scale[s:e])
            for s, e, a in zip(starts, ends, sources(unit[i - 1]))
        ]
    return rows, local, sources, maps


def _poly_blocks(model: ModelOperators, q: NCPolynomial, rows, local, sources) -> Dict[int, np.ndarray]:
    """q(W)[rows[b], rows[a]] for each block b into which q maps a block a.

    The blocks are those of ``_grade_blocks`` for a set of constraints that
    includes q. Each term of q is a product of shifts, itself a Shift, so
    the blocks are summed from the terms' gathers and q(W) is never formed.
    """
    terms = [(c, model.W_mono(mono)) for c, mono in q.terms]
    profile = q.degree_profiles(model.fock.k)[0] if q.terms else (0,) * model.fock.k
    out: Dict[int, np.ndarray] = {}
    for b, a in enumerate(sources(profile)):
        if a is None:
            continue
        block = np.zeros((len(rows[b]), len(rows[a])), dtype=np.complex128)
        for c, W in terms:
            scale = W.scale[rows[b]]
            hit = np.flatnonzero(scale)
            block[hit, local[W.take[rows[b][hit]]]] += c * scale[hit]
        out[b] = block
    return out


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


# the widest dense square the variety computation and vn's model side build
DENSE_CAP = 4096


def variety_subspace(
    model: ModelOperators,
    Q_polys: Sequence[NCPolynomial],
    dense_cap: int = DENSE_CAP,
) -> VarietySubspace:
    """N = truncated space minus the W-invariant span of the q(W) ranges.

    The constraint span M is the smallest left-W-invariant subspace
    containing every vector q(W) W_{(beta)} vacuum; since those seed vectors
    are exactly the columns of q(W), M is computed as the invariant closure
    of the stacked column spaces, cut into grade blocks by _poly_blocks.

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
    The result keeps N per block, with the block layout and each shift's
    block maps, so compress and constrained_kernel read it block by block;
    its coordinates are the blocks' columns in block order. When nothing is
    removed, every block of N is an identity. The M basis is only used for
    the invariance residuals. The subspace is served from the model cache
    when build_model made the model. ResourceCapError is raised when there
    are constraints and the model's dimension exceeds dense_cap, and when
    there are none and a grade block is wider than dense_cap: each block of
    N is then a dense identity, and compress multiplies by it per letter.
    """
    polys = tuple(Q_polys)
    key = None
    if model.cache_key is not None:
        try:
            key = _key("variety", model.cache_key, tuple(q.terms for q in polys), dense_cap)
        except AttributeError:  # not an NCPolynomial: _variety_subspace says why
            pass

    def build():
        sub = _variety_subspace(model, polys, dense_cap)
        sub.cache_key = key
        return sub

    return _cached(key, build, _freeze_subspace)


def _freeze_subspace(sub: VarietySubspace) -> None:
    maps = [m for ms in sub.shifts.values() for m in ms if m is not None]
    _read_only([*sub.rows, *sub.blocks, *(a for m in maps for a in m[1:])])


def _variety_subspace(model: ModelOperators, Q_polys: Sequence[NCPolynomial],
                      dense_cap: int) -> VarietySubspace:
    """variety_subspace without the model cache."""
    fock = model.fock
    polys = tuple(Q_polys)
    if polys and fock.dim > dense_cap:
        raise ResourceCapError(
            f"variety computation is dense; dim {fock.dim} exceeds {dense_cap}"
        )
    cutoff = model.tol.svd_cutoff
    bad = sorted({letter for q in polys for letter in q.letters_outside(fock.arities)})
    if bad:
        raise ValueError(
            f"constraint letters (i, j) in {bad} lie outside a model with arities {fock.arities}"
        )
    rows, local, sources, shifts = _grade_blocks(model, polys)
    # without constraints N is one identity per grade block: only they are dense
    widest = max(len(R) for R in rows)
    if not polys and widest > dense_cap:
        raise ResourceCapError(
            f"variety computation is dense per grade block; block of {widest} exceeds {dense_cap}"
        )
    nb = len(rows)
    empty = [np.zeros((len(R), 0), dtype=np.complex128) for R in rows]

    # seeds: block b holds the columns of each q(W) that land in it
    parts: List[List[np.ndarray]] = [[] for _ in rows]
    for q in polys:
        for b, block in _poly_blocks(model, q, rows, local, sources).items():
            parts[b].append(block)
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
            for maps in shifts.values():
                if maps[h] is not None and frontier[maps[h][0]].shape[1]:
                    a, take, scale = maps[h]
                    children.append(_gather(frontier[a], take, scale))
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
    full_svd = dict(zip(spanned, _svds([basis[b] for b in spanned], True)))
    smax = max((float(s[0]) for _, s in full_svd.values()), default=0.0)
    complement = [
        full_svd[b][0][:, int(np.count_nonzero(full_svd[b][1] > cutoff * smax)):]
        if b in full_svd else np.eye(len(rows[b]), dtype=np.complex128)
        for b in range(nb)
    ]
    if not any(N.shape[1] for N in complement):
        raise ValueError("the variety subspace is {0}; no compression exists")

    # adjoint invariance of N: ||P_M W^* P_N|| per shift, full and interior.
    # W^* sends N block h into block a only, and M_a^* W^* N_h = (W M_a)^* N_h;
    # the interior part keeps the rows of block a below the top degree.
    full: List[np.ndarray] = []
    interior: List[np.ndarray] = []
    low_rows = fock.max_degree_array() <= fock.degree_cap - 1
    for maps in shifts.values():
        for h, m in enumerate(maps):
            if m is None:
                continue
            a, take, scale = m
            full.append(_gather(basis[a], take, scale).conj().T @ complement[h])
            low = low_rows[rows[a]][take]
            interior.append(_gather(basis[a], take, scale * low).conj().T @ complement[h])
    return VarietySubspace(
        rows=rows,
        blocks=complement,
        shifts=shifts,
        polys=polys,
        invariance_residual_full=_max_norm(full),
        invariance_residual_interior=_max_norm(interior),
    )


# S_{i,j}'s block in block row h: None, or (a, S_{i,j}[h, a])
BlockRow = Optional[Tuple[int, np.ndarray]]


@dataclass(eq=False)
class CompressedModel:
    """S_{i,j} = P_N W_{i,j} |_N in the coordinates of subspace's N_Q basis,
    kept only as blocks: blocks[(i, j)][h] is S_{i,j}'s only nonzero block in
    block row h (see BlockRow)."""

    blocks: Dict[Tuple[int, int], List[BlockRow]]
    subspace: VarietySubspace
    q_residuals_full: List[float]
    q_residuals_interior: List[float]

    @property
    def dim_N(self) -> int:
        return self.subspace.dim_N

    def norm(self, i: int, j: int) -> float:
        """||S_{i,j}||_2, the largest norm of its blocks."""
        return _max_norm([row[1] for row in self.blocks[(i, j)] if row is not None])

    def adjoint(self, i: int, j: int, Y) -> np.ndarray:
        """S_{i,j}^* @ Y, one block row at a time: the block in row h, column a
        sends rows h of Y back onto rows a."""
        Y = _rows_of(Y, self.dim_N)
        cols = self.subspace.columns()
        out = np.zeros(Y.shape, dtype=np.result_type(Y, np.complex128))
        for h, row in enumerate(self.blocks[(i, j)]):
            if row is not None:
                a, block = row
                out[cols[a]] = block.conj().T @ Y[cols[h]]
        return out

    def word_blocks(self, mono: Sequence[Tuple[int, int]]) -> Dict[int, Tuple[int, np.ndarray]]:
        """The nonzero blocks of S_{l_1} ... S_{l_s} for the letters l of mono,
        keyed by block row h as (a, block): block row h of S_{l_1}, then the
        row of S_{l_2} at its source, and so on."""
        mono = [(as_letter(i, what="factor"), as_letter(j)) for (i, j) in mono]
        bad = sorted(set(mono) - set(self.blocks))
        if bad:
            raise ValueError(f"letters {bad} outside the model's letters {sorted(self.blocks)}")
        out: Dict[int, Tuple[int, np.ndarray]] = {}
        for h, N in enumerate(self.subspace.blocks):
            if not N.shape[1]:
                continue
            a, prod = h, np.eye(N.shape[1], dtype=np.complex128)
            for letter in mono:
                row = self.blocks[letter][a]
                if row is None:
                    break
                a, prod = row[0], prod @ row[1]
            else:
                out[h] = (a, prod)
        return out

    def poly_blocks(self, q: NCPolynomial) -> Dict[Tuple[int, int], np.ndarray]:
        """The nonzero blocks q(S)[h, a], keyed (h, a): word_blocks summed over
        the terms of q."""
        out: Dict[Tuple[int, int], np.ndarray] = {}
        for c, mono in q.terms:
            for h, (a, prod) in self.word_blocks(mono).items():
                out[(h, a)] = out.get((h, a), 0.0) + c * prod
        return out


def _interior_columns(N: np.ndarray, high: np.ndarray, svd_cutoff: float) -> np.ndarray | None:
    """An orthonormal basis of the vectors N x that vanish on the rows marked
    high: None when no row is high (every x), the null space of N[high] else.
    N has orthonormal columns, so when every row is high the null space is
    empty and no SVD is needed."""
    if not high.any():
        return None
    if high.all():
        return np.zeros((N.shape[1], 0), dtype=np.complex128)
    rows = N[high]
    # a full Vt is needed only when rows has fewer rows than columns
    _, s, Vt = np.linalg.svd(rows, full_matrices=rows.shape[0] < rows.shape[1])
    rank = int(np.count_nonzero(s > svd_cutoff * max(s[0], 1e-300))) if s.size else 0
    return Vt.conj().T[:, rank:]


def compress(model: ModelOperators, subspace: VarietySubspace) -> CompressedModel:
    """S_{i,j} = P_N W_{i,j} |_N block by block, and the residuals of q(S).

    W_{i,j} maps block a of N_Q into block h only, so S_{i,j}[h, a] =
    N_h^* (scale N_a[take]) with (a, take, scale) its block map, and these
    blocks are all that is kept of S_{i,j}. For each constraint q,
    q_residuals_full is ||q(S)||_2 and q_residuals_interior is ||q(S) C||_2,
    C an orthonormal basis of the compressed vectors supported at degree
    <= degree_cap - max(deg q, 1), where q(S) = q(W) restricted to N.
    A homogeneous q(S) has at most one nonzero block per block row and
    column, and so has q(S) C, so each norm is the largest block norm. The
    grade fixes each basis vector's degree, so C keeps a block's columns
    when it lies below the cutoff and drops them when it lies above; only a
    block that the cutoff cuts, which happens in the one-block layout of a
    non-homogeneous constraint, takes an SVD. The compression is served
    from the model cache when the model and the subspace both came from it.
    """
    key = None
    if model.cache_key is not None and subspace.cache_key is not None:
        key = ("compress", model.cache_key, subspace.cache_key)
    return _cached(key, lambda: _compress(model, subspace), _freeze_compressed)


def _freeze_compressed(comp: CompressedModel) -> None:
    _read_only(row[1] for rows in comp.blocks.values() for row in rows if row is not None)


def _compress(model: ModelOperators, subspace: VarietySubspace) -> CompressedModel:
    """compress without the model cache."""
    fock = model.fock
    sub = subspace
    blocks: Dict[Tuple[int, int], List[BlockRow]] = {}
    for ij, maps in sorted(sub.shifts.items()):
        rows: List[BlockRow] = []
        for h, m in enumerate(maps):
            if m is None:
                rows.append(None)
                continue
            a, take, scale = m
            rows.append((a, sub.blocks[h].conj().T @ _gather(sub.blocks[a], take, scale)))
        blocks[ij] = rows
    out = CompressedModel(blocks=blocks, subspace=sub, q_residuals_full=[], q_residuals_interior=[])
    deg = fock.max_degree_array()
    for q in sub.polys:
        qS = out.poly_blocks(q)
        out.q_residuals_full.append(_max_norm(list(qS.values())))
        cutoff = fock.degree_cap - max(q.max_degree(), 1)
        C = [_interior_columns(N, deg[R] > cutoff, model.tol.svd_cutoff)
             for R, N in zip(sub.rows, sub.blocks)]
        out.q_residuals_interior.append(_max_norm([
            M if C[a] is None else M @ C[a] for (_, a), M in qS.items()
        ]))
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
    fock, m, tol = model.fock, model.fock.m, require_tol(tol)
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
