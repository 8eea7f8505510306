"""Completely positive map engine for commuting operator tuples.

Maps act as Phi_i(X) = sum_alpha a_{i,alpha} A_{i,alpha} X A_{i,alpha}^*,
where A_{i,alpha} is the word product of the i-th row of matrices. The
engine provides iterates, defect maps, certified weighted series and the
joint spectral radius.

Every decay and norm-sum bound is read off one identity orbit per factor,
eta_s = ||Phi_i^s(I)||_2. Each Phi_i^s is a positive map, so Russo-Dye gives
||Phi_i^s|| = eta_s in the operator norm; submultiplicativity turns any
eta_t < 1 into a geometric envelope for all s, and Phi_i^s = 0 exactly when
Phi_i^s(I) = 0, so the nilpotency index is the first zero iterate by s = d.
Series tails are stated in the Frobenius norm, which costs a factor sqrt(d).

CPMapTuple.weighted_series has two paths, and on both its tail_bound bounds
the Frobenius distance to the exact Delta^{-m}(R) and is at most the series
target, tol max(1, ||R||_F). A tuple with no nilpotent factor whose factors
all have a certified resolvent G_i = (id - Phi_i)^{-1} (CPMapTuple._resolvent:
Stein equations in the row's triangular form, OperatorTuple.row_form) is
solved by them; tail_bound is then the residual-correction bound of
_triangular_series, whose residuals are formed in long double, and terms is
all zeros. Every other tuple, or one whose certificate fails or whose bound
misses the target, sums the series; tail_bound then bounds the truncation.
Neither counts the rounding of its own residual or term evaluation. The
bound on ||Delta_i^{-m_i}(I)||_2 behind Rota's condition number reads the
same resolvents (CPMapTuple._inverse_norm_bound).

The radius of each factor is computed once per tuple, by the one rule that
CPMapTuple.joint_spectral_radius states, and only gates the certificates. A
nilpotent orbit gives 0. Otherwise the first candidate at most the orbit's
Gelfand bound is taken: the diagonals of the row's triangular form when its
letters commute (Radjavi-Rosenthal; U^* A_{i,j} U upper triangular for
one unitary U, O(d^3), numpy only), then an ARPACK Ritz value from d = 12 on.
A row with neither gets one dense eigvals of the map's real form while
d^2 <= tol.max_vec_dim (d <= 80), and the Gelfand bound above that. The orbit
encloses the radius, min_t eta_t^{1/t} >= rho(Phi_i) >= lambda_t^{1/t} with
lambda_t = lambda_min(Phi_i^t(I)), since Phi_i^t(I) >= lambda_t I
(Collatz-Wielandt with Y = I); the radius cross-check reads this enclosure.

vec convention is row-major throughout: vec(X)[d*r + c] = X[r, c], hence
vec(A X B) = (A kron B^T) vec(X) and the matricized map is
M_i = sum a_alpha (A_alpha kron conj(A_alpha)).
"""

from __future__ import annotations

import itertools
import operator
import weakref
from dataclasses import dataclass
from math import comb
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .config import DivergenceError, ResourceCapError, Tolerances, default_tolerances
from .words import NCPolynomial, PositiveSymbol, as_letter, polyball_symbol, require_valid, require_word_count

MultiDegree = Tuple[int, ...]
# the letter Z_{i,j} as (i, j), both 1-based
Letter = Tuple[int, int]
# a term (w, a_w, A_{i,w}) of Phi_i: CPMapTuple._terms
Term = Tuple[Tuple[int, ...], float, np.ndarray]

# The radius rule and its measured crossover: see CPMapTuple.joint_spectral_radius.
# a row's triangular form, and the joint eigenbasis of the Sz.-Nagy fixed point,
# diagonalize G = sum_n (n + _TRI_SHIFT) A_n over their letters (_eigenbasis);
# fixed irrational weights keep reports identical from run to run, and real
# ones leave a real triangular row as it is
_TRI_SHIFT = float(np.sqrt(0.5))
# the form is refused when a strictly lower part exceeds _TRI_SLACK d eps ||A_n||_F,
# the eigenbasis V when an off-diagonal part exceeds _TRI_SLACK d eps cond(V) ||A_n||_F
_TRI_SLACK = 64.0
_ARNOLDI_MIN_DIM = 12
_ARNOLDI_MAXITER = 10
_ARNOLDI_NCV = 40
# the orbit's rounding allowance for Phi_i^t(I) is t d _EPS eta_t
_EPS = float(np.finfo(np.float64).eps)
# the triangular series path forms its stage residuals in this wider type, and
# is skipped where long double is no wider than double
_WIDE = np.clongdouble if np.finfo(np.longdouble).eps < _EPS / 64 else None
# the most bytes of iterates one batched SVD of the identity orbit reads (_Orbit.norm)
_STRETCH_BYTES = 1 << 22
# the fewest orbit steps a decay verdict reads
_DECAY_WINDOW = 64
# the most terms a certified series or norm sum, or a decay search, reads
SERIES_BUDGET = 20000


class CommutationError(ValueError):
    """Cross-factor commutation fails beyond tolerance."""


def multi_grid(m: Sequence[int]) -> Iterator[MultiDegree]:
    """All multi-degrees p with 0 <= p <= m, lexicographic."""
    return itertools.product(*(range(mi + 1) for mi in m))


def _require_degree(name: str, p: Sequence[int], k: int, least: int) -> None:
    """ValueError unless the multi-degree p has k entries, each >= least."""
    if len(p) != k:
        raise ValueError(f"multi-degree length {len(p)} != k = {k}")
    if any(pi < least for pi in p):
        raise ValueError(f"{name} must be >= {least} componentwise, got {tuple(p)}")


def defect_sweep(
    m: Sequence[int], X, apply: Callable[[int, object], object]
) -> Dict[MultiDegree, object]:
    """All defects Delta^p(X) for 0 <= p <= m via one incremental sweep.

    apply(i, Y) is the i-th map (1-based); each defect is one step from a
    neighbour already in the grid, Delta^p = Delta^{p - e_i} - Phi_i Delta^{p - e_i}.
    """
    grid: Dict[MultiDegree, object] = {tuple(0 for _ in m): X}
    for p in multi_grid(m):
        if p in grid:
            continue
        i = next(idx for idx, pi in enumerate(p) if pi > 0)
        prev = tuple(pi - (1 if idx == i else 0) for idx, pi in enumerate(p))
        Y = grid[prev]
        grid[p] = Y - apply(i + 1, Y)
    return grid


def vec(X: np.ndarray) -> np.ndarray:
    return np.asarray(X).reshape(-1)


def unvec(v: np.ndarray, d: int) -> np.ndarray:
    return np.asarray(v).reshape(d, d)


def _hermitian_form(M: np.ndarray, d: int) -> np.ndarray:
    """U^* M U, real, for the orthonormal basis U of the Hermitian d x d matrices.

    U holds E_rr and (E_rc + E_cr)/sqrt2, i(E_rc - E_cr)/sqrt2 for r < c. A
    map that preserves Hermitian matrices is the complexification of its
    restriction to them, so the real matrix has the spectrum of M and a real
    eigvals costs a third of the complex one.
    """
    r, c = np.triu_indices(d, 1)
    diag, up, lo = np.arange(d) * (d + 1), r * d + c, c * d + r
    s = np.sqrt(0.5)
    MU = np.hstack([M[:, diag], s * (M[:, up] + M[:, lo]), 1j * s * (M[:, up] - M[:, lo])])
    return np.vstack([MU[diag], s * (MU[up] + MU[lo]), -1j * s * (MU[up] - MU[lo])]).real


def _eigenbasis(mats: Sequence[np.ndarray]) -> Optional[np.ndarray]:
    """The eigenvectors of G = sum_n (n + _TRI_SHIFT) mats[n - 1], or None when eig fails.

    They diagonalize every matrix of a commuting family of diagonalizable
    matrices, and their Q factor triangularizes every matrix of a commuting
    family, unless G is defective or clustered.
    """
    G = sum((n + _TRI_SHIFT) * A for n, A in enumerate(mats, start=1))
    try:
        return np.linalg.eig(G)[1]
    except np.linalg.LinAlgError:
        return None


def _triangular_form(mats: Sequence[np.ndarray]) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """(U, T) with T[j] = U^* mats[j] U upper triangular for one unitary U, or None.

    U is the Q factor of the eigenvectors of _eigenbasis(mats); a strictly
    lower part of T[j] above _TRI_SLACK d eps ||mats[j]||_F refuses the form.
    T is returned as computed.
    """
    d = mats[0].shape[0]
    V = _eigenbasis(mats)
    if V is None:
        return None
    U = np.linalg.qr(V)[0]
    T = np.empty((len(mats), d, d), dtype=np.complex128)
    for j, A in enumerate(mats):
        T[j] = U.conj().T @ A @ U
        if np.linalg.norm(np.tril(T[j], -1)) > _TRI_SLACK * d * _EPS * np.linalg.norm(A):
            return None
    return U, T


def _stein_solve(T: np.ndarray, a: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """X with X - sum_w a_w T_w X T_w^* = Y, for the upper-triangular (n, d, d) stack T.

    Column l of T_w X T_w^* is conj(T_w[l, l]) T_w X[:, l] plus the coupling
    T_w X[:, q] conj(T_w[l, q]) over q > l, so the columns are solved from
    the last one on (Bartels-Stewart): (I - sum_w a_w conj(T_w[l, l]) T_w) X[:, l]
    = Y[:, l] + sum_w a_w T_w X[:, l+1:] conj(T_w[l, l+1:]).
    """
    n, d = T.shape[0], Y.shape[0]
    aT = a[:, None, None] * T
    # sum_w aT[w] @ v[w] as one product with the stacked vectors v
    flat = aT.transpose(1, 0, 2).reshape(d, n * d)
    eye = np.eye(d)
    X = np.zeros((d, d), dtype=np.complex128)
    for l in range(d - 1, -1, -1):
        coupling = flat @ (T[:, l, l + 1:].conj() @ X[:, l + 1:].T).reshape(-1)
        M = eye - np.tensordot(T[:, l, l].conj(), aT, 1)
        X[:, l] = np.linalg.solve(M, Y[:, l] + coupling)
    return X


def _singular_values(stack: Sequence[np.ndarray]) -> Sequence[np.ndarray]:
    """np.linalg.svd(Y, compute_uv=False) of each Y in stack, in one batched call
    when there are several, and [nan, 0] for a Y whose SVD fails."""
    if len(stack) > 1:
        try:
            return np.linalg.svd(np.stack(stack), compute_uv=False)
        except np.linalg.LinAlgError:  # an iterate overflowed: one call each
            pass
    out = []
    for Y in stack:
        try:
            out.append(np.linalg.svd(Y, compute_uv=False))
        except np.linalg.LinAlgError:  # the iterate overflowed
            out.append(np.array([np.nan, 0.0]))
    return out


def _as_complex(M, what: str = "matrix") -> np.ndarray:
    """M as a complex array; ValueError unless it is square with finite entries."""
    A = np.array(M, dtype=np.complex128)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A.view(np.float64))):
        raise ValueError(f"{what} has non-finite entries")
    return A


def hermitize(X: np.ndarray) -> np.ndarray:
    return (X + X.conj().T) / 2


def _split_norm(E: np.ndarray) -> float:
    """||H||_2 + ||S||_2 for E = H + iS with H and S Hermitian: a positive map G
    with ||G(I)||_2 <= c has ||G(E)||_2 <= c (||H||_2 + ||S||_2)."""
    return float(np.linalg.norm(hermitize(E), 2) + np.linalg.norm(hermitize(1j * E), 2))


def is_hermitian(X: np.ndarray, rel: float = 1e-12) -> bool:
    X = np.asarray(X)
    return np.linalg.norm(X - X.conj().T) <= rel * (1.0 + np.linalg.norm(X))


class OperatorTuple:
    """k rows of d x d matrices A_{i,j}; rows commute entrywise across factors.

    Matrices within one row need not commute. Cross-factor commutation is
    checked at construction and violations raise CommutationError, unless
    check_commutation is disabled (used for map-level commutation checks on
    raw Kraus families).
    """

    def __init__(
        self,
        matrices: Sequence[Sequence[np.ndarray]],
        tol: Tolerances | None = None,
        check_commutation: bool = True,
    ):
        self.tol = tol or default_tolerances()
        rows = [tuple(_as_complex(Aij) for Aij in row) for row in matrices]
        if not rows or any(len(r) == 0 for r in rows):
            raise ValueError("need at least one matrix per factor")
        self.k = len(rows)
        self.arities = tuple(len(r) for r in rows)
        self.dim = rows[0][0].shape[0]
        for row in rows:
            for A in row:
                if A.shape[0] != self.dim:
                    raise ValueError("all matrices must share one dimension")
        for row in rows:
            for A in row:
                A.setflags(write=False)
        self.rows = tuple(rows)
        # stack(i, D)'s levels per factor, grown on demand
        self._levels: Tuple[List[np.ndarray], ...] = tuple([] for _ in rows)
        # row_form(i)'s value per row once computed, None included
        self._forms: Dict[int, Optional[Tuple[np.ndarray, np.ndarray]]] = {}
        if check_commutation:
            self._check_commutation()

    def _commutation_failure(self, pairs: Iterator[Tuple[Letter, Letter]]) -> Optional[str]:
        """The first pair of letters ((s, j), (u, l)) with
        ||[A_{s,j}, A_{u,l}]||_F > tol_comm ||A_{s,j}||_F ||A_{u,l}||_F, described; None if none is."""
        t = self.tol.tol_comm
        for (s, j), (u, l) in pairs:
            A, B = self.rows[s - 1][j - 1], self.rows[u - 1][l - 1]
            na, nb = np.linalg.norm(A), np.linalg.norm(B)
            gap = np.linalg.norm(A @ B - B @ A)
            if gap > t * na * nb:
                return f"[A_{s},{j}, A_{u},{l}] has norm {gap:.3e} > {t:.1e}*{na:.3e}*{nb:.3e}"
        return None

    def _check_commutation(self) -> None:
        letters = [[(s, j) for j in range(1, n + 1)] for s, n in enumerate(self.arities, start=1)]
        pairs = (
            pair for rs, ru in itertools.combinations(letters, 2) for pair in itertools.product(rs, ru)
        )
        failure = self._commutation_failure(pairs)
        if failure is not None:
            raise CommutationError(failure)

    def row_commutes(self, i: int) -> bool:
        """Whether the letters of row i commute pairwise, to tol_comm as across factors."""
        i = as_letter(i, self.k, "factor")
        letters = [(i, j) for j in range(1, self.arities[i - 1] + 1)]
        return self._commutation_failure(itertools.combinations(letters, 2)) is None

    def matrix(self, i: int, j: int) -> np.ndarray:
        i = as_letter(i, self.k, "factor")
        return self.rows[i - 1][as_letter(j, self.arities[i - 1], f"row {i} letter") - 1]

    def row_form(self, i: int) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Row i's triangular form (U, T), T[j] = U^* A_{i,j+1} U, read-only, or None
        unless the row commutes and _triangular_form accepts it. Computed once per row."""
        i = as_letter(i, self.k, "factor")
        if i not in self._forms:
            form = _triangular_form(self.rows[i - 1]) if self.row_commutes(i) else None
            for part in form or ():
                part.setflags(write=False)
            self._forms[i] = form
        return self._forms[i]

    def stack(self, i: int, D: int) -> Tuple[np.ndarray, ...]:
        """Factor i's products A_{i,w}, |w| <= D, as read-only levels L = 0..D in
        graded-lex order (fock.factor_words'): level L, an (n_i^L, d, d) array,
        is level L - 1 times each letter in one batched product, prefix times
        last letter. Levels are kept, and grown only after the word cap check."""
        i, D = as_letter(i, self.k, "factor"), operator.index(D)
        require_word_count(self.arities[i - 1], D, self.tol)
        levels = self._levels[i - 1]
        if not levels:
            levels.append(np.eye(self.dim, dtype=np.complex128)[None])
        while len(levels) <= D:
            levels.append((levels[-1][:, None] @ np.stack(self.rows[i - 1])).reshape(-1, self.dim, self.dim))
        for level in levels:
            level.setflags(write=False)
        return tuple(levels[:D + 1])

    def word_product(self, i: int, word: Sequence[int]) -> np.ndarray:
        """A_{i,alpha} = A_{i,j1} ... A_{i,jp} for alpha = (j1..jp): its entry in stack(i, p)."""
        i = as_letter(i, self.k, "factor")
        n, what = self.arities[i - 1], f"row {i} letter"
        g = 0
        for j in word:
            g = g * n + as_letter(j, n, what) - 1
        p, levels = len(word), self._levels[i - 1]
        return (levels if len(levels) > p else self.stack(i, p))[p][g]

    def monomial(self, mono: Sequence[Letter]) -> np.ndarray:
        """A_{i_1,j_1} ... A_{i_s,j_s} for the letters (i, j) of mono, one word_product
        per run of same-factor letters (ModelOperators.W_mono on the model)."""
        out = np.eye(self.dim, dtype=np.complex128)
        for i, run in itertools.groupby(mono, key=lambda letter: letter[0]):
            out = out @ self.word_product(i, [j for _, j in run])
        return out

    def evaluate_poly(self, q: NCPolynomial) -> np.ndarray:
        """q(A) = sum c A_mono over the terms (c, mono) of q."""
        zero = np.zeros((self.dim, self.dim), dtype=np.complex128)
        return sum((c * self.monomial(mono) for c, mono in q.terms), zero)

    def conjugate(self, Y: np.ndarray, Yinv: np.ndarray | None = None) -> "OperatorTuple":
        """The tuple Y^{-1} A_{i,j} Y (same symbols act on it)."""
        Y = _as_complex(Y)
        Yi = np.linalg.inv(Y) if Yinv is None else _as_complex(Yinv)
        rows = [[Yi @ A @ Y for A in row] for row in self.rows]
        return OperatorTuple(rows, tol=self.tol, check_commutation=False)


@dataclass
class SeriesResult:
    """Truncated series value with a certified tail bound; certified is always True."""

    value: np.ndarray
    tail_bound: float
    terms: Tuple[int, ...]
    certified: bool
    radii: Tuple[float, ...]


class _Orbit:
    """The identity orbit eta_s = ||Phi_i^s(I)||_2 of one factor, extended lazily.

    Russo-Dye bounds every iterate, ||Phi_i^s(X)||_2 <= eta_s ||X||_2, and
    submultiplicativity turns any t with theta_t = eta_t^{1/t} < 1 into the
    envelope eta_s <= growth_t theta_t^s for all s, where
    growth_t = max_{b<t} eta_b / theta_t^b. The envelope is refreshed when the
    orbit length doubles and kept while theta_t improves.
    """

    def __init__(self, phi: "CPMapTuple", i: int):
        # a weak reference: phi owns its orbits, and a cycle would keep phi's
        # matricizations alive until the cyclic collector runs
        self._phi = weakref.proxy(phi)
        self._i = i
        self.X = np.eye(phi.dim, dtype=np.complex128)
        self.eta: List[float] = [1.0]
        # lambda_min(Phi_i^s(I)): the last singular value of the PSD iterate
        self.floor: List[float] = [1.0]
        self.theta = float("inf")
        self.growth = float("inf")
        # (t, theta_t, growth_t) for each power of two t that improved theta
        self.envelopes: List[Tuple[int, float, float]] = []
        # an envelope theta below this bar certifies decay despite rounding (see decays)
        self.bar = 1.0 - phi.dim * _EPS

    def norm(self, s: int) -> float:
        """eta_s; zero past the nilpotency index, inf once the iterates overflow.

        A read that extends the orbit by more than one step applies the steps
        one after another and takes the singular values of that stretch in one
        batched SVD, at most _STRETCH_BYTES of iterates at a time. numpy runs
        the same LAPACK routine on each matrix of a stack, so eta, floor and
        the envelopes are those of one call per iterate. A stretch ends at an
        iterate that is zero or not finite, and the record ends at the first
        zero or inf eta, with X that iterate.
        """
        while len(self.eta) <= s and self.eta[-1] not in (0.0, float("inf")):
            size = min(s + 1 - len(self.eta), max(1, _STRETCH_BYTES // self.X.nbytes))
            X, stretch = self.X, []
            while len(stretch) < size:
                # the iterates are exactly Hermitian, so herm=True skips only the check
                X = self._phi.apply(self._i, X, herm=True)
                stretch.append(X)
                if len(stretch) < size and not (X.any() and np.isfinite(X).all()):
                    break
            for X, sv in zip(stretch, _singular_values(stretch)):
                self.X = X
                self.eta.append(float(sv[0]) if sv[0] == sv[0] else float("inf"))
                self.floor.append(float(sv[-1]) if sv[0] == sv[0] else 0.0)
                t = len(self.eta) - 1
                if t & (t - 1) == 0:
                    self._refresh(t)
                if self.eta[-1] in (0.0, float("inf")):
                    break
        return self.eta[min(s, len(self.eta) - 1)]

    def _refresh(self, t: int) -> None:
        if not 0.0 < self.eta[t] < 1.0:
            return
        theta = self.eta[t] ** (1.0 / t)
        if theta >= self.theta:
            return
        with np.errstate(divide="ignore", over="ignore"):
            growth = float(np.exp(np.log(self.eta[:t]) - np.arange(t) * np.log(theta)).max())
        if np.isfinite(growth):
            self.theta, self.growth = theta, growth
            self.envelopes.append((t, theta, growth))

    def decays(self, extend_to: int = 0) -> bool:
        """Whether the orbit certifies Phi_i^s -> 0, doubling its length up to extend_to until it does.

        A zero iterate certifies it, and so does an envelope with
        theta < 1 - d eps: then eta_t (1 + t d eps) < 1, so rho(Phi_i) < 1
        holds despite the rounding allowance t d eps eta_t of the iterate.
        """
        s = len(self.eta) - 1
        while not (self.eta[-1] == 0.0 or self.theta < self.bar) and 2 * s <= extend_to:
            s *= 2
            self.norm(s)
        return self.eta[-1] == 0.0 or self.theta < self.bar

    def crossed_at(self) -> Optional[int]:
        """Where decay is first certified: the nilpotency index, else the first
        power of two t with eta_t^{1/t} < 1 - d eps, else None.

        Neither depends on how far the orbit was read beyond that point.
        """
        nil = self.nilpotency_index()
        if nil is not None:
            return nil
        t = 1
        while t < len(self.eta):
            if self.eta[t] ** (1.0 / t) < self.bar:
                return t
            t *= 2
        return None

    def nilpotency_index(self) -> Optional[int]:
        """First s <= d with Phi_i^s = 0, or None; a nilpotent map on M_d vanishes by s = d.

        Only eta_0..eta_d are read: an orbit read further may underflow to
        0.0, which is not nilpotency.
        """
        d = self._phi.dim
        self.norm(d)
        return next((s for s, e in enumerate(self.eta[:d + 1]) if e == 0.0), None)

    def tail(self, s: int, m: int) -> float:
        """Certified bound on sum_{u>=s} C(u+m-1, m-1) ||Phi_i^u|| read off eta_0..eta_s only.

        A zero among them makes the tail exactly 0. Otherwise each envelope
        refreshed at a power of two t <= s applies, and the smallest bound is
        kept: consecutive weights grow by (u+m)/(u+1) <= (s+m)/(s+1). So the
        bound does not depend on how far earlier calls read the orbit.
        """
        if self.norm(s) == 0.0:
            return 0.0
        best = float("inf")
        for t, theta, growth in self.envelopes:
            ratio = theta * (s + m) / (s + 1)
            if t <= s and ratio < 1.0:
                best = min(best, growth * theta ** s / (1.0 - ratio))
        return comb(s + m - 1, m - 1) * best

    def norm_sum(self, m: int, start: int = 0) -> float:
        """Certified sum_{s>=start} C(s+m-1, m-1) ||Phi_i^s||; inf when no envelope is found within SERIES_BUDGET terms."""
        total = 0.0
        s = start
        while True:
            total += comb(s + m - 1, m - 1) * self.norm(s)
            s += 1
            tail = self.tail(s, m)
            if tail <= 1e-12 * max(total, 1.0) or s >= SERIES_BUDGET:
                return total + tail

    def gelfand(self, s_max: int) -> float:
        """min_{1<=t<=s_max} eta_t^{1/t}, an upper bound on the spectral radius of Phi_i."""
        self.norm(s_max)
        return min(e ** (1.0 / t) for t, e in enumerate(self.eta[1:s_max + 1], start=1))


class _Resolvent:
    """G_i = (id - Phi_i)^{-1} of one factor in its row's triangular form U:
    solve(Y) = U _stein_solve(T, a, U^* Y U) U^* over the term stack
    T[w] = U^* A_{i,w} U, and the witness Q = G_i(I), Hermitian. The bound
    c >= ||G_i|| is set by CPMapTuple._resolvent once it certifies Q. The
    record holds no reference to the tuple, as _Orbit holds a weak one."""

    def __init__(self, U: np.ndarray, T: np.ndarray, a: np.ndarray):
        self.U, self.Uh, self.T, self.a = U, U.conj().T, T, a
        self.Q = hermitize(self.solve(np.eye(U.shape[0], dtype=np.complex128)))
        self.c = float("nan")
        for part in (self.Uh, self.T, self.a, self.Q):
            part.setflags(write=False)

    def solve(self, Y: np.ndarray) -> np.ndarray:
        # _stein_solve is read when called, not when the record is built
        return self.U @ _stein_solve(self.T, self.a, self.Uh @ Y @ self.U) @ self.Uh


class CPMapTuple:
    """Symbols plus operators; the tuple of maps Phi_i = Phi_{f_i, A_i}."""

    def __init__(
        self,
        symbols: Sequence[PositiveSymbol],
        ops: OperatorTuple,
        validate: bool = True,
    ):
        symbols = tuple(symbols)
        if len(symbols) != ops.k:
            raise ValueError(f"{len(symbols)} symbols for {ops.k} operator rows")
        for i, f in enumerate(symbols):
            if f.arity != ops.arities[i]:
                raise ValueError(
                    f"symbol {i+1} has arity {f.arity}, operators have {ops.arities[i]}"
                )
            if validate:
                require_valid(f)
        self.symbols = symbols
        self.ops = ops
        self.tol = ops.tol
        self.k = ops.k
        self.dim = ops.dim
        self._matricized: Dict[int, np.ndarray] = {}
        self._term_lists: Dict[int, Tuple[Term, ...]] = {}
        self._orbits: Dict[int, _Orbit] = {}
        self._radii: Dict[int, float] = {}
        self._resolvents: Dict[int, Optional[_Resolvent]] = {}

    @classmethod
    def from_kraus(
        cls,
        families: Sequence[Sequence[np.ndarray]],
        tol: Tolerances | None = None,
    ) -> "CPMapTuple":
        """CP maps given by raw Kraus families; symbols implicitly Z_1+...+Z_n.

        The maps themselves must commute (M_i M_j = M_j M_i), which is weaker
        than entrywise commutation of the Kraus operators. Entrywise
        commutation implies it, so that is tried first (d^3 per pair of
        letters), and only a family that fails it is matricized (d^6 per
        pair of factors).
        """
        ops = OperatorTuple(families, tol=tol, check_commutation=False)
        symbols = [polyball_symbol(n) for n in ops.arities]
        phi = cls(symbols, ops)
        try:
            ops._check_commutation()
        except CommutationError:
            phi._check_map_commutation()
        return phi

    def _check_map_commutation(self) -> None:
        t = self.tol.tol_comm
        mats = [self.matricize(i) for i in range(1, self.k + 1)]
        for i in range(self.k):
            for j in range(i + 1, self.k):
                gap = np.linalg.norm(mats[i] @ mats[j] - mats[j] @ mats[i])
                scale = np.linalg.norm(mats[i]) * np.linalg.norm(mats[j])
                if gap > t * max(scale, 1.0):
                    raise CommutationError(
                        f"maps {i+1} and {j+1} do not commute: residual {gap:.3e}"
                    )

    # --- basic actions -------------------------------------------------

    def _per_factor(self, cache: Dict[int, object], i: int, build: Callable[[int], object]):
        """cache[i], filled by build(i) on first use. An i that is not an int is checked
        before the read, so 1.0 is refused even when cache[1] is filled."""
        if type(i) is not int or i not in cache:
            i = as_letter(i, self.k, "factor")
            if i not in cache:
                cache[i] = build(i)
        return cache[i]

    def _terms(self, i: int) -> Tuple[Term, ...]:
        """Factor i's terms (w, a_w, A_{i,w}), one per nonzero a_w in the symbol's
        order: every evaluation of Phi_i reads them. Built once per factor."""
        return self._per_factor(self._term_lists, i, lambda i: tuple(
            (w, float(a), self.ops.word_product(i, w))
            for w, a in self.symbols[i - 1].coeffs.items() if a != 0
        ))

    def apply(self, i: int, X: np.ndarray, herm: Optional[bool] = None) -> np.ndarray:
        """Phi_i(X). Hermitian inputs get a symmetrized output."""
        X = np.asarray(X, dtype=np.complex128)
        if X.shape != (self.dim, self.dim):
            raise ValueError(f"X has shape {X.shape}, expected {(self.dim, self.dim)}")
        if herm is None:
            herm = is_hermitian(X)
        out = np.zeros_like(X)
        for _, a, Aw in self._terms(i):
            out += a * (Aw @ X @ Aw.conj().T)
        return hermitize(out) if herm else out

    def matricize(self, i: int) -> np.ndarray:
        return self._per_factor(self._matricized, i, self._matricize)

    def _matricize(self, i: int) -> np.ndarray:
        d2 = self.dim * self.dim
        if d2 > self.tol.max_vec_dim:
            raise ResourceCapError(
                f"matricizing needs a {d2} x {d2} matrix; cap is {self.tol.max_vec_dim}"
            )
        M = np.zeros((d2, d2), dtype=np.complex128)
        for _, a, Aw in self._terms(i):
            M += a * np.kron(Aw, Aw.conj())
        return M

    # --- defect maps ----------------------------------------------------

    def defect(self, p: Sequence[int], X: np.ndarray) -> np.ndarray:
        """(id - Phi_k)^{p_k} o ... o (id - Phi_1)^{p_1} (X): factor 1 is applied first."""
        _require_degree("p", p, self.k, 0)
        Y = np.asarray(X, dtype=np.complex128)
        for i in range(1, self.k + 1):
            for _ in range(p[i - 1]):
                Y = Y - self.apply(i, Y)
        return Y

    def defect_grid(self, m: Sequence[int], X: np.ndarray) -> Dict[MultiDegree, np.ndarray]:
        """All defects Delta^p(X) for 0 <= p <= m via one incremental sweep."""
        _require_degree("m", m, self.k, 0)
        return defect_sweep(m, np.asarray(X, dtype=np.complex128), self.apply)

    # --- certified series -----------------------------------------------

    def _orbit(self, i: int) -> _Orbit:
        return self._per_factor(self._orbits, i, lambda i: _Orbit(self, i))

    def _settled(self, i: int) -> bool:
        """Tuple radius of factor i at most 1 - radius_margin: the gate of every series and decay search."""
        return self.joint_spectral_radius(i, crosscheck=False) <= 1.0 - self.tol.radius_margin

    def decays(self, i: int) -> bool:
        """Whether the identity orbit of factor i certifies Phi_i^s -> 0: the one decay rule.

        The orbit is read over at least 64 steps; a settled factor may double
        it up to SERIES_BUDGET steps, as far as a certified norm sum searches.
        """
        orbit = self._orbit(i)
        orbit.norm(_DECAY_WINDOW)
        return orbit.decays(extend_to=SERIES_BUDGET if self._settled(i) else 0)

    def _map_radius(self, i: int) -> float:
        """rho(Phi_i) by the rule joint_spectral_radius describes."""
        orbit = self._orbit(i)
        if orbit.nilpotency_index() is not None:
            return 0.0
        # rounding slack: for a normal map eta_1 is already the radius
        bound = orbit.gelfand(self.dim) * (1.0 + 1e-12)
        for path in (self._triangular_radius, self._arnoldi_radius):
            rho = path(i)
            if rho is not None and rho <= bound:
                return rho
        if self.dim ** 2 <= self.tol.max_vec_dim:
            M = _hermitian_form(self.matricize(i), self.dim)
            return float(np.max(np.abs(np.linalg.eigvals(M))))
        return orbit.gelfand(64)

    def _triangular_radius(self, i: int) -> Optional[float]:
        """rho(Phi_i) from row i's triangular form (ops.row_form), or None when it has none.

        The letters of row i must commute; the Q factor U of the eigenvectors
        of a generic combination G of them then triangularizes every A_{i,j},
        unless G is defective or clustered, which the test of each strictly
        lower part of U^* A_{i,j} U against _TRI_SLACK d eps ||A_{i,j}||_F
        refuses. With the diagonals lambda_j(k), the map Phi_i is triangular
        too, with eigenvalues sum_w a_w lambda_w(k) conj(lambda_w(l));
        a_w >= 0 and Cauchy-Schwarz put the largest modulus at k = l.
        """
        form = self.ops.row_form(i)
        if form is None:
            return None
        lam = np.diagonal(form[1], axis1=1, axis2=2)
        rho = np.zeros(self.dim)
        for w, a, _ in self._terms(i):
            rho += a * np.abs(np.prod(lam[[j - 1 for j in w]], axis=0)) ** 2
        return float(rho.max())

    def _arnoldi_radius(self, i: int) -> Optional[float]:
        """rho(Phi_i) matrix-free from d = _ARNOLDI_MIN_DIM on, or None when ARPACK gives no Perron root.

        The caller has settled a nilpotent factor (ARPACK reports garbage
        there). The top Ritz value from v0 = vec(I) is returned only when
        ARPACK converged and it is real and positive.
        """
        d = self.dim
        if d < _ARNOLDI_MIN_DIM:
            return None
        from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigs

        op = LinearOperator(
            (d * d, d * d), dtype=np.complex128,
            matvec=lambda v: vec(self.apply(i, unvec(v, d), herm=False)),
        )
        try:
            lam = eigs(op, k=1, which="LM", tol=0, v0=vec(np.eye(d, dtype=np.complex128)),
                       ncv=_ARNOLDI_NCV, maxiter=_ARNOLDI_MAXITER, return_eigenvectors=False)[0]
        except ArpackNoConvergence:
            return None
        if not (lam.real > 0.0 and abs(lam.imag) <= 1e-12 * lam.real):
            return None
        return float(lam.real)

    def _single_factor_series(
        self, i: int, m_i: int, X: np.ndarray, tail_target: float
    ) -> Tuple[np.ndarray, float, int]:
        """sum_s C(s+m_i-1, m_i-1) Phi_i^s(X), truncated with a certified tail bound.

        The caller has checked that factor i is settled. The orbit is kept
        level with the series, and the tail after s terms is
        sqrt(d) ||X||_2 times its tail(s, m_i), which reads eta_0..eta_s only,
        so the truncation does not depend on earlier calls. A factor whose
        tail has not met tail_target after SERIES_BUDGET terms raises
        DivergenceError. Returns (value, tail_bound, terms_used).
        """
        herm = is_hermitian(X)
        total = np.zeros_like(np.asarray(X, dtype=np.complex128))
        term = np.asarray(X, dtype=np.complex128)
        xnorm = float(np.linalg.norm(term, 2))
        if xnorm == 0.0:
            return total, 0.0, 0
        orbit = self._orbit(i)
        # from X = I on, the terms are the orbit's own iterates, shared
        # whenever the orbit ends at the current term
        on_orbit = np.array_equal(term, np.eye(self.dim))
        scale = np.sqrt(self.dim) * xnorm
        s = 0
        while True:
            total += comb(s + m_i - 1, m_i - 1) * term
            s += 1
            tail = scale * orbit.tail(s, m_i)
            if tail <= tail_target:
                return (hermitize(total) if herm else total), float(tail), s
            if s >= SERIES_BUDGET:
                raise DivergenceError(
                    f"factor {i}: tail bound still {tail:.3e} after {s} terms "
                    f"(theta={orbit.theta:.6f}); shrink the instance"
                )
            shared = on_orbit and len(orbit.eta) == s + 1
            term = orbit.X if shared else self.apply(i, term, herm=herm)
            if float(np.linalg.norm(term)) == 0.0:
                # structural annihilation: the remaining terms are exactly 0
                return (hermitize(total) if herm else total), 0.0, s

    def _wide_residual(self, i: int, prev: np.ndarray, Z: np.ndarray) -> np.ndarray:
        """prev - (id - Phi_i)(Z), formed and returned in _WIDE."""
        Zw = Z.astype(_WIDE)
        out = prev.astype(_WIDE) - Zw
        for _, a, Aw in self._terms(i):
            Aw = Aw.astype(_WIDE)
            out += a * (Aw @ Zw @ Aw.conj().T)
        return out

    def _resolvent(self, i: int) -> Optional[_Resolvent]:
        """Factor i's certified resolvent G_i = (id - Phi_i)^{-1}, built once, or None
        when row i has no triangular form (ops.row_form) or the certificate fails.

        In the basis U of row i's form every A_{i,w} is upper triangular, so
        G_i is one _stein_solve, and the witness Q_i = G_i(I) is solved first.
        With F_i = I - (id - Phi_i)(Q_i) in the original basis, Q_i > 0 and
        ||F_i||_2 <= 1/2 give Phi_i(Q_i) <= Q_i - I/2 < Q_i, so rho(Phi_i) < 1
        (Collatz-Wielandt), G_i is a positive map, and
        ||G_i(I)||_2 <= c_i = ||Q_i||_2 / (1 - ||F_i||_2). For E = H + iS with
        H, S Hermitian, -||H||_2 I <= H <= ||H||_2 I then gives
        ||G_i(E)||_2 <= c_i (||H||_2 + ||S||_2).
        """
        return self._per_factor(self._resolvents, i, self._certified_resolvent)

    def _certified_resolvent(self, i: int) -> Optional[_Resolvent]:
        form = self.ops.row_form(i)
        if form is None:
            return None
        from .cone import positive

        U, terms = form[0], self._terms(i)
        Uh = U.conj().T
        T = np.triu(np.stack([Uh @ Aw @ U for _, _, Aw in terms]))
        G = _Resolvent(U, T, np.array([a for _, a, _ in terms]))
        gap = float(np.linalg.norm(np.eye(self.dim, dtype=np.complex128) - G.Q + self.apply(i, G.Q), 2))
        if not (gap <= 0.5 and positive(G.Q, self.tol, definite=True)[0]):
            return None
        G.c = float(np.linalg.norm(G.Q, 2)) / (1.0 - gap)
        return G

    def _stages(
        self, stages: Sequence[Tuple[int, _Resolvent]], R: np.ndarray, herm: bool
    ) -> Tuple[np.ndarray, List[np.ndarray]]:
        """(Z_n, [E_1..E_n]) for the stages Z_j = G(Z_{j-1}), Z_0 = R, of the
        (factor i, resolvent G) pairs in order, with the residuals
        E_j = Z_{j-1} - (id - Phi_i)(Z_j) in _WIDE. Every Z_j is hermitized when
        herm is set, and from R = I the first stage is the witness Q."""
        Z, residuals = R, []
        for j, (i, G) in enumerate(stages):
            Z_next = G.Q if j == 0 and np.array_equal(R, np.eye(self.dim)) else G.solve(Z)
            if herm:
                Z_next = hermitize(Z_next)
            residuals.append(self._wide_residual(i, Z, Z_next))
            Z = Z_next
        return Z, residuals

    def _inverse_norm_bound(self, i: int, m_i: int) -> float:
        """A certified upper bound on ||G_i^{m_i}(I)||_2 = ||G_i^{m_i}||, G_i = (id - Phi_i)^{-1}.

        G_i^{m_i} is a positive map, so it attains its norm at I (Russo-Dye).
        A nilpotent factor gives the orbit's norm_sum(m_i), the series
        sum_s C(s+m_i-1, m_i-1) eta_s, here a finite sum, and builds no
        resolvent; so does a factor without a certified resolvent
        (_resolvent) or a wider type. norm_sum is inf when it finds no
        envelope within SERIES_BUDGET terms. Otherwise the m_i stages of
        _stages from Z_0 = I give G_i^{m_i}(I) = Z_{m_i} + sum_j
        G_i^{m_i-j+1}(E_j) exactly, and _split_norm bounds each term, so the
        bound is ||Z_{m_i}||_2 + sum_j c_i^{m_i-j+1} (||H_j||_2 + ||S_j||_2)
        for E_j = H_j + i S_j, H_j and S_j Hermitian.
        """
        orbit = self._orbit(i)
        G = None if _WIDE is None or orbit.nilpotency_index() is not None else self._resolvent(i)
        if G is None:
            return orbit.norm_sum(m_i)
        Z, residuals = self._stages([(i, G)] * m_i, np.eye(self.dim, dtype=np.complex128), True)
        spill = sum(G.c ** (m_i - j) * _split_norm(E.astype(np.complex128))
                    for j, E in enumerate(residuals))
        return float(np.linalg.norm(Z, 2)) + spill

    def _triangular_series(
        self, m: Sequence[int], R: np.ndarray, radii: Tuple[float, ...], target: float
    ) -> Optional[SeriesResult]:
        """Delta^{-m}(R) by the factors' resolvents (_resolvent), with an error
        bound; None when there is no wider type, a factor is nilpotent or has no
        certified resolvent, or the bound is above target.

        Delta^{-m} is m_i solves of G_i per factor, factor k first: the inverse
        of defect, which applies factor 1 first. Composing them needs only that
        the maps commute: OperatorTuple and from_kraus check it, and
        check_commutation=False leaves it to the caller.

        Stage j takes Z_{j-1} (Z_0 = R) to Z_j with residual
        E_j = Z_{j-1} - (id - Phi)(Z_j), formed in _WIDE since it is at the
        rounding level of Z_j. Then Delta^{-m}(R) - Z_n = D_n exactly, for
        D_j = G(D_{j-1} + E_j), D_0 = 0. The same stages give D~_n, and the
        value is Z_n + D~_n. Its error is the rounding of that sum, formed in
        _WIDE, plus D_n - D~_n; by the same identity, this is the stages
        j..n applied to the residuals D~_{j-1} + E_j - (id - Phi)(D~_j) of the
        D~ stages, kept in _WIDE like the E_j, each at most
        sqrt(d) (||H_j||_2 + ||S_j||_2) times the c_i of those stages in the
        Frobenius norm. The bound is the sum of these terms.
        """
        if _WIDE is None or any(
            self._orbit(i).nilpotency_index() is not None for i in range(1, self.k + 1)
        ):
            return None
        resolvents = [self._resolvent(i) for i in range(1, self.k + 1)]
        if None in resolvents:
            return None

        stages = [(i, resolvents[i - 1]) for i in range(self.k, 0, -1) for _ in range(m[i - 1])]
        herm = is_hermitian(R)
        Z, residuals = self._stages(stages, R, herm)
        D, shares = np.zeros_like(Z), []
        for (i, G), E in zip(stages, residuals):
            rhs = D + E
            D = G.solve(rhs.astype(np.complex128))
            if herm:
                D = hermitize(D)
            F = self._wide_residual(i, rhs, D).astype(np.complex128)
            shares.append(_split_norm(F))
        value = Z + D
        rounding = value.astype(_WIDE) - Z.astype(_WIDE) - D.astype(_WIDE)
        # the residual of the j-th D~ stage passes through the stages j..n
        through = np.cumprod([G.c for _, G in reversed(stages)])[::-1]
        bound = float(np.linalg.norm(rounding)) + float(np.sqrt(self.dim) * np.dot(shares, through))
        if not bound <= target:
            return None
        return SeriesResult(value, bound, (0,) * self.k, True, radii)

    def _refuse_unsettled(self, factors: Sequence[int]) -> None:
        bad = [i for i in factors if not self._settled(i)]
        if bad:
            raise DivergenceError(
                f"factors {bad} have radius above {1.0 - self.tol.radius_margin}"
            )

    def weighted_series(
        self,
        m: Sequence[int],
        R: np.ndarray,
        tol: float | None = None,
    ) -> SeriesResult:
        """sum over s in Z_+^k of prod_i C(s_i+m_i-1, m_i-1) Phi^s(R), certified or refused.

        The sum is Delta^{-m}(R), and the returned tail_bound certifies its
        Frobenius distance to the value on either of two paths, so certified
        is always True. Both run after the radius gate below.

        A tuple whose every factor has a certified resolvent (_resolvent: a
        Stein solver in its row's triangular form, built once per factor) and
        no nilpotent factor is solved factor by factor (_triangular_series):
        no term is summed, terms is all zeros, and tail_bound bounds the error
        of the residual-corrected value, mostly its rounding to double. That
        value is returned only when tail_bound meets the target below;
        otherwise, or when a factor has no certified resolvent, the series
        below runs unchanged.

        The series is evaluated stage by stage, factor 1 first, and
        tail_bound bounds its truncation. The Stein stages run factor k
        first, so they invert defect exactly; the two orders agree because
        the maps commute. On both paths tail_bound is at most
        the target tol max(1, ||R||_F). Neither bound counts the rounding of
        its own residual or term evaluation.

        Each factor's bounds come from its identity orbit eta_s: the stage
        tail uses ||Phi_j^u(X)||_F <= sqrt(d) eta_u ||X||_2, and an error
        passed through stage j grows at most by sqrt(d) * norm_sum_j(m_j),
        norm_sum_j(m_j) = sum_u C(u+m_j-1, m_j-1) eta_u. DivergenceError is
        raised when a factor's radius is above 1 - radius_margin, when a norm
        sum finds no envelope, or when a stage needs more than SERIES_BUDGET
        terms. The truncation and value depend only on the tuple, m, R and
        tol, not on earlier calls.
        """
        _require_degree("m", m, self.k, 1)
        tol = self.tol.series_tol if tol is None else float(tol)
        R = _as_complex(R)
        target = tol * max(1.0, float(np.linalg.norm(R)))

        radii = tuple(self.joint_spectral_radius(i, crosscheck=False) for i in range(1, self.k + 1))
        self._refuse_unsettled(range(1, self.k + 1))
        solved = self._triangular_series(m, R, radii, target)
        if solved is not None:
            return solved
        amps = [np.sqrt(self.dim) * self._orbit(j + 1).norm_sum(m[j]) for j in range(1, self.k)]
        if not all(np.isfinite(amps)):
            raise DivergenceError(
                f"no certified norm sum within {SERIES_BUDGET} terms for factors "
                f"{[j + 2 for j, a in enumerate(amps) if not np.isfinite(a)]}"
            )
        value = R
        tail_total = 0.0
        terms: List[int] = []
        for idx in range(self.k):
            downstream = float(np.prod(amps[idx:]))
            value, tail, used = self._single_factor_series(
                idx + 1, m[idx], value, target / (self.k * downstream)
            )
            terms.append(used)
            tail_total += tail * downstream
        return SeriesResult(value, tail_total, tuple(terms), True, radii)

    # --- radius ---------------------------------------------------------

    def radius_power_sequence(self, i: int, s_max: int = 64) -> Tuple[float, float]:
        """Enclosure (lower, upper) of the tuple radius from the identity orbit up to s_max.

        upper = sqrt(min_t eta_t^{1/t}), the Gelfand bound. Phi_i^t(I) >= lam_t I,
        lam_t = lambda_min(Phi_i^t(I)), gives Phi_i^{nt}(I) >= lam_t^n I for all
        n, hence rho(Phi_i)^t >= lam_t (Collatz-Wielandt with Y = I). With the
        rounding allowance t d eps eta_t of the computed iterate,
        lower = sqrt(max_t (lam_t - t d eps eta_t)_+^{1/t}), 0 when no term is positive.
        """
        orbit = self._orbit(i)
        upper = orbit.gelfand(s_max)
        slack = self.dim * _EPS
        pairs = zip(orbit.eta[1:s_max + 1], orbit.floor[1:s_max + 1])
        lower = max(
            ((lam - t * slack * eta) ** (1.0 / t)
             for t, (eta, lam) in enumerate(pairs, start=1) if lam > t * slack * eta),
            default=0.0,
        )
        return float(np.sqrt(lower)), float(np.sqrt(upper))

    def joint_spectral_radius(self, i: int, crosscheck: bool = True) -> float:
        """sqrt of the spectral radius of Phi_i, computed once per factor.

        One rule, in order:
        1. 0 when the identity orbit hits zero by s = d (a nilpotent map);
        2. the first of two candidates that is at most the orbit's Gelfand
           bound min_{t<=d} eta_t^{1/t} (1 + 1e-12), tried lazily:
           - row i's triangular form (_triangular_radius, ops.row_form): when
             the letters of row i commute, U^* A_{i,j} U for U the Q factor of
             the eigenvectors of G = sum_j (j + 1/sqrt2) A_{i,j}, refused when
             a strictly lower part exceeds 64 d eps ||A_{i,j}||_F, and
             max_k sum_w a_w |lambda_w(k)|^2 from its diagonals; the form is
             kept on the OperatorTuple, and the series reuses it;
           - from d = 12 on, the top Ritz value of ARPACK (_arnoldi_radius;
             k=1, which="LM", tol=0, v0 = vec(I), at most 10 restarts of a
             40-vector basis) when it converged and is real and positive;
        3. while d^2 <= tol.max_vec_dim (6400 by default), dense eigvals of
           the real form of the map on the Hermitian matrices;
        4. above that, the Gelfand bound min_{t<=64} eta_t^{1/t}, an upper
           bound.

        Every commuting gen family takes the triangular candidate. Measured
        on one 2-vCPU host, one BLAS thread, a commuting_polynomials tuple
        costs 1.8 / 4.5 / 10 ms at d = 8 / 16 / 24 there against 7 / 23 /
        35 ms by the later steps, and conjugated unitaries at d = 24 cost
        10 ms against 1.2 s (a refused Arnoldi run and dense eigvals); the
        value agrees with dense eigvals to about 1e-14 relative.

        The Arnoldi crossover is measured: at d = 8 an Arnoldi run costs as
        much as eigvals of the 64 x 64 matricization (4-10 ms against
        3-5 ms), at d = 12 it costs a third (8-16 ms against 20-32 ms), at
        d = 24 a thirtieth. vec(I) is a valid start: the radius of a
        positive map is an eigenvalue whose dual eigenvector Q is PSD
        (Evans-Hoegh-Krohn), so I has the component tr(Q) > 0 along it, and
        the Krylov space is the span of the orbit Phi_i^s(I).

        With crosscheck=True the value is tested against the orbit enclosure
        radius_power_sequence(i) and ArithmeticError is raised when it lies
        outside [lower (1 - 1e-12), upper (1 + 1e-12)], the rounding slack of
        the acceptance test in step 2.
        """
        r = self._per_factor(self._radii, i, lambda i: float(np.sqrt(self._map_radius(i))))
        if crosscheck:
            lower, upper = self.radius_power_sequence(i)
            if not lower * (1.0 - 1e-12) <= r <= upper * (1.0 + 1e-12):
                raise ArithmeticError(
                    f"radius crosscheck failed for factor {i}: radius {r:.8f} lies "
                    f"outside the orbit enclosure [{lower:.8f}, {upper:.8f}]"
                )
        return r
