"""Independent reference computations for the test suite.

Everything here is deliberately naive: exhaustive enumeration over ordered
factorizations, direct term-by-term summation, dense linear algebra on
vectorized matrices. None of it shares code paths with the library. The
library must agree with these oracles, never the other way around.
"""

from fractions import Fraction
from itertools import combinations, product
from math import comb

import numpy as np


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

def ordered_factorizations(word):
    """All ways to cut a word into nonempty contiguous pieces, as tuples."""
    word = tuple(word)
    L = len(word)
    if L == 0:
        yield ()
        return
    for parts in range(1, L + 1):
        for cuts in combinations(range(1, L), parts - 1):
            bounds = (0,) + cuts + (L,)
            yield tuple(word[bounds[t]:bounds[t + 1]] for t in range(parts))


def brute_weight(coeffs, word, m):
    """b_alpha^{(m)} by exhaustive enumeration.

    coeffs maps letter-tuples to coefficients of the symbol f; the weight is
    sum over ordered factorizations alpha = beta_1 ... beta_p of
    C(p+m-1, m-1) * a_{beta_1} * ... * a_{beta_p}. Exact when the
    coefficients are ints or Fractions.
    """
    word = tuple(word)
    if len(word) == 0:
        return Fraction(1) if _all_rational(coeffs) else 1.0
    lookup = {tuple(w): a for w, a in coeffs.items()}
    total = Fraction(0) if _all_rational(coeffs) else 0.0
    for pieces in ordered_factorizations(word):
        prod = Fraction(1) if _all_rational(coeffs) else 1.0
        ok = True
        for piece in pieces:
            a = lookup.get(piece)
            if a is None or a == 0:
                ok = False
                break
            prod *= a
        if ok:
            total += prod * comb(len(pieces) + m - 1, m - 1)
    return total


def _all_rational(coeffs):
    return all(isinstance(a, (int, Fraction)) for a in coeffs.values())


def convolve_weights(b1, b2, word):
    """(b1 * b2)_alpha = sum over splits alpha = beta.gamma of b1_beta b2_gamma."""
    word = tuple(word)
    total = None
    for t in range(len(word) + 1):
        term = b1[word[:t]] * b2[word[t:]]
        total = term if total is None else total + term
    return total


# ---------------------------------------------------------------------------
# CP map expressions by direct summation
# ---------------------------------------------------------------------------

def naive_defect(phi, p, X):
    """Delta^p(X) expanded binomially: sum_s (-1)^{|s|} prod C(p_i, s_i) Phi^s(X)."""
    X = np.asarray(X, dtype=np.complex128)
    total = np.zeros_like(X)
    ranges = [range(pi + 1) for pi in p]
    for s in product(*ranges):
        term = X
        for i, si in enumerate(s, start=1):
            for _ in range(si):
                term = phi.apply(i, term)
        sign = (-1) ** sum(s)
        weight = 1
        for pi, si in zip(p, s):
            weight *= comb(pi, si)
        total = total + sign * weight * term
    return total


def naive_weighted_series(phi, m, R, s_max):
    """Partial sum of the weighted series over the box 0 <= s_i <= s_max."""
    R = np.asarray(R, dtype=np.complex128)
    total = np.zeros_like(R)
    ranges = [range(s_max + 1)] * phi.k
    for s in product(*ranges):
        term = R
        for i, si in enumerate(s, start=1):
            for _ in range(si):
                term = phi.apply(i, term)
        weight = 1
        for mi, si in zip(m, s):
            weight *= comb(si + mi - 1, mi - 1)
        total = total + weight * term
    return total


def naive_cesaro(phi, p, X):
    """Multi-average of composed iterates by direct double-loop summation."""
    X = np.asarray(X, dtype=np.complex128)
    total = np.zeros_like(X)
    count = 0
    ranges = [range(pi) for pi in p]
    for s in product(*ranges):
        term = X
        for i, si in enumerate(s, start=1):
            for _ in range(si):
                term = phi.apply(i, term)
        total = total + term
        count += 1
    return total / count


def nested_limit_value(phi, q, X):
    """(id - Phi_k^{q_k}) o ... o (id - Phi_1^{q_1}) (X) via matricized powers."""
    from polydom.cpmap import unvec, vec

    d = phi.dim
    v = vec(np.asarray(X, dtype=np.complex128))
    for i in range(1, phi.k + 1):
        M = phi.matricize(i)
        v = v - np.linalg.matrix_power(M, q[i - 1]) @ v
    return unvec(v, d)


def dense_map_matrix(phi, i):
    """The d^2 x d^2 matrix of Phi_i, built from the words, not phi.matricize."""
    d = phi.dim
    M = np.zeros((d * d, d * d), dtype=np.complex128)
    for w, a in phi.symbols[i - 1].coeffs.items():
        Aw = np.eye(d, dtype=np.complex128)
        for j in w:
            Aw = Aw @ phi.ops.rows[i - 1][j - 1]
        M += float(a) * np.kron(Aw, Aw.conj())
    return M


def dense_radius(phi, i):
    """sqrt of the spectral radius of Phi_i by complex eigvals of dense_map_matrix."""
    return float(np.sqrt(np.max(np.abs(np.linalg.eigvals(dense_map_matrix(phi, i))))))


def dense_defect_solve(phi, m, R):
    """The solution X of Delta^m(X) = R by one dense linear solve."""
    from polydom.cpmap import unvec, vec

    d2 = phi.dim * phi.dim
    L = np.eye(d2, dtype=np.complex128)
    for i, mi in enumerate(m, start=1):
        F = np.eye(d2, dtype=np.complex128) - dense_map_matrix(phi, i)
        for _ in range(mi):
            L = F @ L
    return unvec(np.linalg.solve(L, vec(np.asarray(R, dtype=np.complex128))), phi.dim)


# ---------------------------------------------------------------------------
# variety subspace by dense SVDs over the whole truncated space
# ---------------------------------------------------------------------------

def dense_variety_subspace(model, Q_polys):
    """N_Q from one dense SVD per closure round, ignoring any grading.

    Seeds are the stacked columns of q(W); M_Q is their left-W-invariant
    closure, grown breadth first; N_Q is the orthocomplement read off the
    full SVD of the M_Q basis, which stays local. The thresholds are the library's: cutoff
    times ||seeds||_2 for the seeds, cutoff * max(||seeds||_2, 1) for
    children, cutoff * s[0] for the complement.
    """
    from polydom.fock import VarietySubspace

    fock = model.fock
    cutoff = model.tol.svd_cutoff
    polys = tuple(Q_polys)
    basis_M = np.zeros((fock.dim, 0), dtype=np.complex128)
    if polys:
        seeds = np.hstack([model.evaluate_poly(q).toarray() for q in polys])
        U, s, _ = np.linalg.svd(seeds, full_matrices=False)
        scale0 = float(s[0]) if s.size else 0.0
        if scale0 > 0.0:
            basis_M = U[:, s > cutoff * scale0]
        frontier = basis_M
        while frontier.shape[1] > 0:
            children = np.hstack([W @ frontier for (_, _, W) in model.all_W()])
            children = children - basis_M @ (basis_M.conj().T @ children)
            children = children - basis_M @ (basis_M.conj().T @ children)
            U, s, _ = np.linalg.svd(children, full_matrices=False)
            frontier = U[:, s > cutoff * max(scale0, 1.0)]
            basis_M = np.hstack([basis_M, frontier])

    if basis_M.shape[1] == 0:
        basis_N = np.eye(fock.dim, dtype=np.complex128)
    else:
        U, s, _ = np.linalg.svd(basis_M, full_matrices=True)
        basis_N = U[:, int(np.count_nonzero(s > cutoff * s[0])):]

    full = 0.0
    interior = 0.0
    if basis_M.shape[1] > 0:
        low_rows = fock.max_degree_array() <= fock.degree_cap - 1
        for (_, _, W) in model.all_W():
            Y = W.conj().T @ basis_N
            full = max(full, float(np.linalg.norm(basis_M.conj().T @ Y, 2)))
            X = basis_M[low_rows].conj().T @ Y[low_rows]
            interior = max(interior, float(np.linalg.norm(X, 2)))
    return VarietySubspace(
        basis_N=basis_N,
        polys=polys,
        invariance_residual_full=full,
        invariance_residual_interior=interior,
    )


# ---------------------------------------------------------------------------
# torus sup for polynomial matrices
# ---------------------------------------------------------------------------

def torus_grid_sup(poly_matrix, k, grid):
    """max over a grid of T^k of the spectral norm of [q_st(z_1..z_k)].

    poly_matrix is a nested list of NCPolynomial; scalar evaluation sends
    letter (i, j) to the i-th torus coordinate (arities must be 1).
    """
    best = 0.0
    angles = [2.0 * np.pi * t / grid for t in range(grid)]
    rows = len(poly_matrix)
    cols = len(poly_matrix[0])
    for point in product(angles, repeat=k):
        z = [np.exp(1j * a) for a in point]
        mat = np.zeros((rows, cols), dtype=np.complex128)
        for r in range(rows):
            for c in range(cols):
                q = poly_matrix[r][c]
                val = 0.0 + 0.0j
                for coeff, mono in q.terms:
                    term = complex(coeff)
                    for (i, _j) in mono:
                        term *= z[i - 1]
                    val += term
                mat[r, c] = val
        best = max(best, float(np.linalg.norm(mat, 2)))
    return best


# ---------------------------------------------------------------------------
# frozen values
# ---------------------------------------------------------------------------

# Weights of f = Z1 + (1/2) Z2 + (1/3) Z1 Z2, computed by brute_weight and
# checked by hand before freezing, so a simultaneous drift of oracle and
# library cannot go unnoticed. Keys are (word, m). Hand derivation for
# (1,2), m=2: factorizations (1)(2) with p=2 pieces and (12) with p=1;
# weights C(p+1,1) give 3*(1/2) + 2*(1/3) = 13/6. For (1,1,2), m=1:
# (1)(1)(2) -> 1/2 and (1)(12) -> 1/3 (pieces (1,1) and (1,1,2) have zero
# coefficient), all with weight 1, so 5/6.
FROZEN_WEIGHTS = {
    ((), 1): Fraction(1),
    ((1,), 1): Fraction(1),
    ((2,), 1): Fraction(1, 2),
    ((1, 2), 1): Fraction(5, 6),
    ((1, 2), 2): Fraction(13, 6),
    ((1, 1, 2), 1): Fraction(5, 6),
    ((1, 1, 2), 2): Fraction(3),
    ((1, 2, 1, 2), 3): Fraction(31, 4),
}

GEOMETRIC_SERIES = {
    # (c, m) -> (1 - c^2)^{-m}, the weighted series of I for f=Z, A=cI
    (0.5, 1): 4.0 / 3.0,
    (0.5, 2): 16.0 / 9.0,
    (0.3, 3): (1.0 / (1.0 - 0.09)) ** 3,
}
