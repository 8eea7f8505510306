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


def dense_map_commutator(phi, i, j):
    """(||M_i M_j - M_j M_i||_F, ||M_i||_F ||M_j||_F) on the d^2 x d^2 matrices of dense_map_matrix."""
    Mi, Mj = dense_map_matrix(phi, i), dense_map_matrix(phi, j)
    return float(np.linalg.norm(Mi @ Mj - Mj @ Mi)), float(np.linalg.norm(Mi) * np.linalg.norm(Mj))


def dense_radius(phi, i):
    """sqrt of the spectral radius of Phi_i by complex eigvals of dense_map_matrix."""
    return float(np.sqrt(np.max(np.abs(np.linalg.eigvals(dense_map_matrix(phi, i))))))


def dense_defect_matrix(phi, m):
    """Delta^m as a d^2 x d^2 matrix on vec(X)."""
    d2 = phi.dim * phi.dim
    L = np.eye(d2, dtype=np.complex128)
    for i, mi in enumerate(m, start=1):
        F = np.eye(d2, dtype=np.complex128) - dense_map_matrix(phi, i)
        for _ in range(mi):
            L = F @ L
    return L


def dense_defect_solve(phi, m, R):
    """The solution X of Delta^m(X) = R by one dense linear solve."""
    from polydom.cpmap import unvec, vec

    L = dense_defect_matrix(phi, m)
    return unvec(np.linalg.solve(L, vec(np.asarray(R, dtype=np.complex128))), phi.dim)


def word_terms(phi, i):
    """Factor i's terms (w, a_w, A_{i,w}) read word by word from the symbol on
    every call, zeros skipped, each A_{i,w} multiplied out letter by letter."""
    return [(w, float(a), letter_product(phi.ops, i, w))
            for w, a in phi.symbols[i - 1].coeffs.items() if a != 0]


def loop_apply(phi, i, X, herm=None):
    """Phi_i(X) summed word by word in the symbol's order; a Hermitian X (or
    herm=True) gets the symmetrized output."""
    X = np.asarray(X, dtype=np.complex128)
    if herm is None:
        herm = np.linalg.norm(X - X.conj().T) <= 1e-12 * (1.0 + np.linalg.norm(X))
    out = np.zeros_like(X)
    for w, a in phi.symbols[i - 1].coeffs.items():
        if a != 0:
            Aw = letter_product(phi.ops, i, w)
            out += float(a) * (Aw @ X @ Aw.conj().T)
    return (out + out.conj().T) / 2 if herm else out


def loop_matricize(phi, i):
    """sum_w a_w kron(A_{i,w}, conj(A_{i,w})) summed word by word in the symbol's order."""
    d2 = phi.dim * phi.dim
    M = np.zeros((d2, d2), dtype=np.complex128)
    for w, a in phi.symbols[i - 1].coeffs.items():
        if a != 0:
            Aw = letter_product(phi.ops, i, w)
            M += float(a) * np.kron(Aw, Aw.conj())
    return M


def loop_wide_residual(phi, i, prev, Z):
    """prev - (id - Phi_i)(Z) in long double, summed word by word in the symbol's order."""
    Zw = Z.astype(np.clongdouble)
    out = prev.astype(np.clongdouble) - Zw
    for w, a in phi.symbols[i - 1].coeffs.items():
        if a != 0:
            Aw = letter_product(phi.ops, i, w).astype(np.clongdouble)
            out += float(a) * (Aw @ Zw @ Aw.conj().T)
    return out


def loop_triangular_radius(phi, i, lam):
    """max_k sum_w a_w |prod_t lam[w_t - 1, k]|^2 summed word by word, for the
    diagonals lam[j - 1] of a triangular form of row i's letters."""
    rho = np.zeros(phi.dim)
    for w, a in phi.symbols[i - 1].coeffs.items():
        if a != 0:
            rho += float(a) * np.abs(np.prod(lam[[j - 1 for j in w]], axis=0)) ** 2
    return float(rho.max())


def wide_defect(phi, m, X):
    """Delta^m(X) formed in long double from the tuple's word products."""
    Y = np.asarray(X).astype(np.clongdouble)
    for i, mi in enumerate(m, start=1):
        words = [(float(a), phi.ops.word_product(i, w).astype(np.clongdouble))
                 for w, a in phi.symbols[i - 1].coeffs.items() if a != 0]
        for _ in range(mi):
            Y = Y - sum(a * (A @ Y @ A.conj().T) for a, A in words)
    return Y


def refined_defect_solve(phi, m, R, steps=3):
    """dense_defect_solve refined against wide_defect's residual: where long
    double is wider than double, accurate to a few eps ||X||_F even when the
    dense solve alone loses cond(Delta^m) eps."""
    from polydom.cpmap import unvec, vec

    L = dense_defect_matrix(phi, m)
    R = np.asarray(R, dtype=np.complex128)
    X = np.zeros_like(R)
    for _ in range(steps + 1):
        E = (R - wide_defect(phi, m, X)).astype(np.complex128)
        X = X + unvec(np.linalg.solve(L, vec(E)), phi.dim)
    return X


# ---------------------------------------------------------------------------
# weighted shifts as scipy.sparse matrices
# ---------------------------------------------------------------------------

def csr_shift(fock, i, j):
    """W_{i,j} as a CSR matrix: the factor-i shift e_w -> sqrt(b_w / b_{jw}) e_{jw},
    built column by column over the factor's words, in a Kronecker product
    with identities on the other factors. Top-degree columns stay empty."""
    import scipy.sparse as sp
    from polydom.words import Word

    words = fock.factor_words[i - 1]
    index = fock.factor_index[i - 1]
    b = fock.weights[i - 1]
    rows, cols, vals = [], [], []
    for c, w in enumerate(words):
        if len(w) >= fock.degree_cap:
            continue  # annihilate top degree
        target = Word((j,) + tuple(w))
        rows.append(index[target])
        cols.append(c)
        vals.append(float(np.sqrt(b.value(w) / b.value(target))))
    d_i = fock.factor_dims[i - 1]
    shift = sp.csr_matrix((vals, (rows, cols)), shape=(d_i, d_i))
    pre = sp.identity(int(np.prod(fock.factor_dims[: i - 1], initial=1)), format="csr")
    post = sp.identity(int(np.prod(fock.factor_dims[i:], initial=1)), format="csr")
    return sp.kron(pre, sp.kron(shift, post, format="csr"), format="csr")


def csr_mono(fock, mono):
    """W_{i_1,j_1} ... W_{i_s,j_s} as a CSR product, from the identity."""
    import scipy.sparse as sp

    out = sp.identity(fock.dim, format="csr")
    for (i, j) in mono:
        out = out @ csr_shift(fock, i, j)
    return out


def evaluate(q, letter_value, identity):
    """q evaluated letter by letter: letter_value(i, j) supplies Z_{i,j}, and
    each monomial is the product from identity on, one letter at a time."""
    result = 0 * identity
    for c, mono in q.terms:
        prod = identity
        for (i, j) in mono:
            prod = prod @ letter_value(i, j)
        result = result + c * prod
    return result


def evaluate_poly(fock, q):
    """q(W) as a dense matrix, summed term by term over CSR products."""
    import scipy.sparse as sp

    return evaluate(q, lambda i, j: csr_shift(fock, i, j), sp.identity(fock.dim, format="csr")).toarray()


def csr_diag_map(fock, i):
    """The diagonal action of Phi_i on the model, sum_w a_w |W_w|^2 entrywise, as CSR."""
    import scipy.sparse as sp

    acc = sp.csr_matrix((fock.dim, fock.dim))
    for w, a in fock.symbols[i - 1].coeffs.items():
        if a != 0 and len(w):
            Ww = csr_mono(fock, [(i, j) for j in w])
            acc = acc + float(a) * Ww.multiply(Ww.conj())
    return acc.tocsr()


# ---------------------------------------------------------------------------
# Berezin kernel, one basis index at a time
# ---------------------------------------------------------------------------

def letter_product(ops, i, word):
    """A_{i,w} multiplied out letter by letter from ops.rows, from the identity on."""
    A = np.eye(ops.dim, dtype=np.complex128)
    for j in word:
        A = A @ ops.rows[i - 1][j - 1]
    return A


def loop_kernel(ops, fock, R2):
    """K of a tuple, filled one truncated Fock basis index g at a time.

    Row block g is sqrt(prod_i b_{i,beta_i}) R2 A_{1,beta_1}^* ... A_{k,beta_k}^*
    for (beta_1, ..., beta_k) = fock.words_at(g), each A_{i,beta_i} multiplied
    out letter by letter from ops.rows; R2 is rank x d, and rank 0 gives one
    zero row per basis index.
    """
    rank, d = R2.shape
    K = np.zeros((fock.dim * max(rank, 1), d), dtype=np.complex128)
    if rank == 0:
        return K
    for g in range(fock.dim):
        beta = fock.words_at(g)
        w = 1.0
        for i in range(fock.k):
            w *= float(fock.weights[i].value(beta[i]))
        adj = np.eye(d, dtype=np.complex128)
        for i, word in enumerate(beta, start=1):
            adj = adj @ letter_product(ops, i, word).conj().T
        K[g * rank:(g + 1) * rank, :] = np.sqrt(w) * (R2 @ adj)
    return K


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
    shifts = [csr_shift(fock, i, j) for (i, j, _) in model.all_W()]
    basis_M = np.zeros((fock.dim, 0), dtype=np.complex128)
    if polys:
        seeds = np.hstack([evaluate_poly(fock, q) for q in polys])
        U, s, _ = np.linalg.svd(seeds, full_matrices=False)
        scale0 = float(s[0]) if s.size else 0.0
        if scale0 > 0.0:
            basis_M = U[:, s > cutoff * scale0]
        frontier = basis_M
        while frontier.shape[1] > 0:
            children = np.hstack([W @ frontier for W in shifts])
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
        for W in shifts:
            Y = W.conj().T @ basis_N
            full = max(full, float(np.linalg.norm(basis_M.conj().T @ Y, 2)))
            X = basis_M[low_rows].conj().T @ Y[low_rows]
            interior = max(interior, float(np.linalg.norm(X, 2)))
    # one block: the whole space, each shift its own block map
    return VarietySubspace(
        rows=[np.arange(fock.dim)],
        blocks=[basis_N],
        shifts={(i, j): [(0, W.take, W.scale)] for i, j, W in model.all_W()},
        polys=polys,
        invariance_residual_full=full,
        invariance_residual_interior=interior,
    )


def dense_basis(sub):
    """The dense dim x dim_N basis of N_Q, assembled from sub's grade blocks;
    its columns are the blocks' columns in block order."""
    out = np.zeros((sum(len(R) for R in sub.rows), sub.dim_N), dtype=np.complex128)
    for R, N, cols in zip(sub.rows, sub.blocks, sub.columns()):
        out[R, cols] = N
    return out


def dense_shifts(comp):
    """Each compressed shift S_{i,j} as a dense dim_N x dim_N matrix, its
    blocks placed at the subspace's columns."""
    cols = comp.subspace.columns()
    out = {}
    for ij, block_rows in comp.blocks.items():
        out[ij] = np.zeros((comp.dim_N, comp.dim_N), dtype=np.complex128)
        for h, row in enumerate(block_rows):
            if row is not None:
                out[ij][cols[h], cols[row[0]]] = row[1]
    return out


def dense_compress(model, sub):
    """(S, q_residuals_full, q_residuals_interior) through the dense basis B of
    N_Q: S_{i,j} = B^*(W B), and the interior residual restricts q(S) to the
    null space of the high-degree row block of B, read off one SVD."""
    fock = model.fock
    B = dense_basis(sub)
    S = {(i, j): B.conj().T @ (W @ B) for i, j, W in model.all_W()}
    eye = np.eye(B.shape[1], dtype=np.complex128)
    deg = fock.max_degree_array()
    full, interior = [], []
    for q in sub.polys:
        qS = evaluate(q, lambda i, j: S[(i, j)], eye)
        full.append(float(np.linalg.norm(qS, 2)))
        high = B[deg > fock.degree_cap - max(q.max_degree(), 1)]
        if high.shape[0] == 0:
            C = eye
        else:
            _, s, Vt = np.linalg.svd(high, full_matrices=high.shape[0] < high.shape[1])
            rank = int(np.count_nonzero(s > model.tol.svd_cutoff * max(s[0], 1e-300))) if s.size else 0
            C = Vt.conj().T[:, rank:]
        interior.append(float(np.linalg.norm(qS @ C, 2)) if C.shape[1] else 0.0)
    return S, full, interior


def dense_constrained_projection(base, sub):
    """(K_omega, range_residual) by projecting the kernel tensor through the
    dense basis of N_Q with two einsums."""
    T = base.as_tensor()
    B = dense_basis(sub)
    proj = np.einsum("na,nrd->ard", B.conj(), T)
    back = np.einsum("na,ard->nrd", B, proj)
    leak = float(np.linalg.norm((T - back).reshape(-1, base.d), 2))
    return proj.reshape(-1, base.d), leak


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
