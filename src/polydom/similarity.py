"""Similarity solvers with numeric certificates.

Three certificates, one per theorem: model embedding through a Berezin
kernel, constrained to the variety when constraints are given;
strict-contraction conjugation through the weighted series of the identity
(Rota); and conjugation by the common fixed point of the maps that is the
ergodic projection of the identity (Sz.-Nagy), read off one joint eigenbasis
of the letters when it diagonalizes them all and off the d^2 x d^2 null
spaces otherwise, refused when an identity orbit or that projection rules
out every positive definite fixed point. Two front ends return them
relabelled: similarity_to_variety, the Rota or Sz.-Nagy certificate,
whichever theorem decides, once no radius enclosure lies above one;
cpmap_similarity, for commuting CP maps in raw Kraus form, the certificate
of its mode. Every certificate re-verifies its residuals before
it is returned; failing certificates are returned marked FAILED, not dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .config import DivergenceError, require_tol
from .cone import ConeReport, hermitian, membership, positive, sqrt_pair
from .cpmap import (
    _EPS,
    _TRI_SLACK,
    _WIDE,
    _eigenbasis,
    _require_degree,
    CPMapTuple,
    OperatorTuple,
    SeriesResult,
    hermitize,
    unvec,
    vec,
)
from .berezin import (
    constrained_kernel,
    intertwine_check,
    intertwine_check_constrained,
    kernel as berezin_kernel,
)
from .fock import build_model, variety_subspace
from .words import NCPolynomial, PositiveSymbol, as_count


@dataclass
class SimilarityCertificate:
    kind: str  # model_embed | strict_conjugation | isometric_conjugation | cpmap_similarity | variety_similarity
    status: str = "PENDING"  # PASS | FAILED | INCONCLUSIVE once finalized
    residuals: Dict[str, float] = field(default_factory=dict)
    tolerances: Dict[str, float] = field(default_factory=dict)
    witnesses: Dict[str, float] = field(default_factory=dict)
    Y: Optional[np.ndarray] = None
    Q: Optional[np.ndarray] = None
    cond: Optional[float] = None
    claimed_bound: Optional[float] = None
    notes: List[str] = field(default_factory=list)

    def finalize(self) -> "SimilarityCertificate":
        """Sets the status from the recorded residuals and bound claims."""
        ok = all(
            self.residuals[name] <= self.tolerances.get(name, float("inf"))
            for name in self.residuals
        )
        if ok and self.claimed_bound is not None and self.cond is not None:
            ok = self.cond <= self.claimed_bound * (1.0 + 1e-8)
            if not ok:
                self.notes.append(
                    f"condition number {self.cond:.6e} exceeds claimed bound "
                    f"{self.claimed_bound:.6e}"
                )
        if self.status != "INCONCLUSIVE":
            self.status = "PASS" if ok else "FAILED"
        return self


# --- model embedding ----------------------------------------------------------


def model_embed(
    symbols: Sequence[PositiveSymbol],
    m: Sequence[int],
    A: OperatorTuple,
    R: np.ndarray,
    Q_polys: Sequence[NCPolynomial] = (),
    degree_cap: int = 8,
    tol: float = 1e-8,
) -> SimilarityCertificate:
    """Embeds A* into the compressed model adjoints via K_omega.

    Requires the weighted series of R to be bounded below by a positive
    constant; the embedding then satisfies K_omega A* = (S* tensor I) K_omega
    with condition number at most sqrt(b/a). The series is the one the kernel
    sums. The certificate's Y is the d x d factor C of K_omega = V C, V an
    isometry: the R factor of its QR with a positive diagonal, so that
    Y^*Y = Q = K_omega^* K_omega and Y does not depend on the basis of N_Q.
    An R that is not a finite Hermitian PSD d x d matrix raises ValueError
    and a tuple radius above 1 - radius_margin raises DivergenceError, both
    before the model is built.

    Without constraints N_Q is the whole model: K_omega is the kernel K,
    S = W, and the residuals are the full residuals of intertwine_check with
    no range leak, so no variety subspace is built.
    """
    return _embed(CPMapTuple(tuple(symbols), A), tuple(m), R, tuple(Q_polys), degree_cap, require_tol(tol))


def _gram_factor(K: np.ndarray) -> np.ndarray:
    """C with K = V C, V an isometry: the R factor of K's QR, its diagonal made
    real and non-negative."""
    C = np.linalg.qr(K, mode="r")
    diag = np.diagonal(C)
    phase = np.ones_like(diag)
    nonzero = diag != 0
    phase[nonzero] = diag[nonzero] / np.abs(diag[nonzero])
    return phase.conj()[:, None] * C


def _embed(
    phi: CPMapTuple,
    m: Tuple[int, ...],
    R: np.ndarray,
    Q_polys: Tuple[NCPolynomial, ...],
    degree_cap: int,
    tol: float,
) -> SimilarityCertificate:
    """model_embed on a tuple the caller built, so that its cached radii and
    orbits are shared."""
    R = hermitian(R, "R", phi.dim)
    positive(R, phi.tol, what="R")
    phi._refuse_unsettled(range(1, phi.k + 1))
    model = build_model(phi.symbols, m, degree_cap, tol=phi.tol)[1]
    sub = variety_subspace(model, Q_polys) if Q_polys else None
    kern = berezin_kernel(phi, m, R, degree_cap, model)
    if sub is not None:
        ck = constrained_kernel(kern, model, sub)
        K, leak = ck.K, ck.range_residual
        resid = intertwine_check_constrained(ck, phi.ops)
        S_norms = {ij: ck.compressed.norm(*ij) for ij in ck.compressed.blocks}
    else:
        K, leak = kern.K, 0.0
        resid = {ij: full for ij, (full, _) in intertwine_check(kern, model, phi.ops).items()}
        # W maps basis vectors to multiples of distinct basis vectors, so W^* W
        # is diagonal and ||W||_2 is its largest weight
        S_norms = {(i, j): float(abs(W.scale).max(initial=0.0)) for i, j, W in model.all_W()}
    series = kern.series
    if series is None:
        raise DivergenceError("the certified weighted series of R was refused")
    lam = positive(series.value, phi.tol, definite=True, error=series.tail_bound,
                   what="no embedding: the weighted series of R")[1]
    a = float(lam[0]) - series.tail_bound
    b = float(lam[-1]) + series.tail_bound
    sv = np.linalg.svd(K, compute_uv=False)
    if sv[-1] <= 0:
        raise ValueError("kernel is not injective; embedding failed")
    cond = float(sv[0] / sv[-1])
    # truncation and constraint leakage widen the witness window
    tail = kern.tail_bound
    a_eff = a - tail - 2.0 * leak * sv[0] - leak ** 2
    b_eff = b + tail + 2.0 * leak * sv[0] + leak ** 2
    cert = SimilarityCertificate(
        kind="model_embed",
        witnesses={"a": a, "b": b, "a_effective": a_eff, "b_effective": b_eff},
        Y=_gram_factor(K),
        cond=cond,
        claimed_bound=float(np.sqrt(b_eff / max(a_eff, 1e-300))) if a_eff > 0 else float("inf"),
    )
    scale = max(1.0, sv[0])
    # the truncation part of the residual is P S^* (I - P) K_inf, and the rows
    # of K_inf outside the box have norm sqrt(mass) <= sqrt(tail)
    for (i, j), r in resid.items():
        cert.residuals[f"intertwine_{i}_{j}"] = r
        cert.tolerances[f"intertwine_{i}_{j}"] = tol * scale + 10.0 * (S_norms[(i, j)] * tail ** 0.5 + leak)
    cert.residuals["range_leak"] = leak
    cert.tolerances["range_leak"] = tol * scale + 10.0 * tail
    gram = hermitize(K.conj().T @ K)
    cert.residuals["gram_vs_series"] = float(np.linalg.norm(gram - series.value, 2))
    cert.tolerances["gram_vs_series"] = tol * max(1.0, b) + 10.0 * (tail + leak * sv[0])
    # witness for the cone formulation: Q = K*K lies in the cone and is pure
    cert.Q = gram
    rep = membership(phi, m, gram, with_purity=True)
    cert.residuals["Q_cone_min_eig"] = max(0.0, -rep.worst()[1])
    cert.tolerances["Q_cone_min_eig"] = rep.tol_psd * rep.scale + 10.0 * (tail + leak * sv[0])
    if not rep.purity.pure:
        cert.notes.append("the identity orbits did not certify that the witness Q is pure")
        cert.residuals["Q_purity"] = 1.0
        cert.tolerances["Q_purity"] = 0.0
    return cert.finalize()


# --- Rota type conjugation ----------------------------------------------------


def rota_conjugate(
    symbols: Sequence[PositiveSymbol],
    m: Sequence[int],
    A: OperatorTuple,
    Q_polys: Sequence[NCPolynomial] = (),
    tol: float = 1e-8,
) -> Tuple[SimilarityCertificate, OperatorTuple]:
    """T = P^{-1/2} A P^{1/2} with P the weighted series of the identity.

    T lands strictly inside the domain (every defect of I is positive
    definite) and cond(P^{1/2})^2 = cond(P) <= ||P||_2 is certified against
    the product over the factors of a bound on ||Delta_i^{-m_i}(I)||_2
    (CPMapTuple._inverse_norm_bound): read off the factor's certified
    resolvent when it has one and is not nilpotent, else the norm sum of its
    identity orbit.
    """
    return _rota(CPMapTuple(tuple(symbols), A), tuple(m), Q_polys, require_tol(tol))


def _rota(
    phi: CPMapTuple,
    m: Tuple[int, ...],
    Q_polys: Sequence[NCPolynomial],
    tol: float,
) -> Tuple[SimilarityCertificate, OperatorTuple]:
    """rota_conjugate on a tuple the caller built, so that its cached radii
    and orbits are shared."""
    series = phi.weighted_series(m, np.eye(phi.dim, dtype=np.complex128))
    P = hermitize(series.value)
    _, lam, U = positive(P, phi.tol, definite=True, what="the series value P", vectors=True)
    sq, isq, condP = sqrt_pair(lam, U)
    T = phi.ops.conjugate(sq, isq)
    phi_T = CPMapTuple(phi.symbols, T)

    bound_product = prod(phi._inverse_norm_bound(i, m[i - 1]) for i in range(1, phi.k + 1))
    cert = SimilarityCertificate(
        kind="strict_conjugation",
        witnesses={"cond_P": condP ** 2, "product_bound": bound_product},
        Y=sq,
        Q=P,
        cond=condP ** 2,  # ||P^{1/2}||^2 ||P^{-1/2}||^2
        claimed_bound=bound_product,
    )
    scale = max(1.0, float(np.linalg.norm(P, 2)))
    # strict domain membership of T: smallest eigenvalue over the defect grid
    eye = np.eye(phi.dim)
    rep = membership(phi_T, m, eye, with_purity=False)
    worst = rep.worst()[1]
    cert.residuals["T_strict_membership"] = max(0.0, rep.tol_pd * rep.scale - worst)
    cert.tolerances["T_strict_membership"] = 0.0
    cert.witnesses["T_defect_min_eig"] = worst
    # back conversion: Delta^m(P) = I for the original tuple
    back = phi.defect(m, P)
    cert.residuals["defect_of_P_vs_identity"] = float(np.linalg.norm(back - eye, 2))
    cert.tolerances["defect_of_P_vs_identity"] = tol * scale + 10.0 * series.tail_bound
    _variety_residuals(cert, T, Q_polys, tol * scale * condP)
    return cert.finalize(), T


def _variety_residuals(
    cert: SimilarityCertificate, T: OperatorTuple, Q_polys: Sequence[NCPolynomial], bound: float
) -> None:
    """Records ||q(T)||_2 for every constraint q as variety_<idx>, gated by bound."""
    for idx, q in enumerate(Q_polys):
        cert.residuals[f"variety_{idx}"] = float(np.linalg.norm(T.evaluate_poly(q), 2))
        cert.tolerances[f"variety_{idx}"] = bound


# --- defect equation ----------------------------------------------------------


@dataclass
class DefectSolution:
    X: np.ndarray
    series: SeriesResult
    defect_residual: float
    oracle_rel_gap: float
    membership_report: ConeReport
    invertible: bool
    ok: bool


def solve_defect_equation(
    symbols: Sequence[PositiveSymbol],
    m: Sequence[int],
    A: OperatorTuple,
    R: np.ndarray,
    tol: float = 1e-8,
) -> DefectSolution:
    """The unique positive solution of Delta^m(X) = R when all radii are < 1.

    R must be Hermitian positive definite (ValueError). The weighted-series
    value is cross-checked against an independent dense linear solve of the
    matricized equation; a singular matricized system contradicts the radius
    precondition and raises. That solve loses about cond(Delta^m) eps: when its
    gap fails, it is refined at most 3 times against R - Delta^m(x) in _WIDE.
    """
    symbols, m, tol = tuple(symbols), tuple(m), require_tol(tol)
    phi = CPMapTuple(symbols, A)
    R = hermitian(R, "R", phi.dim)
    positive(R, phi.tol, definite=True, what="R")
    series = phi.weighted_series(m, R)
    X = hermitize(series.value)
    defect_residual = float(np.linalg.norm(phi.defect(m, X) - R, 2))

    # the oracle: Delta^m as the d^2 x d^2 matrix prod_i (I - M_i)^{m_i}, one factor per stage
    stages = [i for i in range(1, phi.k + 1) for _ in range(m[i - 1])]
    eye2 = np.eye(phi.dim * phi.dim, dtype=np.complex128)
    L = eye2
    for i in stages:
        L = (eye2 - phi.matricize(i)) @ L
    try:
        x_oracle = np.linalg.solve(L, vec(R))
    except np.linalg.LinAlgError as e:
        raise ArithmeticError(
            "matricized defect system is singular although every radius is "
            f"below one; inconsistent instance ({e})"
        )
    # the gap is relative to ||X||_F, and so is the series bound in its gate
    xnorm = max(float(np.linalg.norm(X)), 1e-300)
    gap, gap_tol = float(np.linalg.norm(x_oracle - vec(X))) / xnorm, tol + 10.0 * series.tail_bound / xnorm
    for _ in range(3 if _WIDE is not None else 0):
        if gap <= gap_tol:
            break
        # a stage (id - Phi_i)(Y) is -(0 - (id - Phi_i)(Y)); the last one gives R - Delta^m(x)
        Y = unvec(x_oracle, phi.dim)
        for i in stages[:-1]:
            Y = -phi._wide_residual(i, np.zeros_like(Y), Y)
        E = phi._wide_residual(stages[-1], R, Y).astype(np.complex128)
        x_oracle = x_oracle + np.linalg.solve(L, vec(E))
        gap = float(np.linalg.norm(x_oracle - vec(X))) / xnorm
    rep = membership(phi, m, X, with_purity=False)
    invertible = positive(X, phi.tol, definite=True)[0]
    scale = max(1.0, float(np.linalg.norm(R, 2)))
    ok = (
        defect_residual <= tol * scale + 10.0 * series.tail_bound
        and gap <= gap_tol
        and rep.member
        and invertible
    )
    return DefectSolution(X=X, series=series, defect_residual=defect_residual, oracle_rel_gap=gap,
                          membership_report=rep, invertible=invertible, ok=ok)


# --- Sz.-Nagy fixed point -----------------------------------------------------

def _null_basis(S: np.ndarray, cutoff: float) -> np.ndarray:
    """Orthonormal basis of the right null space of the tall matrix S.

    Singular values at or below cutoff * max(s_max, 1) count as zero: the
    shifted maps S = M - I are measured against the identity term, so a map
    that is the identity up to rounding has every direction fixed. They are
    read off the square R factor of S, which has the same singular values
    and right singular vectors, so the SVD runs on d^2 x d^2 only.
    """
    R = np.linalg.qr(S, mode="r")
    _, s, Vh = np.linalg.svd(R)
    rank = int(np.sum(s > cutoff * max(s[0], 1.0)))
    return Vh[rank:].conj().T


def _ergodic_fixed_point(
    phi: CPMapTuple,
) -> Tuple[Optional[np.ndarray], int, str]:
    """Ergodic projection of I onto the common fixed space of the maps.

    For commuting power-bounded maps the Cesaro limit of I is its projection
    onto the common fixed space N along the sum of the ranges of M_i - I,
    whose annihilator is the common fixed space L of the adjoints M_i^*
    (Krengel, Ergodic Theorems, 1985). Q is that projection, hermitized; it
    is zero when I has no component in N. Returns (Q, dim N, note). It is
    read off one joint eigenbasis of the letters (_eigenbasis_fixed_point),
    in O(d^3) time and O(d^2) memory, and from the d^2 x d^2 null spaces
    (_dense_fixed_point) only when that branch declines.
    """
    found = _eigenbasis_fixed_point(phi)
    return found if found is not None else _dense_fixed_point(phi)


def _eigenbasis_fixed_point(
    phi: CPMapTuple,
) -> Optional[Tuple[Optional[np.ndarray], int, str]]:
    """_ergodic_fixed_point in one basis V that diagonalizes every letter, or None.

    V is _eigenbasis of every letter of every row. It is declined when eig
    fails or V is singular, and when some letter A has
    ||offdiag(V^{-1} A V)||_F > _TRI_SLACK d eps cond(V) ||A||_F. With the
    diagonals D_w of the word products, Phi_i(V Y V^*) = V (mu_i o Y) V^*,
    mu_i[j, l] = sum_w a_w D_w[j] conj(D_w[l]), so the stacked shifted maps
    are diagonal in the basis E_jl with singular values
    s[j, l] = sqrt(sum_i |mu_i[j, l] - 1|^2). The dense stack is
    S = (I kron K) S~ K^{-1} with K = V kron conj(V) and cond(K) = cond(V)^2,
    so each singular value relative to scale = max(s_max, 1) moves by at
    most kappa = cond(V)^4 between the two. A pair is fixed when
    s <= svd_cutoff scale / kappa and not fixed when
    s > svd_cutoff scale kappa, as _null_basis would count it on S.

    Rounding: a_w D_w[j] conj(D_w[l]) takes 2 |w| - 1 complex products of
    relative error sqrt(2) eps each and one real one, so its relative error
    is below 3 |w| eps, and the sum over the n_i terms adds n_i eps:
    |fl(mu_i) - mu_i| <= (3 max|w| + n_i) eps sum_w a_w |D_w[j]| |D_w[l]|.
    Forming s from them adds (k + 2) eps s. With r the root sum of squares
    of these bounds over i, a pair must clear its bar by r, and a pair that
    does not, or that lies between the bars, declines the branch.

    The adjoint maps have the multipliers conj(mu_i), so L = N and the
    projection keeps the fixed entries of V^{-1} I V^{-*}:
    Q = V (F o (V^{-1} V^{-*})) V^* for the mask F of fixed pairs.
    """
    d = phi.dim
    V = _eigenbasis([A for row in phi.ops.rows for A in row])
    if V is None:
        return None
    try:
        Vi = np.linalg.inv(V)
    except np.linalg.LinAlgError:
        return None
    cond = float(np.linalg.cond(V))
    s2, r2 = np.zeros((d, d)), np.zeros((d, d))
    for i, row in enumerate(phi.ops.rows, start=1):
        lam = np.empty((len(row), d), dtype=np.complex128)
        for j, A in enumerate(row):
            B = Vi @ A @ V
            lam[j] = np.diagonal(B)
            if np.linalg.norm(B - np.diag(lam[j])) > _TRI_SLACK * d * _EPS * cond * np.linalg.norm(A):
                return None
        mu, size = np.zeros((d, d), dtype=np.complex128), np.zeros((d, d))
        terms = phi._terms(i)
        for w, a, _ in terms:
            Dw = np.prod(lam[[j - 1 for j in w]], axis=0)
            mu += a * np.outer(Dw, Dw.conj())
            size += a * np.outer(np.abs(Dw), np.abs(Dw))
        s2 += np.abs(mu - 1.0) ** 2
        r2 += ((3 * max(len(w) for w, _, _ in terms) + len(terms)) * _EPS * size) ** 2
    s = np.sqrt(s2)
    r = np.sqrt(r2) + (phi.k + 2) * _EPS * s
    kappa = cond ** 4
    cutoff = phi.tol.svd_cutoff
    fixed = s + r <= cutoff * max((s - r).max(), 1.0) / kappa
    moving = s - r > cutoff * max((s + r).max(), 1.0) * kappa
    if not np.all(fixed | moving):
        return None
    dim = int(fixed.sum())
    if dim == 0:
        return None, 0, "no pair of joint eigenvectors is fixed by every map"
    return hermitize(V @ (fixed * (Vi @ Vi.conj().T)) @ V.conj().T), dim, ""


def _dense_fixed_point(
    phi: CPMapTuple,
) -> Tuple[Optional[np.ndarray], int, str]:
    """_ergodic_fixed_point from the null spaces of the stacked d^2 x d^2 maps.

    Q = N (L^* N)^{-1} L^* vec(I) for orthonormal bases N and L of the
    common fixed spaces of the maps and of their adjoints (_null_basis).
    Q is None, with the reason in the note, when N is empty, dim L != dim N,
    or L^* N is singular: then eigenvalue 1 is not semisimple (a Jordan
    block) and no such projection exists.
    """
    d = phi.dim
    eye2 = np.eye(d * d, dtype=np.complex128)
    shifted = [phi.matricize(i) - eye2 for i in range(1, phi.k + 1)]
    cutoff = phi.tol.svd_cutoff
    N = _null_basis(np.vstack(shifted), cutoff)
    L = _null_basis(np.vstack([S.conj().T for S in shifted]), cutoff)
    if N.shape[1] == 0 or L.shape[1] != N.shape[1]:
        return None, N.shape[1], (
            f"the common fixed spaces of the maps and of their adjoints have "
            f"dimensions {N.shape[1]} and {L.shape[1]}"
        )
    G = L.conj().T @ N
    sv = np.linalg.svd(G, compute_uv=False)
    if sv[-1] <= cutoff * sv[0]:
        return None, N.shape[1], (
            f"eigenvalue 1 of the maps is not semisimple: the smallest singular "
            f"value of L^* N is {sv[-1]:.3e}"
        )
    v = N @ np.linalg.solve(G, L.conj().T @ vec(np.eye(d, dtype=np.complex128)))
    return hermitize(unvec(v, d)), N.shape[1], ""


def sznagy_solve(
    symbols: Sequence[PositiveSymbol],
    A: OperatorTuple,
    tol: float = 1e-7,
) -> Tuple[SimilarityCertificate, Optional[OperatorTuple]]:
    """Fixed point Q with Phi_i(Q) = Q, then T = Q^{-1/2} A Q^{1/2}.

    A is similar to a tuple with unital maps exactly when the maps have a
    common positive definite fixed point P (Sz.-Nagy). With l = lambda_min(P)
    and q = ||P||, such a P gives (l/q) I <= Phi^beta(I) <= (q/l) I for every
    composed iterate. Each verdict rests on that:
    - FAILED when the identity orbit of a factor, read to max(64, dim)
      steps, certifies decay or a radius enclosure above one: P rules out
      both;
    - FAILED when the maps have no common fixed point;
    - INCONCLUSIVE when I has no ergodic projection onto the common fixed
      space (eigenvalue 1 is not semisimple, as on a Jordan block);
    - FAILED when that projection Q is zero or not positive definite: it
      would satisfy Q >= P / ||P|| > 0;
    - otherwise c = lambda_min(Q) / ||Q|| and d = 1/c are the exact
      two-sided bounds, and the fixed-point and unital residuals of Q and
      T are checked a posteriori.
    """
    return _sznagy(CPMapTuple(tuple(symbols), A), require_tol(tol))


def _radius_above_one(phi: CPMapTuple, factors: Optional[Sequence[int]] = None) -> Optional[str]:
    """Why no similarity exists when the radius enclosure (radius_power_sequence)
    of one of the factors, by default all, lies above one; None otherwise."""
    for i in factors or range(1, phi.k + 1):
        lower = phi.radius_power_sequence(i)[0]
        if lower > 1.0:
            return f"factor {i} has radius at least {lower:.6f} > 1"
    return None


def _sznagy(
    phi: CPMapTuple, tol: float, Q_polys: Sequence[NCPolynomial] = ()
) -> Tuple[SimilarityCertificate, Optional[OperatorTuple]]:
    """sznagy_solve on a tuple the caller built, so that its cached
    matricizations, radii and orbits are shared. Constraints with ||q(A)|| <=
    tol are gated at tol * cond(Q^{1/2}), as q(T) = Q^{-1/2} q(A) Q^{1/2}."""
    cert = SimilarityCertificate(kind="isometric_conjugation")

    def refuted(why: str) -> Tuple[SimilarityCertificate, None]:
        cert.residuals["positive_fixed_point"] = 1.0
        cert.tolerances["positive_fixed_point"] = 0.0
        cert.notes.append(f"{why}; no similarity")
        return cert.finalize(), None

    for i in range(1, phi.k + 1):
        if phi._orbit(i).decays():
            return refuted(f"the identity orbit of factor {i} decays")
        why = _radius_above_one(phi, (i,))
        if why is not None:
            return refuted(why)

    Q, fixed_dim, why = _ergodic_fixed_point(phi)
    cert.witnesses["fixed_space_dim"] = float(fixed_dim)
    if fixed_dim == 0:
        return refuted("the maps have no common fixed point")
    if Q is None:
        cert.status = "INCONCLUSIVE"
        cert.notes.append(f"no ergodic projection of I: {why}")
        return cert, None
    scale = float(np.linalg.norm(Q, 2))
    if scale == 0.0:
        return refuted("the ergodic projection of I is zero")
    # Q is normalized to spectral norm one; every check below is either
    # scale-invariant or stated on this normalization
    Q = Q / scale
    cert.Q = Q
    pd, lamQ, U = positive(Q, phi.tol, definite=True, vectors=True)
    cert.witnesses["Q_min_eig"] = float(lamQ[0])
    cert.witnesses["Q_max_eig"] = float(lamQ[-1])
    if not pd:
        return refuted(f"the ergodic projection of I is not positive definite "
                       f"(min eigenvalue {lamQ[0]:.3e})")
    for i in range(1, phi.k + 1):
        r = float(np.linalg.norm(phi.apply(i, Q) - Q, 2))
        cert.residuals[f"fixed_point_{i}"] = r
        cert.tolerances[f"fixed_point_{i}"] = tol
    c = float(lamQ[0] / lamQ[-1])
    cert.witnesses["c"] = c
    cert.witnesses["d"] = 1.0 / c

    sq, isq, condQhalf = sqrt_pair(lamQ, U)
    cert.cond = condQhalf
    cert.Y = sq
    T = phi.ops.conjugate(sq, isq)
    phi_T = CPMapTuple(phi.symbols, T)
    eye = np.eye(phi.dim)
    for i in range(1, phi.k + 1):
        r = float(np.linalg.norm(phi_T.apply(i, eye) - eye, 2))
        cert.residuals[f"unital_{i}"] = r
        cert.tolerances[f"unital_{i}"] = tol * condQhalf ** 2
    _variety_residuals(cert, T, Q_polys, tol * condQhalf)
    return cert.finalize(), T


# --- similarity into a variety-domain tuple ----------------------------------


def _require_m(m: Sequence[int], k: int) -> Tuple[int, ...]:
    """m as k integers >= 1 by _require_degree, so 1.5 and 1.0 are refused."""
    try:
        return _require_degree("m", m, k, 1)
    except ValueError:
        raise ValueError(f"m must have k = {k} entries, each an integer >= 1; got {tuple(m)}") from None


def similarity_to_variety(
    symbols: Sequence[PositiveSymbol],
    m: Sequence[int],
    A: OperatorTuple,
    Q_polys: Sequence[NCPolynomial] = (),
    tol: float = 1e-8,
) -> Tuple[SimilarityCertificate, Optional[OperatorTuple]]:
    """Joint similarity of A to a tuple T = R^{-1/2} A R^{1/2} in the variety domain.

    Such a T exists exactly when the cone of (Phi, m) holds an invertible
    positive R. A bad m, or a constraint that does not annihilate A to tol,
    raises ValueError. Then the paper's theorems decide, and the deciding
    certificate is returned with T, relabelled kind="variety_similarity",
    with R as its Q and each constraint on T gated as variety_<idx>:
    - some factor's radius enclosure lies above one (_radius_above_one):
      FAILED, since R >= cI and Delta^{e_i}(R) >= 0 give Phi_i^s(I) <= R / c
      for all s, so rho <= 1;
    - every factor settled: the Rota certificate (_rota), R = Delta^{-m}(I).
      Its T_strict_membership proves R in the cone by congruence,
      Delta_T^p(I) = R^{-1/2} Delta^p(R) R^{-1/2};
    - otherwise R = I with T = A, when membership confirms I;
    - otherwise the Sz.-Nagy certificate (_sznagy), R its fixed point.
    Any Rota or Sz.-Nagy status other than PASS is INCONCLUSIVE, its last
    note prefixed with the theorem's name: Rota guarantees a similarity, and
    Sz.-Nagy rules out only a fixed R. So is a series that Rota refuses with
    DivergenceError or ValueError.
    """
    tol, phi = require_tol(tol), CPMapTuple(tuple(symbols), A)
    m = _require_m(m, phi.k)
    for idx, q in enumerate(Q_polys):
        r = float(np.linalg.norm(A.evaluate_poly(q), 2))
        if r > tol:
            raise ValueError(f"constraint polynomial {idx} does not annihilate A ({r:.3e})")

    cert = SimilarityCertificate(kind="variety_similarity")
    why = _radius_above_one(phi)
    if why is not None:
        cert.residuals["radius_at_most_one"] = 1.0
        cert.tolerances["radius_at_most_one"] = 0.0
        cert.notes.append(why)
        return cert.finalize(), None
    if all(phi._settled(i) for i in range(1, phi.k + 1)):
        theorem = "Rota"
        try:
            cert, T = _rota(phi, m, Q_polys, tol)
        except (DivergenceError, ValueError) as e:
            cert.status, cert.notes = "INCONCLUSIVE", [str(e)]
            return cert, None
    else:
        rep = membership(phi, m, np.eye(phi.dim), with_purity=False)
        if rep.member:
            # R = I is a cone member, so A itself lies in the domain
            cert.Q = cert.Y = np.eye(phi.dim, dtype=np.complex128)
            cert.cond = 1.0
            worst = rep.worst()[1]
            cert.residuals["identity_membership"] = max(0.0, -worst)
            cert.tolerances["identity_membership"] = rep.tol_psd * rep.scale
            cert.witnesses["T_defect_min_eig"] = worst
            _variety_residuals(cert, A, Q_polys, tol)
            return cert.finalize(), A
        theorem = "Sz.-Nagy"
        cert, T = _sznagy(phi, tol, Q_polys)
    if cert.status != "PASS":
        why = cert.notes.pop() if cert.notes else f"{cert.status}, residuals over tolerance"
        cert.notes.append(f"{theorem} certificate: {why}")
        cert.status = "INCONCLUSIVE"
    cert.kind = "variety_similarity"
    return cert, T


# --- positive-map (Kraus) similarity ------------------------------------------


def cpmap_similarity(
    phi: CPMapTuple,
    m: Sequence[int],
    mode: str,
    R: Optional[np.ndarray] = None,
    degree_cap: int = 8,
    tol: float = 1e-7,
) -> SimilarityCertificate:
    """Joint similarity for a commuting tuple of CP maps in Kraus form.

    Each mode returns the certificate of one theorem on phi, relabelled
    kind="cpmap_similarity" with the note mode=<mode> last:
    strict: the Rota certificate (rota_conjugate). P = Delta^{-m}(I), the
      weighted series of I, conjugates the tuple strictly inside the domain,
      with cond(P) certified against the product of per-factor bounds on
      ||Delta_i^{-m_i}(I)||_2, each from the factor's certified resolvent or
      its identity orbit's norm sum.
      A tuple radius above 1 - radius_margin raises ValueError up front.
    pure_cone: the model-embedding certificate without constraints
      (model_embed) for R, default I: Q = K^*K for the kernel K, and Y is
      the factor C of K = V C. With V an isometry, the target tuple
      L = V^* (W tensor I) V gives Delta^p(Q) = C^* Delta_L^p(I) C up to
      truncation, so the Q cone and purity checks are those of I for L, and
      the intertwining residual
      ||K A^* - (W^* tensor I) K|| bounds the similarity residual
      ||A C^* - C^* L||. Letters that do not commute across factors raise
      CommutationError, an R that is not finite Hermitian PSD ValueError and
      a tuple radius above 1 - radius_margin DivergenceError, all before any
      series term is summed or any model is built; the kernel sums the
      certified series of R once.
    unital: the sznagy_solve certificate: the fixed point Q with
      phi_i(Q) = Q, the ergodic projection of I, with lambda_i(I) = I and the
      exact two-sided bounds c = lambda_min(Q) / ||Q||, d = 1/c; FAILED when
      an identity orbit or Q rules out every positive definite fixed point.
    m must have one entry >= 1 per factor in every mode.
    """
    m, tol = _require_m(m, phi.k), require_tol(tol)
    if mode == "strict":
        bad = [i for i in range(1, phi.k + 1) if not phi._settled(i)]
        if bad:
            raise ValueError(f"strict mode needs tuple radius <= "
                             f"{1.0 - phi.tol.radius_margin}; factors {bad} fail")
        cert, _ = _rota(phi, m, (), tol)
    elif mode == "pure_cone":
        phi.ops._check_commutation()  # the embedding intertwines letters, not only maps
        cert = _embed(phi, m, np.eye(phi.dim) if R is None else R, (), degree_cap, tol)
    elif mode == "unital":
        cert, _ = _sznagy(phi, tol)
    else:
        raise ValueError(f"unknown mode {mode!r}; expected strict, pure_cone, or unital")
    cert.kind = "cpmap_similarity"
    cert.notes.append(f"mode={mode}")
    return cert


# --- radius equivalences -------------------------------------------------------


@dataclass
class RadiusFactorReport:
    factor: int
    radius: float
    decay: List[float]
    gelfand: List[float]
    decays_to_zero: bool
    consistent: bool


@dataclass
class RadiusReport:
    factors: List[RadiusFactorReport]
    all_consistent: bool


def spectral_radius_equivalences(
    symbols: Sequence[PositiveSymbol],
    A: OperatorTuple,
    s_max: int = 64,
) -> RadiusReport:
    """Reports per-factor radii against the decay of ||Phi^s(I)||, listed for s <= s_max.

    A factor decays when CPMapTuple.decays certifies its identity orbit (a
    zero iterate, or an envelope theta < 1 - d eps, which proves the radius
    below one), the same rule that decides purity in cone.is_pure_element.
    Consistent means: radius <= 1 - radius_margin implies decay, and
    radius >= 1 implies no decay.
    """
    return _radius_equivalences(CPMapTuple(tuple(symbols), A), as_count(s_max, "s_max"))


def _radius_equivalences(phi: CPMapTuple, s_max: int = 64) -> RadiusReport:
    """spectral_radius_equivalences on a tuple the caller built, so that its
    cached radii and orbits are shared."""
    out: List[RadiusFactorReport] = []
    for i in range(1, phi.k + 1):
        r = phi.joint_spectral_radius(i, crosscheck=False)
        orbit = phi._orbit(i)
        orbit.norm(s_max)
        # the orbit stops at a zero or overflowing iterate
        decay = orbit.eta[1:s_max + 1]
        gelf = [n ** (1.0 / (2 * s)) if n > 0 else 0.0 for s, n in enumerate(decay, start=1)]
        settled = phi._settled(i)
        to_zero = phi.decays(i)
        consistent = (to_zero or not settled) and not (to_zero and r >= 1.0)
        out.append(RadiusFactorReport(i, r, decay, gelf, to_zero, consistent))
    return RadiusReport(out, all(f.consistent for f in out))
