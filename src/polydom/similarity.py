"""Similarity solvers with numeric certificates.

Three families: model embedding through a constrained Berezin kernel,
strict-contraction conjugation through the weighted series of the identity,
and, for two-sided power-bounded tuples, conjugation by the common fixed
point of the maps that is the ergodic projection of the identity. A fourth
front end treats commuting tuples of completely positive maps given by raw
Kraus families. Every certificate re-verifies its residuals before it is
returned; failing certificates are returned marked FAILED, not dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .config import ResourceCapError
from .cone import ConeReport, membership, min_eig
from .cpmap import (
    CPMapTuple,
    OperatorTuple,
    SeriesResult,
    hermitize,
    multi_grid,
    unvec,
    vec,
)
from .berezin import (
    CompatibleTuple,
    constrained_kernel,
    intertwine_check_constrained,
    kernel as berezin_kernel,
)
from .fock import build_model
from .words import NCPolynomial, PositiveSymbol, polyball_symbol


@dataclass
class SimilarityCertificate:
    kind: str  # model_embed | strict_conjugation | isometric_conjugation | cpmap_similarity
    status: str  # PASS | FAILED | INCONCLUSIVE
    residuals: Dict[str, float]
    tolerances: Dict[str, float]
    witnesses: Dict[str, float]
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


def _psd_sqrt_pair(Q: np.ndarray, what: str) -> Tuple[np.ndarray, np.ndarray, float]:
    """(Q^{1/2}, Q^{-1/2}, cond(Q^{1/2})) for positive definite Q."""
    lam, U = np.linalg.eigh(hermitize(Q))
    if lam[0] <= 0:
        raise ValueError(f"{what} is not positive definite (min eigenvalue {lam[0]:.3e})")
    sq = U @ np.diag(np.sqrt(lam)) @ U.conj().T
    isq = U @ np.diag(1.0 / np.sqrt(lam)) @ U.conj().T
    return sq, isq, float(np.sqrt(lam[-1] / lam[0]))


def conjugate_tuple(A: OperatorTuple, isq: np.ndarray, sq: np.ndarray) -> OperatorTuple:
    rows = [[isq @ M @ sq for M in row] for row in A.rows]
    return OperatorTuple(rows, tol=A.tol)


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
    """Embeds A* into the compressed model adjoints via Y = K_omega.

    Requires the weighted series of R to be bounded below by a positive
    constant; the embedding then satisfies Y A* = (S* tensor I) Y with
    condition number at most sqrt(b/a).
    """
    symbols = tuple(symbols)
    m = tuple(m)
    phi = CPMapTuple(symbols, A)
    series = phi.weighted_series(m, R)
    lam = np.linalg.eigvalsh(hermitize(series.value))
    a = float(lam[0]) - series.tail_bound
    b = float(lam[-1]) + series.tail_bound
    if a <= phi.tol.tol_pd:
        raise ValueError(
            f"no embedding: the weighted series of R has lower bound {a:.3e}"
        )
    omega = CompatibleTuple(symbols, m, A, R, tuple(Q_polys))
    ck = constrained_kernel(omega, degree_cap)
    Y = ck.K
    sv = np.linalg.svd(Y, compute_uv=False)
    if sv[-1] <= 0:
        raise ValueError("kernel is not injective; embedding failed")
    cond = float(sv[0] / sv[-1])
    # truncation and constraint leakage widen the witness window
    leak = ck.range_residual
    tail = ck.base.tail_bound
    a_eff = a - tail - 2.0 * leak * sv[0] - leak ** 2
    b_eff = b + tail + 2.0 * leak * sv[0] + leak ** 2
    cert = SimilarityCertificate(
        kind="model_embed",
        status="PENDING",
        residuals={},
        tolerances={},
        witnesses={"a": a, "b": b, "a_effective": a_eff, "b_effective": b_eff},
        Y=Y,
        cond=cond,
        claimed_bound=float(np.sqrt(b_eff / max(a_eff, 1e-300))) if a_eff > 0 else float("inf"),
    )
    scale = max(1.0, sv[0])
    # the truncation part of the residual is P S^* (I - P) K_inf, and the rows
    # of K_inf outside the box have norm sqrt(mass) <= sqrt(tail)
    resid = intertwine_check_constrained(ck, A)
    for (i, j), r in resid.items():
        S_norm = float(np.linalg.norm(ck.compressed.S[(i, j)], 2))
        cert.residuals[f"intertwine_{i}_{j}"] = r
        cert.tolerances[f"intertwine_{i}_{j}"] = tol * scale + 10.0 * (S_norm * tail ** 0.5 + leak)
    cert.residuals["range_leak"] = leak
    cert.tolerances["range_leak"] = tol * scale + 10.0 * tail
    gram = ck.gram()
    cert.residuals["gram_vs_series"] = float(np.linalg.norm(gram - series.value, 2))
    cert.tolerances["gram_vs_series"] = tol * max(1.0, b) + 10.0 * (tail + leak * sv[0])
    # witness for the cone formulation: Q = Y*Y lies in the cone and is pure
    Qw = hermitize(gram)
    cert.Q = Qw
    rep = membership(phi, m, Qw, with_purity=True)
    cert.residuals["Q_cone_min_eig"] = max(0.0, -rep.worst()[1])
    cert.tolerances["Q_cone_min_eig"] = phi.tol.tol_psd * rep.scale + 10.0 * (tail + leak * sv[0])
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
    definite) and cond(P^{1/2})^2 is certified against the separable product
    of per-factor norm sums.
    """
    symbols = tuple(symbols)
    m = tuple(m)
    phi = CPMapTuple(symbols, A)
    series = phi.weighted_series(m, np.eye(A.dim))
    P = hermitize(series.value)
    sq, isq, condP = _psd_sqrt_pair(P, "the series value P")
    T = conjugate_tuple(A, isq, sq)
    phi_T = CPMapTuple(symbols, T)

    bound_product = prod(phi._orbit(i).norm_sum(m[i - 1]) for i in range(1, phi.k + 1))
    cert = SimilarityCertificate(
        kind="strict_conjugation",
        status="PENDING",
        residuals={},
        tolerances={},
        witnesses={"cond_P": condP ** 2, "product_bound": bound_product},
        Y=sq,
        Q=P,
        cond=condP ** 2,  # ||P^{1/2}||^2 ||P^{-1/2}||^2
        claimed_bound=bound_product,
    )
    scale = max(1.0, float(np.linalg.norm(P, 2)))
    # strict domain membership of T: smallest eigenvalue over the defect grid
    rep = membership(phi_T, m, np.eye(A.dim), with_purity=False)
    worst = rep.worst()[1]
    cert.residuals["T_strict_membership"] = max(0.0, phi.tol.tol_pd - worst)
    cert.tolerances["T_strict_membership"] = 0.0
    cert.witnesses["T_defect_min_eig"] = worst
    # back conversion: Delta^m(P) = I for the original tuple
    back = phi.defect(m, P)
    cert.residuals["defect_of_P_vs_identity"] = float(
        np.linalg.norm(back - np.eye(A.dim), 2)
    )
    cert.tolerances["defect_of_P_vs_identity"] = tol * scale + 10.0 * series.tail_bound
    for idx, q in enumerate(Q_polys):
        r = float(np.linalg.norm(T.evaluate_poly(q), 2))
        cert.residuals[f"variety_{idx}"] = r
        cert.tolerances[f"variety_{idx}"] = tol * scale * condP
    return cert.finalize(), T


# --- defect equation ----------------------------------------------------------


def _dense_defect(phi: CPMapTuple, p: Sequence[int]) -> np.ndarray:
    """Delta^p as the d^2 x d^2 matrix prod_i (I - M_i)^{p_i} of the matricized maps."""
    eye2 = np.eye(phi.dim * phi.dim, dtype=np.complex128)
    L = eye2
    for i in range(1, phi.k + 1):
        F = eye2 - phi.matricize(i)
        for _ in range(p[i - 1]):
            L = F @ L
    return L


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

    The weighted-series value is cross-checked against an independent dense
    linear solve of the matricized equation; a singular matricized system
    contradicts the radius precondition and raises.
    """
    symbols = tuple(symbols)
    m = tuple(m)
    phi = CPMapTuple(symbols, A)
    R = hermitize(np.asarray(R, dtype=np.complex128))
    lamR = np.linalg.eigvalsh(R)
    if lamR[0] < phi.tol.tol_pd * max(1.0, lamR[-1]):
        raise ValueError(f"R must be positive definite; min eigenvalue {lamR[0]:.3e}")
    series = phi.weighted_series(m, R)
    X = hermitize(series.value)
    defect_residual = float(np.linalg.norm(phi.defect(m, X) - R, 2))

    try:
        x_oracle = np.linalg.solve(_dense_defect(phi, m), vec(R))
    except np.linalg.LinAlgError as e:
        raise ArithmeticError(
            "matricized defect system is singular although every radius is "
            f"below one; inconsistent instance ({e})"
        )
    gap = float(np.linalg.norm(x_oracle - vec(X)) / max(np.linalg.norm(vec(X)), 1e-300))
    rep = membership(phi, m, X, with_purity=False)
    invertible = bool(np.linalg.eigvalsh(X)[0] > phi.tol.tol_pd)
    scale = max(1.0, float(np.linalg.norm(R, 2)))
    ok = (
        defect_residual <= tol * scale + 10.0 * series.tail_bound
        and gap <= tol + 10.0 * series.tail_bound
        and rep.member
        and invertible
    )
    return DefectSolution(
        X=X,
        series=series,
        defect_residual=defect_residual,
        oracle_rel_gap=gap,
        membership_report=rep,
        invertible=invertible,
        ok=ok,
    )


# --- Sz.-Nagy fixed point -----------------------------------------------------

# iterates per factor on the two-sided sample grid
_SAMPLE_LEN = 16


def _sample_two_sided(phi: CPMapTuple) -> Tuple[float, float]:
    """(c, d) = extreme eigenvalues of composed iterates over a sample grid."""
    L = _SAMPLE_LEN
    while (L + 1) ** phi.k > 20000 and L > 2:
        L -= 1
    c = float("inf")
    d = float("-inf")

    def rec(i: int, X: np.ndarray) -> None:
        nonlocal c, d
        if i > phi.k:
            lam = np.linalg.eigvalsh(hermitize(X))
            c = min(c, float(lam[0]))
            d = max(d, float(lam[-1]))
            return
        Y = X
        for s in range(L + 1):
            rec(i + 1, Y)
            if s < L:
                Y = phi.apply(i, Y)

    rec(1, np.eye(phi.dim, dtype=np.complex128))
    return c, d


def _null_basis(S: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the right null space of the tall matrix S.

    Singular values at or below 1e-10 * s_max count as zero. They are read
    off the square R factor of S, which has the same singular values and
    right singular vectors, so the SVD runs on d^2 x d^2 only.
    """
    R = np.linalg.qr(S, mode="r")
    _, s, Vh = np.linalg.svd(R)
    rank = int(np.sum(s > 1e-10 * s[0]))
    return Vh[rank:].conj().T


def _ergodic_fixed_point(
    phi: CPMapTuple,
) -> Tuple[Optional[np.ndarray], int, str]:
    """Ergodic projection of I onto the common fixed space of the maps.

    For commuting power-bounded maps the Cesaro limit of I is its projection
    onto the common fixed space N along the sum of the ranges of M_i - I,
    whose annihilator is the common fixed space L of the adjoints M_i^*
    (Krengel, Ergodic Theorems, 1985). So Q = N (L^* N)^{-1} L^* vec(I),
    hermitized and normalized to spectral norm one. Returns (Q, dim N, note);
    Q is None, with the reason in note, when N is empty, dim L != dim N, or
    L^* N is singular: then eigenvalue 1 is not semisimple (a Jordan block)
    and no such projection exists.
    """
    d = phi.dim
    eye2 = np.eye(d * d, dtype=np.complex128)
    shifted = [phi.matricize(i) - eye2 for i in range(1, phi.k + 1)]
    N = _null_basis(np.vstack(shifted))
    L = _null_basis(np.vstack([S.conj().T for S in shifted]))
    if N.shape[1] == 0 or L.shape[1] != N.shape[1]:
        return None, N.shape[1], (
            f"the common fixed spaces of the maps and of their adjoints have "
            f"dimensions {N.shape[1]} and {L.shape[1]}"
        )
    G = L.conj().T @ N
    sv = np.linalg.svd(G, compute_uv=False)
    if sv[-1] <= 1e-10 * sv[0]:
        return None, N.shape[1], (
            f"eigenvalue 1 of the maps is not semisimple: the smallest singular "
            f"value of L^* N is {sv[-1]:.3e}"
        )
    v = N @ np.linalg.solve(G, L.conj().T @ vec(np.eye(d, dtype=np.complex128)))
    # the projection is a positive map that fixes the nonzero space N, so Q != 0
    Q = hermitize(unvec(v, d))
    return Q / np.linalg.norm(Q, 2), N.shape[1], ""


def _algebra_distance(A: OperatorTuple, Q: np.ndarray, max_len: int = 4) -> float:
    """Distance of Q to the span of words in the A_{i,j} and their adjoints."""
    d = A.dim
    gens: List[np.ndarray] = [np.eye(d, dtype=np.complex128)]
    for row in A.rows:
        for M in row:
            gens.append(np.asarray(M))
            gens.append(np.asarray(M).conj().T)
    basis = [np.eye(d, dtype=np.complex128)]
    frontier = [np.eye(d, dtype=np.complex128)]
    for _ in range(max_len):
        new = []
        for F in frontier:
            for G in gens[1:]:
                new.append(F @ G)
        basis.extend(new)
        frontier = new
        if len(basis) > 4 * d * d:
            break
    cols = np.stack([vec(B) for B in basis], axis=1)
    qv = vec(Q)
    sol, *_ = np.linalg.lstsq(cols, qv, rcond=None)
    return float(np.linalg.norm(cols @ sol - qv) / max(np.linalg.norm(qv), 1e-300))


def sznagy_solve(
    symbols: Sequence[PositiveSymbol],
    A: OperatorTuple,
    tol: float = 1e-7,
) -> Tuple[SimilarityCertificate, Optional[OperatorTuple]]:
    """Fixed point Q with Phi_i(Q) = Q, then T = Q^{-1/2} A Q^{1/2}.

    The two-sided bound c I <= composed iterates of I <= d I is sampled on a
    grid first; c must be positive for a similarity to exist. Q is the
    ergodic projection of I onto the common fixed space of the matricized
    maps, the limit of its Cesaro means, solved for directly. Every check on
    Q and T is a posteriori.
    """
    symbols = tuple(symbols)
    phi = CPMapTuple(symbols, A)
    c, d_up = _sample_two_sided(phi)
    cert = SimilarityCertificate(
        kind="isometric_conjugation",
        status="PENDING",
        residuals={},
        tolerances={},
        witnesses={"c": c, "d": d_up},
    )
    if not (c > tol):
        cert.residuals["two_sided_lower_bound"] = max(0.0, tol - c)
        cert.tolerances["two_sided_lower_bound"] = 0.0
        cert.notes.append(
            f"sampled lower bound c = {c:.3e} is not positive; no similarity"
        )
        return cert.finalize(), None

    Q, fixed_dim, why = _ergodic_fixed_point(phi)
    cert.witnesses["fixed_space_dim"] = float(fixed_dim)
    if Q is None:
        cert.status = "INCONCLUSIVE"
        cert.notes.append(f"no ergodic projection of I: {why}")
        return cert, None
    # Q is normalized to spectral norm one; every check below is either
    # scale-invariant or stated on this normalization
    cert.Q = Q
    lamQ = np.linalg.eigvalsh(Q)
    cert.witnesses["Q_min_eig"] = float(lamQ[0])
    cert.witnesses["Q_max_eig"] = float(lamQ[-1])
    for i in range(1, phi.k + 1):
        r = float(np.linalg.norm(phi.apply(i, Q) - Q, 2))
        cert.residuals[f"fixed_point_{i}"] = r
        cert.tolerances[f"fixed_point_{i}"] = tol
    # consistency envelope, in scale-free form: eigenvalue spread of Q must
    # not exceed the sampled spread d/c by more than the factor 100
    ratio_ok = lamQ[0] > 0 and (lamQ[0] / lamQ[-1]) >= (c / d_up) / 100.0
    cert.residuals["envelope"] = 0.0 if ratio_ok else 1.0
    cert.tolerances["envelope"] = 0.0
    if not ratio_ok:
        cert.notes.append(
            f"eigenvalue spread of Q ({lamQ[0]:.3e}..{lamQ[-1]:.3e}) is not "
            f"consistent with the sampled bounds c={c:.3e}, d={d_up:.3e}"
        )
        return cert.finalize(), None

    sq, isq, condQhalf = _psd_sqrt_pair(Q, "the fixed point Q")
    cert.cond = condQhalf
    cert.claimed_bound = float(10.0 * np.sqrt(d_up / c))
    cert.Y = sq
    T = conjugate_tuple(A, isq, sq)
    phi_T = CPMapTuple(symbols, T)
    for i in range(1, phi.k + 1):
        r = float(np.linalg.norm(phi_T.apply(i, np.eye(A.dim)) - np.eye(A.dim), 2))
        cert.residuals[f"unital_{i}"] = r
        cert.tolerances[f"unital_{i}"] = tol * condQhalf ** 2

    cert.witnesses["algebra_distance"] = _algebra_distance(A, Q)
    return cert.finalize(), T


# --- similarity into a variety-domain tuple ----------------------------------


@dataclass
class VarietyFeasibility:
    verdict: str  # "found" | "inconclusive"
    R: Optional[np.ndarray]
    T: Optional[OperatorTuple]
    iterations: int
    min_defect_eig: float
    membership_report: Optional[ConeReport]
    variety_residuals: List[float]
    notes: List[str]


def similarity_to_variety(
    symbols: Sequence[PositiveSymbol],
    m: Sequence[int],
    A: OperatorTuple,
    Q_polys: Sequence[NCPolynomial] = (),
    budget: int = 2000,
    margin: float = 1e-6,
    tol: float = 1e-8,
) -> VarietyFeasibility:
    """Searches for invertible positive R with every defect Delta^p(R) PSD.

    Feasibility is convex; the solver is alternating projection on a product
    space (the graph of the defect maps against the PSD cones), which can
    stall, so failure is reported as inconclusive rather than infeasible.
    On success T = R^{-1/2} A R^{1/2} lies in the variety domain.
    """
    symbols = tuple(symbols)
    m = tuple(m)
    phi = CPMapTuple(symbols, A)
    for idx, q in enumerate(Q_polys):
        r = float(np.linalg.norm(A.evaluate_poly(q), 2))
        if r > 1e-8:
            raise ValueError(f"constraint polynomial {idx} does not annihilate A ({r:.3e})")
    d = A.dim
    d2 = d * d
    if d2 > phi.tol.max_vec_dim:
        raise ResourceCapError(f"need {d2}x{d2} matricized defects; cap {phi.tol.max_vec_dim}")
    Ls = [_dense_defect(phi, p) for p in multi_grid(m) if any(p)]
    normal = np.eye(d2, dtype=np.complex128) + sum(L.conj().T @ L for L in Ls)
    cho = scipy.linalg.cho_factor(hermitize(normal))

    def clip_psd(X: np.ndarray, floor: float) -> np.ndarray:
        lam, U = np.linalg.eigh(hermitize(X))
        lam = np.clip(lam, floor, None)
        return U @ np.diag(lam) @ U.conj().T

    R = np.eye(d, dtype=np.complex128)
    Zs = [clip_psd(unvec(L @ vec(R), d), 0.0) for L in Ls]
    notes: List[str] = []
    it = 0
    found = False
    min_def = float("-inf")
    for it in range(1, budget + 1):
        rhs = vec(R) + sum(L.conj().T @ vec(Z) for L, Z in zip(Ls, Zs))
        v = scipy.linalg.cho_solve(cho, rhs)
        Raff = hermitize(unvec(v, d))
        nrm = float(np.linalg.norm(Raff, 2))
        if nrm <= 1e-300:
            notes.append("iterate collapsed to zero")
            break
        Raff = Raff / nrm
        defect_vals = [unvec(L @ vec(Raff), d) for L in Ls]
        min_def = min(min_eig(Z) for Z in defect_vals)
        if min_eig(Raff) >= margin / 2 and min_def >= -tol:
            R = Raff
            found = True
            break
        R = clip_psd(Raff, margin)
        Zs = [clip_psd(Z, 0.0) for Z in defect_vals]
    if not found:
        return VarietyFeasibility(
            verdict="inconclusive",
            R=None,
            T=None,
            iterations=it,
            min_defect_eig=min_def,
            membership_report=None,
            variety_residuals=[],
            notes=notes + [
                "alternating projections exhausted the budget; the convex "
                "feasibility problem was not resolved either way"
            ],
        )
    rep = membership(phi, m, R, with_purity=False)
    sq, isq, _ = _psd_sqrt_pair(R + 0.0 * np.eye(d), "the witness R")
    T = conjugate_tuple(A, isq, sq)
    return VarietyFeasibility(
        verdict="found",
        R=R,
        T=T,
        iterations=it,
        min_defect_eig=min_def,
        membership_report=rep,
        variety_residuals=[float(np.linalg.norm(T.evaluate_poly(q), 2)) for q in Q_polys],
        notes=notes,
    )


# --- positive-map (Kraus) similarity ------------------------------------------


def map_spectral_radius(phi: CPMapTuple, i: int) -> float:
    """Spectral radius of the map itself (the square of the tuple radius)."""
    return phi.joint_spectral_radius(i, crosscheck=False) ** 2


def cpmap_similarity(
    phi: CPMapTuple,
    m: Sequence[int],
    mode: str,
    R: Optional[np.ndarray] = None,
    degree_cap: int = 8,
    tol: float = 1e-7,
) -> SimilarityCertificate:
    """Joint similarity for a commuting tuple of CP maps in Kraus form.

    strict: every tuple radius at most 1 - radius_margin; Q = weighted series of I and
      lambda_i = Q^{-1/2} phi_i(Q^{1/2} . Q^{1/2}) Q^{-1/2} has I strictly
      inside the target cone.
    pure_cone: builds the polyball Berezin kernel over the Kraus operators
      for R (default Delta^m(I)) and conjugates by the Gram square root,
      yielding a pure tuple with I in its cone; the certified series of R
      raises DivergenceError before any model is built when a tuple radius
      is above 1 - radius_margin.
    unital: the sznagy_solve fixed point Q with phi_i(Q) = Q, the ergodic
      projection of I, and lambda_i(I) = I.
    """
    m = tuple(m)
    d = phi.dim
    eye = np.eye(d, dtype=np.complex128)
    if mode == "strict":
        bad = [i for i in range(1, phi.k + 1) if not phi._settled(i)]
        if bad:
            raise ValueError(f"strict mode needs tuple radius <= "
                             f"{1.0 - phi.tol.radius_margin}; factors {bad} fail")
        series = phi.weighted_series(m, eye)
        Q = hermitize(series.value)
        sq, isq, condQhalf = _psd_sqrt_pair(Q, "the series value Q")
        cert = SimilarityCertificate(
            kind="cpmap_similarity",
            status="PENDING",
            residuals={},
            tolerances={},
            witnesses={"map_radii_max": max(map_spectral_radius(phi, i) for i in range(1, phi.k + 1))},
            Y=sq,
            Q=Q,
            cond=condQhalf ** 2,
            claimed_bound=None,
            notes=["mode=strict"],
        )
        grid = phi.defect_grid(m, Q)
        scale = max(1.0, float(np.linalg.norm(Q, 2)))
        worst = float("inf")
        for p, D in grid.items():
            if not any(p):
                continue
            val = hermitize(isq @ D @ isq)  # Delta_Lambda^p(I)
            worst = min(worst, min_eig(val))
        cert.witnesses["target_defect_min_eig"] = worst
        cert.residuals["target_strictness"] = max(0.0, 1e-6 - worst)
        cert.tolerances["target_strictness"] = 0.0
        cert.residuals["defect_equation"] = float(
            np.linalg.norm(phi.defect(m, Q) - eye, 2)
        )
        cert.tolerances["defect_equation"] = tol * scale + 10.0 * series.tail_bound
        return cert.finalize()

    if mode == "pure_cone":
        base = membership(phi, m, eye, with_purity=True)
        pure = base.purity.pure
        if R is None:
            R = phi.defect(m, eye)
        R = hermitize(np.asarray(R, dtype=np.complex128))
        series = phi.weighted_series(m, R)
        lam = np.linalg.eigvalsh(hermitize(series.value))
        a, b = float(lam[0]), float(lam[-1])
        if a <= phi.tol.tol_pd:
            raise ValueError(
                f"pure_cone mode needs a two-sided bound; series lower bound {a:.3e}"
            )
        fock, model = build_model(phi.symbols, m, degree_cap, tol=phi.tol)
        K = berezin_kernel(phi.symbols, m, phi.ops, R, degree_cap, prebuilt=(fock, model))
        G_basis, Ymat = np.linalg.qr(K.K)
        cert = SimilarityCertificate(
            kind="cpmap_similarity",
            status="PENDING",
            residuals={},
            tolerances={},
            witnesses={"a": a, "b": b, "base_pure": float(pure), "base_member": float(base.member)},
            Y=Ymat.conj().T,  # the conjugator: phi_i(R X R*) = R lambda_i(X) R*
            Q=hermitize(K.gram()),
            cond=None,
            notes=["mode=pure_cone"],
        )
        tail = K.tail_bound
        rank = max(K.rank, 1)
        # Kraus operators of the target: compressions of W tensor I to range(K)
        lam_rows: List[List[np.ndarray]] = []
        for i in range(1, phi.k + 1):
            row = []
            for j in range(1, phi.ops.arities[i - 1] + 1):
                Wij = sp.kron(model.W(i, j), sp.identity(rank, format="csr"), format="csr")
                row.append(G_basis.conj().T @ (Wij @ G_basis))
            lam_rows.append(row)
        lam_tuple = OperatorTuple(lam_rows, tol=phi.tol, check_commutation=False)
        lam_phi = CPMapTuple([polyball_symbol(n) for n in phi.ops.arities], lam_tuple)
        Rc = Ymat.conj().T
        RrR = np.kron(Rc, Rc.conj())
        scale = max(1.0, float(np.linalg.norm(K.K, 2)) ** 2)
        for i in range(1, phi.k + 1):
            Mphi = phi.matricize(i)
            Mlam = lam_phi.matricize(i)
            r = float(np.linalg.norm(Mphi @ RrR - RrR @ Mlam, 2))
            cert.residuals[f"similarity_{i}"] = r
            cert.tolerances[f"similarity_{i}"] = tol * scale + 10.0 * tail
        target_rep = membership(lam_phi, m, np.eye(lam_tuple.dim), with_purity=True)
        cert.witnesses["target_member"] = float(target_rep.member)
        cert.witnesses["target_pure"] = float(target_rep.purity.pure)
        cert.residuals["target_cone_min_eig"] = max(0.0, -target_rep.worst()[1])
        cert.tolerances["target_cone_min_eig"] = phi.tol.tol_psd * target_rep.scale + 10.0 * tail
        if not pure:
            cert.notes.append("base tuple iterates of I did not certify purity")
        return cert.finalize()

    if mode == "unital":
        cert, _ = sznagy_solve(list(phi.symbols), phi.ops, tol=tol)
        cert.kind = "cpmap_similarity"
        cert.notes.append("mode=unital")
        return cert

    raise ValueError(f"unknown mode {mode!r}; expected strict, pure_cone, or unital")


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
    return _radius_equivalences(CPMapTuple(tuple(symbols), A), s_max)


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
