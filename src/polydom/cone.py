"""Membership, purity, and factorization tests for defect-map cones.

The cone attached to (Phi, m) consists of the Hermitian X with X >= 0 and
Delta^p(X) >= 0 for every multi-degree p <= m, where Delta^p is the
composition of the per-factor defect maps (id - Phi_i)^{p_i}. Verdicts are
three-valued: clearly inside, boundary band, clearly outside.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .config import Tolerances
from .cpmap import (
    _DECAY_WINDOW,
    CPMapTuple,
    MultiDegree,
    OperatorTuple,
    SeriesResult,
    _as_complex,
    hermitize,
)
from .words import NCPolynomial, PositiveSymbol, scale_symbol_action


class RankAmbiguityError(ValueError):
    """Eigenvalues straddle the rank cutoff too closely to split range/kernel."""


def min_eig(X: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(hermitize(X))[0])


def hermitian(X, what: str, dim: int) -> np.ndarray:
    """X hermitized; ValueError unless X is a finite dim x dim matrix that is
    Hermitian entrywise to 1e-10 (1 + ||X||_F)."""
    X = _as_complex(X, what)
    if X.shape != (dim, dim):
        raise ValueError(f"{what} has shape {X.shape}, operators have dimension {dim}")
    if not np.allclose(X, X.conj().T, rtol=0, atol=1e-10 * (1 + np.linalg.norm(X))):
        raise ValueError(f"{what} is not Hermitian")
    return hermitize(X)


def positive(X: np.ndarray, tol: Tolerances, definite: bool = False, error: float = 0.0,
             what: Optional[str] = None, vectors: bool = False):
    """(verdict, ascending eigenvalues, eigenvectors if vectors else None) of the
    Hermitian X: PSD when l >= -tol_psd s, PD when l > tol_pd s, s = max(1, ||X||_2),
    l = lam_min - error (error bounds ||X - exact||_2); ValueError naming what, if given."""
    lam, U = np.linalg.eigh(X) if vectors else (np.linalg.eigvalsh(X), None)
    low, s = float(lam[0]) - error, max(1.0, -float(lam[0]), float(lam[-1]))
    ok = low > tol.tol_pd * s if definite else low >= -tol.tol_psd * s
    if not ok and what is not None:
        raise ValueError(f"{what} is not positive {'' if definite else 'semi'}definite "
                         f"(min eigenvalue {low:.3e})")
    return ok, lam, U


def psd_range(lam: np.ndarray, tol: Tolerances) -> Tuple[np.ndarray, float]:
    """(lam > c, c) with c = eig_clip lam_max: the range of a PSD matrix, none of
    a rounding-negative X ~ 0."""
    clip = tol.eig_clip * max(float(lam[-1]), 1e-300)
    return lam > clip, clip


def sqrt_pair(lam: np.ndarray, U: np.ndarray) -> Tuple[np.ndarray, np.ndarray, float]:
    """(X^{1/2}, X^{-1/2}, cond(X^{1/2})) from the eigenpairs of a PD X."""
    sq = U @ np.diag(np.sqrt(lam)) @ U.conj().T
    isq = U @ np.diag(1.0 / np.sqrt(lam)) @ U.conj().T
    return sq, isq, float(np.sqrt(lam[-1] / lam[0]))


def scaled_map(phi: CPMapTuple, r: float) -> CPMapTuple:
    """The map tuple with A replaced by rA, realized by coefficient scaling.

    Each summand a_alpha A_alpha X A_alpha^* picks up r^{2|alpha|} when A is
    replaced by rA, so the coefficients are scaled by (r^2)^{|alpha|}.
    """
    symbols = [scale_symbol_action(f, r * r) for f in phi.symbols]
    return CPMapTuple(symbols, phi.ops, validate=False)


@dataclass
class FactorPurity:
    factor: int
    pure: bool
    crossed_at: Optional[int]
    decay: List[float]
    fitted_rate: Optional[float]


@dataclass
class PurityReport:
    pure: bool
    factors: List[FactorPurity]


@dataclass
class ConeReport:
    m: MultiDegree
    min_eigs: Dict[MultiDegree, float]
    scale: float
    tol_psd: float
    tol_pd: float
    verdict: str  # "in_cone" | "boundary" | "outside"
    member: bool  # all min eigenvalues >= -tol_psd * scale
    strict: bool  # all min eigenvalues >= +tol_pd * scale
    purity: Optional[PurityReport] = None

    def worst(self) -> Tuple[MultiDegree, float]:
        p = min(self.min_eigs, key=lambda q: self.min_eigs[q])
        return p, self.min_eigs[p]


def is_pure_element(phi: CPMapTuple, X: np.ndarray) -> PurityReport:
    """Checks Phi_i^s(X) -> 0 per factor on the identity orbits.

    Russo-Dye bounds ||Phi_i^s(X)||_2 <= ||X||_2 eta_s, eta_s = ||Phi_i^s(I)||_2,
    so a factor is pure when CPMapTuple.decays certifies its orbit, and X = 0
    is pure outright. A non-zero X that decays only on an invariant part of a
    factor whose orbit does not decay reads not pure: not certified.

    Per factor, decay lists ||X||_2 eta_s for s <= 64 (up to a zero iterate),
    crossed_at is where the orbit certifies decay (_Orbit.crossed_at; 0 for
    X = 0, None when not pure), and fitted_rate is the Gelfand bound
    min_{t<=64} eta_t^{1/t} >= rho(Phi_i).
    """
    xnorm = float(np.linalg.norm(hermitian(X, "X", phi.dim), 2))
    factors: List[FactorPurity] = []
    for i in range(1, phi.k + 1):
        pure = phi.decays(i)
        orbit = phi._orbit(i)
        decay = [xnorm * e for e in orbit.eta[1:_DECAY_WINDOW + 1]]
        crossed = orbit.crossed_at() if pure else None
        if xnorm == 0.0:
            pure, crossed, decay = True, 0, [0.0] * len(decay)
        factors.append(FactorPurity(i, pure, crossed, decay, orbit.gelfand(_DECAY_WINDOW)))
    return PurityReport(all(f.pure for f in factors), factors)


def membership(
    phi: CPMapTuple,
    m: Sequence[int],
    X: np.ndarray,
    tol_psd: float | None = None,
    with_purity: bool = True,
) -> ConeReport:
    """Cone verdict from the minimum eigenvalue of every defect Delta^p(X), p <= m.

    m >= 1 componentwise, as for weighted_series and build_model: a zero
    entry would drop its factor's defects from the verdict. A negative entry
    is refused by the defect grid."""
    if any(mi == 0 for mi in m):
        raise ValueError(f"m must be >= 1 componentwise, got {tuple(m)}")
    X = hermitian(X, "X", phi.dim)
    scale = max(1.0, float(np.linalg.norm(X, 2)))
    t_psd = phi.tol.tol_psd if tol_psd is None else float(tol_psd)
    t_pd = phi.tol.tol_pd
    grid = phi.defect_grid(m, X)
    eigs = {p: min_eig(D) for p, D in grid.items()}
    low = min(eigs.values())
    if low < -t_psd * scale:
        verdict = "outside"
    elif low <= t_psd * scale:
        verdict = "boundary"
    else:
        verdict = "in_cone"
    return ConeReport(
        m=tuple(m),
        min_eigs=eigs,
        scale=scale,
        tol_psd=t_psd,
        tol_pd=t_pd,
        verdict=verdict,
        member=low >= -t_psd * scale,
        strict=low >= t_pd * scale,
        purity=is_pure_element(phi, X) if with_purity else None,
    )


@dataclass
class Reconstruction:
    value: np.ndarray
    residual: float
    series: SeriesResult


def reconstruct(phi: CPMapTuple, m: Sequence[int], X: np.ndarray) -> Reconstruction:
    """Weighted series of Delta^m(X); recovers X when every factor is pure.

    The series is truncated two orders below the reporting tolerance so the
    returned residual reflects reconstruction quality, not truncation. X
    is read by the one input rule of hermitian, so a matrix that is not a
    finite Hermitian d x d matrix raises ValueError.
    """
    X = hermitian(X, "X", phi.dim)
    R = phi.defect(tuple(m), X)
    series = phi.weighted_series(m, R, tol=0.01 * phi.tol.series_tol)
    residual = float(np.linalg.norm(series.value - X))
    return Reconstruction(series.value, residual, series)


@dataclass
class FlatReport:
    flat_full: bool  # Delta^m(Y) = 0
    flat_ones: bool  # Delta^{(1,...,1)}(Y) = 0
    norm_full: float
    norm_ones: float
    consistent: bool


def flat_equivalence(
    phi: CPMapTuple,
    m: Sequence[int],
    Y: np.ndarray,
    tol: float | None = None,
) -> FlatReport:
    """Tests Delta^m(Y) = 0 against Delta^{(1,...,1)}(Y) = 0 for cone members.

    The two conditions are equivalent on the cone when every factor is power
    bounded; a mismatch is reported as inconsistent rather than patched.
    """
    for i in range(1, phi.k + 1):
        r = phi.joint_spectral_radius(i, crosscheck=False)
        if r > 1.0 + 1e-6:
            raise ValueError(f"factor {i} has radius {r:.6f} > 1; not power bounded")
    rep = membership(phi, m, Y, with_purity=False)
    if not rep.member:
        raise ValueError(f"Y is outside the cone (worst eigenvalue {rep.worst()[1]:.3e})")
    Y = hermitize(np.asarray(Y, dtype=np.complex128))
    scale = max(1.0, float(np.linalg.norm(Y, 2)))
    tol = 1e-8 * scale if tol is None else float(tol)
    full = float(np.linalg.norm(phi.defect(tuple(m), Y), 2))
    ones = float(np.linalg.norm(phi.defect(tuple([1] * phi.k), Y), 2))
    a, b = full <= tol, ones <= tol
    return FlatReport(a, b, full, ones, consistent=(a == b))


@dataclass
class FactorizationResult:
    T: OperatorTuple
    rank: int
    intertwine_residuals: List[List[float]]
    variety_residuals: List[float]
    gamma_report: ConeReport
    domain_report: ConeReport
    max_intertwine: float


def factor_through(
    Gamma: np.ndarray,
    symbols: Sequence[PositiveSymbol],
    m: Sequence[int],
    A: OperatorTuple,
    Q_polys: Sequence[NCPolynomial] = (),
    tol: float | None = None,
) -> FactorizationResult:
    """Solves A_{i,j} Gamma^{1/2} = Gamma^{1/2} T_{i,j} for a domain tuple T.

    Gamma must lie in the cone of (Phi, m). The map Lambda_{i,j} defined on
    range(Gamma^{1/2}) by Lambda Gamma^{1/2} x = Gamma^{1/2} A_{i,j}^* x is
    solved in an orthonormal eigenbasis of the range, and T is its adjoint
    extended by zero on the kernel.
    """
    phi = CPMapTuple(symbols, A)
    Gamma = hermitian(Gamma, "Gamma", A.dim)
    gamma_report = membership(phi, m, Gamma, with_purity=False)
    if gamma_report.verdict == "outside":
        raise ValueError(
            f"Gamma is outside the cone (worst eigenvalue {gamma_report.worst()[1]:.3e})"
        )
    qa_scale = max(1.0, float(np.linalg.norm(Gamma, 2)))
    tol = 1e-8 if tol is None else float(tol)
    for q in Q_polys:
        qa = float(np.linalg.norm(A.evaluate_poly(q), 2))
        if qa > tol * qa_scale:
            raise ValueError(f"a constraint polynomial does not annihilate A: ||q(A)|| = {qa:.3e}")

    lam, U = positive(Gamma, phi.tol, vectors=True)[1:]
    keep, clip = psd_range(lam, phi.tol)
    ambiguous = [v for v in lam if clip / 3 < v < 3 * clip]
    if ambiguous:
        raise RankAmbiguityError(
            f"eigenvalues {ambiguous[:3]} are within a factor 3 of the cutoff {clip:.3e}"
        )
    rank = int(np.count_nonzero(keep))
    d = Gamma.shape[0]
    Ur = U[:, keep]
    sq = np.sqrt(lam[keep])
    sqrt_gamma = (U * np.sqrt(np.clip(lam, 0.0, None))) @ U.conj().T

    rowsT: List[List[np.ndarray]] = []
    residuals: List[List[float]] = []
    worst = 0.0
    for i in range(1, A.k + 1):
        rowT: List[np.ndarray] = []
        rowR: List[float] = []
        for j in range(1, A.arities[i - 1] + 1):
            Aij = A.matrix(i, j)
            # Lambda restricted to the range, in the orthonormal basis Ur
            L = (sq[:, None] * (Ur.conj().T @ Aij.conj().T @ Ur)) / sq[None, :]
            Tij = Ur @ L.conj().T @ Ur.conj().T
            res = float(np.linalg.norm(Aij @ sqrt_gamma - sqrt_gamma @ Tij, 2))
            rowT.append(Tij)
            rowR.append(res)
            worst = max(worst, res)
        rowsT.append(rowT)
        residuals.append(rowR)
    T = OperatorTuple(rowsT, tol=A.tol)
    variety_residuals = [
        float(np.linalg.norm(T.evaluate_poly(q), 2)) for q in Q_polys
    ]
    domain_report = membership(CPMapTuple(symbols, T), m, np.eye(d), with_purity=False)
    return FactorizationResult(
        T=T,
        rank=rank,
        intertwine_residuals=residuals,
        variety_residuals=variety_residuals,
        gamma_report=gamma_report,
        domain_report=domain_report,
        max_intertwine=worst,
    )


def radial_membership(
    phi: CPMapTuple,
    m: Sequence[int],
    Y: np.ndarray,
    radii: Sequence[float] = (0.9, 0.99, 0.999),
) -> Dict[float, float]:
    """min eigenvalue of Delta_{f, rA}^m(Y) over a grid of radial scalings.

    Membership of Y implies every entry is >= -tol; the r -> 1 trend probes
    boundary instances whose defect at r = 1 is singularly small.
    """
    out: Dict[float, float] = {}
    for r in radii:
        out[float(r)] = min_eig(scaled_map(phi, float(r)).defect(tuple(m), Y))
    return out
