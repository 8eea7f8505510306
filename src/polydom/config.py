"""Shared numeric tolerances and resource caps.

Every tolerance used by a solver is read from a single Tolerances value so
that reports can echo the effective settings and reruns are reproducible.
Every public tol argument, and a spec's task.tol, must be finite and > 0
(require_tol).
"""

from __future__ import annotations

import os
from math import isfinite
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Tolerances:
    # relative cross-factor commutation tolerance for operator tuples
    tol_comm: float = 1e-10
    # PSD verdicts (cone.positive): lambda_min >= -tol_psd * max(1, ||X||_2);
    # cone.membership scales the defects of X by the same max(1, ||X||_2)
    tol_psd: float = 1e-9
    # PD verdicts (cone.positive): lambda_min > tol_pd * max(1, ||X||_2);
    # strict cone verdicts ask every defect for >= tol_pd * max(1, ||X||_2)
    tol_pd: float = 1e-9
    # a factor is settled when its tuple radius is at most 1 - radius_margin;
    # only settled factors get certified series, kernel tails and a decay search
    radius_margin: float = 0.005
    # the range of a PSD matrix (cone.psd_range): eigenvalues above eig_clip * lambda_max
    eig_clip: float = 1e-12
    # relative singular value cutoff when orthonormalizing spans
    svd_cutoff: float = 1e-10
    # default target for certified series tails
    series_tol: float = 1e-10
    # hard cap on enumerated words
    word_cap: int = 200_000
    # cap on the truncated Fock dimension (POLYDOM_MAX_DIM overrides)
    max_fock_dim: int = 20_000
    # cap on the matricized dimension d^2 (6400: d = 80, 655 MB per d^2 x d^2
    # matrix); above it matricize refuses and the radius takes the Gelfand bound
    max_vec_dim: int = 6400

    def as_dict(self) -> dict:
        return asdict(self)


def default_tolerances() -> Tolerances:
    """Default settings, honoring the POLYDOM_MAX_DIM environment cap."""
    cap = os.environ.get("POLYDOM_MAX_DIM")
    if cap is None:
        return Tolerances()
    return Tolerances(max_fock_dim=int(cap))


def require_tol(tol) -> float:
    """tol as a float; ValueError unless it is finite and > 0."""
    t = float(tol)
    if not (isfinite(t) and t > 0.0):
        raise ValueError(f"tol must be finite and > 0, got {t!r}")
    return t


class ResourceCapError(RuntimeError):
    """A configured resource cap would be exceeded."""


class DivergenceError(RuntimeError):
    """A series operation was asked to run outside its convergence region."""
