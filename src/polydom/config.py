"""Shared numeric tolerances and resource caps.

Every tolerance used by a solver is read from a single Tolerances value so
that reports can echo the effective settings and reruns are reproducible.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Tolerances:
    # relative cross-factor commutation tolerance for operator tuples
    tol_comm: float = 1e-10
    # PSD verdicts: min eigenvalue >= -tol_psd * max(1, ||X||)
    tol_psd: float = 1e-9
    # strict-positivity margin for strict cone verdicts
    tol_pd: float = 1e-9
    # a factor is settled when its tuple radius is at most 1 - radius_margin;
    # only settled factors get certified series, kernel tails and a decay search
    radius_margin: float = 0.005
    # relative eigenvalue clip for PSD square roots and rank decisions
    eig_clip: float = 1e-12
    # relative singular value cutoff when orthonormalizing spans
    svd_cutoff: float = 1e-10
    # default target for certified series tails
    series_tol: float = 1e-10
    # hard cap on enumerated words
    word_cap: int = 200_000
    # cap on the truncated Fock dimension (POLYDOM_MAX_DIM overrides)
    max_fock_dim: int = 20_000
    # cap on the matricized dimension d^2
    max_vec_dim: int = 40_000

    def as_dict(self) -> dict:
        return asdict(self)


def default_tolerances() -> Tolerances:
    """Default settings, honoring the POLYDOM_MAX_DIM environment cap."""
    cap = os.environ.get("POLYDOM_MAX_DIM")
    if cap is None:
        return Tolerances()
    return Tolerances(max_fock_dim=int(cap))


class ResourceCapError(RuntimeError):
    """A configured resource cap would be exceeded."""


class DivergenceError(RuntimeError):
    """A series operation was asked to run outside its convergence region."""
