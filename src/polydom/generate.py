"""Seeded test-instance families.

Commutation across factors is obtained structurally, never by numerical
cleanup: every matrix in an instance is a polynomial in one shared seed
matrix, or a conjugated diagonal. Radii are forced to a target by one
radius evaluation per factor: for the degree-1 symbols used here the tuple
radius is linear in the row scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .cpmap import CPMapTuple, OperatorTuple
from .words import PositiveSymbol, Word, polyball_symbol

FAMILIES = (
    "commuting_polynomials",
    "conjugated_unitaries",
    "nilpotent",
    "polyball_random",
)


@dataclass
class Instance:
    symbols: Tuple[PositiveSymbol, ...]
    m: Tuple[int, ...]
    ops: OperatorTuple
    family: str
    seed: int
    params: Dict[str, object] = field(default_factory=dict)

    @property
    def k(self) -> int:
        return len(self.symbols)


def _complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def random_pd(seed: int | np.random.Generator, dim: int, cond: float = 10.0) -> np.ndarray:
    """Positive definite with condition number at most cond."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    G = _complex_gaussian(rng, (dim, dim))
    Q, _ = np.linalg.qr(G)
    lam = np.exp(rng.uniform(0.0, np.log(cond), size=dim))
    lam = lam / lam.min()
    return (Q * lam) @ Q.conj().T


def random_psd(seed: int | np.random.Generator, dim: int, rank: Optional[int] = None) -> np.ndarray:
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    r = dim if rank is None else rank
    G = _complex_gaussian(rng, (dim, r))
    return G @ G.conj().T


def _poly_of(M: np.ndarray, coeffs: Sequence[complex], with_constant: bool = True) -> np.ndarray:
    d = M.shape[0]
    out = np.zeros((d, d), dtype=np.complex128)
    P = np.eye(d, dtype=np.complex128)
    for t, c in enumerate(coeffs):
        if t > 0:
            P = P @ M
        if t == 0 and not with_constant:
            continue
        out += c * P
    return out


def _scale_rows_to_radius(
    symbols: Sequence[PositiveSymbol],
    rows: List[List[np.ndarray]],
    target: float,
) -> Tuple[List[List[np.ndarray]], List[float]]:
    """Each row scaled by (target / r_i) (1 - 1e-12); the returned radii are <= target.

    The tuple radius of a degree-1 symbol is linear in the row scale, and
    1 - 1e-12 absorbs the rounding of r_i. A higher degree still gives
    radius <= t r_i for a scale t <= 1 (Phi_{tA} <= t^2 Phi_A), not above.
    """
    phi = CPMapTuple(symbols, OperatorTuple(rows, check_commutation=False), validate=False)
    for i in range(len(rows)):
        r1 = phi.joint_spectral_radius(i + 1, crosscheck=False)
        if r1 > 0:
            rows[i] = [(target / r1) * (1.0 - 1e-12) * A for A in rows[i]]
    phi = CPMapTuple(symbols, OperatorTuple(rows, check_commutation=False), validate=False)
    return rows, [phi.joint_spectral_radius(i + 1, crosscheck=False) for i in range(len(rows))]


def _multi_degree(k: Optional[int], arities: Sequence[int], m: Optional[Sequence[int]]) -> Tuple[int, ...]:
    """m, all ones by default; ValueError when k or m disagrees with the arities."""
    if k is not None and k != len(arities):
        raise ValueError(f"k = {k} but {len(arities)} arities given")
    m = tuple(1 for _ in arities) if m is None else tuple(m)
    if len(m) != len(arities):
        raise ValueError(f"{len(m)} entries in m for {len(arities)} factors")
    return m


def commuting_polynomials(
    seed: int,
    k: Optional[int] = None,
    arities: Sequence[int] = (2, 1),
    dim: int = 4,
    m: Optional[Sequence[int]] = None,
    degree: int = 2,
    target_radius: float = 0.8,
) -> Instance:
    """A_{i,j} = p_{i,j}(M) for one shared random M; exact commutation."""
    m = _multi_degree(k, arities, m)
    rng = np.random.default_rng(seed)
    M = _complex_gaussian(rng, (dim, dim)) / np.sqrt(dim)
    rows: List[List[np.ndarray]] = []
    for n in arities:
        rows.append(
            [_poly_of(M, _complex_gaussian(rng, degree + 1)) for _ in range(n)]
        )
    symbols = tuple(polyball_symbol(n) for n in arities)
    rows, radii = _scale_rows_to_radius(symbols, rows, target_radius)
    ops = OperatorTuple(rows)
    return Instance(
        symbols=symbols,
        m=m,
        ops=ops,
        family="commuting_polynomials",
        seed=seed,
        params={"target_radius": target_radius, "radii": radii, "degree": degree},
    )


def conjugated_unitaries(
    seed: int,
    k: int = 2,
    dim: int = 4,
    cond_cap: float = 10.0,
) -> Instance:
    """C_i = xi U_i xi^{-1} with commuting unitaries U_i and cond(xi) <= cap."""
    rng = np.random.default_rng(seed)
    G = _complex_gaussian(rng, (dim, dim))
    W, _ = np.linalg.qr(G)
    xi = random_pd(rng, dim, cond=cond_cap)
    xi_inv = np.linalg.inv(xi)
    rows = []
    for _ in range(k):
        phases = np.exp(1j * rng.uniform(0.0, 2 * np.pi, size=dim))
        U = (W * phases) @ W.conj().T
        rows.append([xi @ U @ xi_inv])
    symbols = tuple(polyball_symbol(1) for _ in range(k))
    ops = OperatorTuple(rows)
    return Instance(
        symbols=symbols,
        m=tuple(1 for _ in range(k)),
        ops=ops,
        family="conjugated_unitaries",
        seed=seed,
        params={"cond_cap": cond_cap, "cond_xi": float(np.linalg.cond(xi))},
    )


def nilpotent(
    seed: int,
    k: Optional[int] = None,
    arities: Sequence[int] = (2, 1),
    dim: int = 4,
    m: Optional[Sequence[int]] = None,
    amplitude: float = 1.0,
    ensure_cone: bool = False,
) -> Instance:
    """Strictly upper triangular commuting tuples: polynomials in one
    nilpotent N with zero constant term, so every long word vanishes.

    With ensure_cone the rows are shrunk until every defect of the identity
    is positive semidefinite (the identity is then a pure cone element).
    """
    m = _multi_degree(k, arities, m)
    rng = np.random.default_rng(seed)
    N = np.zeros((dim, dim), dtype=np.complex128)
    for r in range(dim - 1):
        N[r, r + 1] = _complex_gaussian(rng, ())
    rows = []
    for n in arities:
        row = []
        for _ in range(n):
            coeffs = [0.0] + [
                amplitude * _complex_gaussian(rng, ()) / (2.0 ** t)
                for t in range(1, dim)
            ]
            row.append(_poly_of(N, coeffs, with_constant=False))
        rows.append(row)
    symbols = tuple(polyball_symbol(n) for n in arities)
    shrink = 1.0
    if ensure_cone:
        eye = np.eye(dim)
        for _ in range(80):
            ops = OperatorTuple(rows, check_commutation=False)
            phi = CPMapTuple(symbols, ops, validate=False)
            grid = phi.defect_grid(m, eye)
            low = min(float(np.linalg.eigvalsh(D)[0]) for D in grid.values())
            if low >= 0.0:
                break
            rows = [[0.7 * A for A in row] for row in rows]
            shrink *= 0.7
        else:
            raise RuntimeError("could not shrink the tuple into the cone")
    ops = OperatorTuple(rows)
    return Instance(
        symbols=symbols,
        m=m,
        ops=ops,
        family="nilpotent",
        seed=seed,
        params={
            "nilpotency_order": dim,
            "amplitude": amplitude,
            "cone_shrink": shrink if ensure_cone else None,
        },
    )


def polyball_random(
    seed: int,
    n: int = 2,
    dim: int = 4,
    m: int = 1,
    target_radius: float = 0.8,
) -> Instance:
    """Single factor, f = Z_1 + ... + Z_n; no commutation constraint applies
    inside one row, so the entries are independent Gaussians."""
    rng = np.random.default_rng(seed)
    row = [_complex_gaussian(rng, (dim, dim)) / np.sqrt(dim) for _ in range(n)]
    symbols = (polyball_symbol(n),)
    rows, radii = _scale_rows_to_radius(symbols, [row], target_radius)
    ops = OperatorTuple(rows)
    return Instance(
        symbols=symbols,
        m=(m,),
        ops=ops,
        family="polyball_random",
        seed=seed,
        params={"target_radius": target_radius, "radii": radii},
    )


def strict_contractions(
    seed: int,
    k: int = 2,
    dim: int = 4,
    norm_cap: float = 0.7,
) -> List[np.ndarray]:
    """Commuting matrices with spectral norm <= norm_cap (polydisc points)."""
    rng = np.random.default_rng(seed)
    M = _complex_gaussian(rng, (dim, dim)) / np.sqrt(dim)
    out = []
    for _ in range(k):
        C = _poly_of(M, _complex_gaussian(rng, 3))
        C = C * (norm_cap / max(float(np.linalg.norm(C, 2)), 1e-300))
        out.append(C)
    return out


def random_symbol(
    seed: int | np.random.Generator,
    arity: int,
    degree: int = 3,
    density: float = 0.6,
) -> PositiveSymbol:
    """Random positive regular symbol: positive linear part, sparse tail."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    coeffs: Dict[Word, float] = {}
    for j in range(1, arity + 1):
        coeffs[Word((j,))] = float(rng.uniform(0.2, 1.0))
    def walk(prefix: Tuple[int, ...]) -> None:
        if len(prefix) >= degree:
            return
        for j in range(1, arity + 1):
            w = prefix + (j,)
            if len(w) >= 2 and rng.uniform() < density:
                coeffs[Word(w)] = float(rng.uniform(0.0, 0.5))
            walk(w)
    walk(())
    return PositiveSymbol(arity=arity, coeffs=coeffs, max_degree=degree)


def generate(family: str, seed: int, **kwargs) -> Instance:
    if family == "commuting_polynomials":
        return commuting_polynomials(seed, **kwargs)
    if family == "conjugated_unitaries":
        return conjugated_unitaries(seed, **kwargs)
    if family == "nilpotent":
        return nilpotent(seed, **kwargs)
    if family == "polyball_random":
        return polyball_random(seed, **kwargs)
    raise ValueError(f"unknown family {family!r}; choose from {FAMILIES}")
