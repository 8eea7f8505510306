"""Radial sweep of the constrained transform on a variety tuple.

Builds a nilpotent commuting tuple annihilated by the factor-1 commutator,
then evaluates the radially parametrized constrained kernel along an r-grid.
At every grid point the Gram identity K*K = D holds exactly (the kernel
terminates), and the transform of a compressed model word converges as
r -> 1 to the word expression in the tuple itself; the table prints both
residuals together with the Cauchy differences standing in for the limit.

Usage:
    python scripts/berezin_sweep_demo.py --dim 5 --cap 5
"""

import argparse
from dataclasses import dataclass

import numpy as np

from polydom.berezin import (
    constrained_kernel,
    extended_transform_sweep,
    kernel,
    model_word_value,
    tuple_word_product,
)
from polydom.cpmap import CPMapTuple
from polydom.fock import build_model, variety_subspace
from polydom.generate import nilpotent
from polydom.words import commutator_polynomial


@dataclass
class SweepConfig:
    seed: int = 7
    dim: int = 5
    cap: int = 5
    r_grid: tuple = (0.5, 0.7, 0.85, 0.95, 1.0)
    word: tuple = ((1,), ())  # one factor-1 letter, nothing in factor 2


def run(cfg: SweepConfig) -> None:
    inst = nilpotent(cfg.seed, dim=cfg.dim, ensure_cone=True)
    phi = CPMapTuple(inst.symbols, inst.ops)
    D = np.eye(cfg.dim)
    polys = (commutator_polynomial(1, 1, 2),)

    # chi = S_(alpha) S_(alpha)* on the compressed model space; the same
    # subspace is shared by every grid point, so build it once at r = 1
    model = build_model(inst.symbols, inst.m, cfg.cap)[1]
    base = kernel(phi, inst.m, phi.defect(inst.m, D), cfg.cap, model)
    ck = constrained_kernel(base, model, variety_subspace(model, polys))
    S = model_word_value(ck.compressed, cfg.word)
    chis = [np.eye(ck.subspace.dim_N, dtype=np.complex128), S @ S.conj().T]

    report = extended_transform_sweep(
        inst.symbols, inst.m, inst.ops, D, polys,
        r_grid=cfg.r_grid, chis=chis, degree_cap=cfg.cap,
    )
    A_w = tuple_word_product(inst.ops, cfg.word)
    total = sum(len(w) for w in cfg.word)
    print(f"variety subspace dim {ck.subspace.dim_N}, "
          f"kernel range leak {ck.range_residual:.2e}")
    print(f"{'r':>6s} {'gram resid':>11s} {'word resid':>11s}")
    for pt in report.points:
        target = (pt.r ** (2 * total)) * (A_w @ D @ A_w.conj().T)
        word_res = float(np.linalg.norm(pt.transforms[1] - target, 2))
        print(f"{pt.r:6.2f} {pt.gram_residual:11.3e} {word_res:11.3e}")
    for ci, diffs in enumerate(report.cauchy):
        pretty = ", ".join(f"{x:.3e}" for x in diffs)
        print(f"cauchy chi[{ci}]: {pretty}")
    for note in report.notes:
        print("note:", note)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--dim", type=int, default=5)
    ap.add_argument("--cap", type=int, default=5, help="truncation degree")
    ap.add_argument("--r-grid", type=str, default="0.5,0.7,0.85,0.95,1.0")
    args = ap.parse_args()
    cfg = SweepConfig(
        seed=args.seed,
        dim=args.dim,
        cap=args.cap,
        r_grid=tuple(float(x) for x in args.r_grid.split(",")),
    )
    run(cfg)


if __name__ == "__main__":
    main()
