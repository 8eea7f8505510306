"""Recovering a unitary tuple from its similarity orbit.

Conjugated commuting unitaries xi U_i xi^{-1} admit a positive fixed point Q
of every factor map; conjugating by Q^{1/2} returns a jointly unitary tuple.
The experiment grows the conditioning of xi and tracks how the certificate
degrades: the exact two-sided bounds c = 1/cond Q and d = cond Q on every
composed iterate of I widen, while the recovered isometry residual stays at
working precision until the joint eigenbasis xi W that determines the fixed
point loses accuracy to the conditioning of xi; a tuple whose pairs that
eigenbasis cannot decide falls back to the null spaces of the matricized
maps. Strict contractions are included as the negative control: their
identity orbits decay, so no positive fixed point
exists and the solver reports no similarity. The "variety" column counts
the tuples for which similarity_to_variety also passes a similarity onto
the variety domain (through the same fixed point, the case where no radius
is settled).

Usage:
    python scripts/similarity_experiment.py --seeds 25 --dim 4
"""

import argparse
from dataclasses import dataclass

import numpy as np

from polydom.cpmap import OperatorTuple
from polydom.generate import conjugated_unitaries, strict_contractions
from polydom.similarity import similarity_to_variety, sznagy_solve
from polydom.words import polyball_symbol


@dataclass
class ExperimentConfig:
    seeds: int = 25
    dim: int = 4
    cond_caps: tuple = (2.0, 5.0, 10.0, 25.0, 50.0)
    base_seed: int = 300


def isometry_residual(T: OperatorTuple) -> float:
    eye = np.eye(T.dim)
    worst = 0.0
    for i in range(1, T.k + 1):
        Ti = T.matrix(i, 1)
        worst = max(worst, float(np.linalg.norm(Ti.conj().T @ Ti - eye, 2)))
    return worst


def run(cfg: ExperimentConfig) -> None:
    print(f"{'cond cap':>9s} {'pass':>5s} {'variety':>7s} {'c = 1/cond Q':>12s} "
          f"{'d = cond Q':>12s} {'fixed pt':>9s} {'isometry':>9s}")
    for cap in cfg.cond_caps:
        cs, ds, fps, isos, passed, found = [], [], [], [], 0, 0
        for s in range(cfg.seeds):
            inst = conjugated_unitaries(
                cfg.base_seed + s, dim=cfg.dim, cond_cap=cap
            )
            cert, T = sznagy_solve(inst.symbols, inst.ops)
            found += similarity_to_variety(inst.symbols, inst.m, inst.ops)[0].status == "PASS"
            if cert.Q is not None:
                # c and d are read off Q, so only a certificate with Q has them
                cs.append(cert.witnesses["c"])
                ds.append(cert.witnesses["d"])
            if cert.status == "PASS" and T is not None:
                passed += 1
                fps.append(max(
                    cert.residuals[f"fixed_point_{i}"]
                    for i in range(1, inst.ops.k + 1)
                ))
                isos.append(isometry_residual(T))
        print(f"{cap:9.1f} {passed:5d} {found:7d} {np.median(cs):12.3e} "
              f"{np.median(ds):12.3e} {max(fps):9.3e} {max(isos):9.3e}")

    # negative control: strict contractions admit no unitary similarity
    refused = 0
    for s in range(cfg.seeds):
        C = strict_contractions(cfg.base_seed + s, k=2, dim=cfg.dim)
        ops = OperatorTuple([[C[0]], [C[1]]])
        symbols = (polyball_symbol(1), polyball_symbol(1))
        cert, T = sznagy_solve(symbols, ops)
        if cert.status == "FAILED" and T is None:
            refused += 1
    print(f"strict contractions refused: {refused}/{cfg.seeds}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=25, help="instances per cap")
    ap.add_argument("--dim", type=int, default=4)
    ap.add_argument("--cond-caps", type=str, default="2,5,10,25,50")
    ap.add_argument("--base-seed", type=int, default=300)
    args = ap.parse_args()
    cfg = ExperimentConfig(
        seeds=args.seeds,
        dim=args.dim,
        cond_caps=tuple(float(x) for x in args.cond_caps.split(",")),
        base_seed=args.base_seed,
    )
    run(cfg)


if __name__ == "__main__":
    main()
