"""Batch command line front end.

One command per process: read a JSON problem spec, dispatch to the library,
emit one JSON report (stdout or --output). Exit codes: 0 when everything
passed, 2 when some check was inconclusive, 1 on failed certificates or
errors. Reports are canonical JSON, so identical inputs give identical bytes
apart from the wall_time field.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from typing import Any, Dict, Optional, Sequence

import numpy as np

from . import __version__
from .config import default_tolerances, require_tol
from .cone import flat_equivalence, membership, reconstruct
from .cpmap import CPMapTuple
from .berezin import (
    constrained_kernel,
    intertwine_check,
    intertwine_check_constrained,
    kernel,
    transform,
    vn_check_model,
    vn_check_polydisc,
)
from .fock import build_model, compress, domain_check_model, variety_subspace
from .generate import FAMILIES, Instance, generate
from .jsonio import (
    ProblemSpec,
    canonical_json,
    digest,
    load_problem,
    matrix_from_json,
    matrix_to_json,
    poly_from_json,
    problem_to_json,
    sanitize,
)
from .similarity import (
    _embed,
    _radius_equivalences,
    _rota,
    cpmap_similarity,
    solve_defect_equation,
    sznagy_solve,
)
from .words import as_count, commutator_polynomial, polyball_symbol

_EXIT = {"PASS": 0, "INCONCLUSIVE": 2, "FAILED": 1}
_RANK = {"PASS": 0, "INCONCLUSIVE": 1, "FAILED": 2}


def _worst(statuses: Sequence[str]) -> str:
    return max(statuses, key=lambda s: _RANK[s]) if statuses else "PASS"


def _task_value(spec: ProblemSpec, args, key: str, flag: Optional[str], default):
    if flag is not None:
        v = getattr(args, flag, None)
        if v is not None:
            return v
    return spec.task.get(key, default)


def _task_degree(spec: ProblemSpec, args) -> int:
    """The truncation degree D of --trunc-degree or the spec (default 6), an integer >= 1."""
    return as_count(_task_value(spec, args, "D", "trunc_degree", 6), "D")


def _task_tol(spec: ProblemSpec, args, default: float) -> float:
    """The tol of --tol or the spec, finite and > 0 (require_tol)."""
    return require_tol(_task_value(spec, args, "tol", "tol", default))


def _default_R(spec: ProblemSpec, args) -> np.ndarray:
    obj = spec.task.get("R")
    if obj is not None:
        return matrix_from_json(obj)
    return np.eye(spec.ops.dim, dtype=np.complex128)


# --- command bodies ------------------------------------------------------------


def cmd_radius(spec: ProblemSpec, args) -> Dict[str, Any]:
    phi = CPMapTuple(spec.symbols, spec.ops)
    report = _radius_equivalences(phi)
    radii = [phi.joint_spectral_radius(i) for i in range(1, phi.k + 1)]
    status = "PASS" if report.all_consistent else "FAILED"
    return {
        "status": status,
        "radii": radii,
        "equivalences": sanitize(report),
    }


def cmd_cone(spec: ProblemSpec, args) -> Dict[str, Any]:
    phi = CPMapTuple(spec.symbols, spec.ops)
    X = _default_R(spec, args)
    rep = membership(phi, spec.m, X)
    out: Dict[str, Any] = {"membership": sanitize(rep)}
    out["purity"] = out["membership"]["purity"]
    statuses = ["PASS"]
    if rep.member:
        rec = reconstruct(phi, spec.m, X)
        out["reconstruction"] = {
            "residual": rec.residual,
            "tail_bound": rec.series.tail_bound,
        }
        try:
            flat = flat_equivalence(phi, spec.m, X)
            out["flat"] = sanitize(flat)
            if not flat.consistent:
                statuses.append("FAILED")
        except ValueError as e:
            out["flat"] = {"skipped": str(e)}
    out["status"] = _worst(statuses)
    return out


def cmd_model(spec: ProblemSpec, args) -> Dict[str, Any]:
    D, tol = _task_degree(spec, args), _task_tol(spec, args, 1e-8)
    fock, model = build_model(spec.symbols, spec.m, D)
    out: Dict[str, Any] = {"fock_dim": fock.dim, "degree_cap": D}
    dom = domain_check_model(model)
    out["domain_check"] = sanitize(dom)
    statuses = ["PASS" if dom.ok else "FAILED"]
    if spec.constraints:
        sub = variety_subspace(model, spec.constraints)
        comp = compress(model, sub)
        out["variety"] = {
            "dim_N": sub.dim_N,
            "invariance_residual_full": sub.invariance_residual_full,
            "invariance_residual_interior": sub.invariance_residual_interior,
            "q_residuals_full": sanitize(comp.q_residuals_full),
            "q_residuals_interior": sanitize(comp.q_residuals_interior),
        }
        if any(r > tol for r in comp.q_residuals_interior):
            statuses.append("FAILED")
    out["status"] = _worst(statuses)
    return out


def cmd_kernel(spec: ProblemSpec, args) -> Dict[str, Any]:
    D = _task_degree(spec, args)
    tol = _task_tol(spec, args, 1e-8)
    R = _default_R(spec, args)
    kern = kernel(CPMapTuple(spec.symbols, spec.ops), spec.m, R, D)
    # the kernel's model again, served from the model cache; perfbench's
    # test_real_call_nests_and_adds_up counts this call, so it goes with the next
    # change to the benchmark
    model = build_model(spec.symbols, spec.m, D)[1]
    inter = intertwine_check(kern, model, spec.ops)
    series = kern.series
    gram_gap = float("nan") if series is None else float(np.linalg.norm(kern.gram() - series.value, 2))
    out: Dict[str, Any] = {
        "rank": kern.rank,
        "tail_bound": kern.tail_bound,
        "certified": kern.certified,
        "gram_vs_series": gram_gap,
        "intertwine": {f"{i},{j}": list(v) for (i, j), v in inter.items()},
    }
    # without a certified series of R the Gram identity cannot be tested
    statuses = ["PASS" if series is not None else "INCONCLUSIVE"]
    interior_bad = any(v[1] > tol for v in inter.values())
    if interior_bad or (series is not None
                        and gram_gap > tol + 10.0 * (kern.tail_bound + series.tail_bound)):
        statuses.append("FAILED")
    if spec.constraints:
        ck = constrained_kernel(kern, model, variety_subspace(model, spec.constraints))
        dim_N, leak = ck.subspace.dim_N, ck.range_residual
        cinter = intertwine_check_constrained(ck, spec.ops)
    else:
        # without constraints N_Q is the whole model: the section is the kernel's own
        ck, dim_N, leak = kern, kern.fock.dim, 0.0
        cinter = {ij: full for ij, (full, _) in inter.items()}
    out["constrained"] = {
        "dim_N": dim_N,
        "range_leak": leak,
        "intertwine": {f"{i},{j}": v for (i, j), v in cinter.items()},
    }
    chi_obj = spec.task.get("chi")
    chi = matrix_from_json(chi_obj) if chi_obj is not None else None
    out["transform_of_chi"] = matrix_to_json(transform(ck, chi))
    out["status"] = _worst(statuses)
    return out


def cmd_rota(spec: ProblemSpec, args) -> Dict[str, Any]:
    tol = _task_tol(spec, args, 1e-8)
    D = _task_degree(spec, args)
    phi = CPMapTuple(spec.symbols, spec.ops)
    cert, T = _rota(phi, spec.m, spec.constraints, tol)
    out: Dict[str, Any] = {"rota": sanitize(cert)}
    statuses = [cert.status]
    embed = _embed(phi, spec.m, _default_R(spec, args), spec.constraints, D, tol)
    out["model_embed"] = sanitize(embed)
    statuses.append(embed.status)
    out["T"] = [[matrix_to_json(A) for A in row] for row in T.rows]
    out["status"] = _worst(statuses)
    return out


def cmd_solve(spec: ProblemSpec, args) -> Dict[str, Any]:
    tol = _task_tol(spec, args, 1e-8)
    sol = solve_defect_equation(spec.symbols, spec.m, spec.ops, _default_R(spec, args), tol=tol)
    return {
        "status": "PASS" if sol.ok else "FAILED",
        "X": matrix_to_json(sol.X),
        "defect_residual": sol.defect_residual,
        "oracle_rel_gap": sol.oracle_rel_gap,
        "invertible": sol.invertible,
        "membership": sanitize(sol.membership_report),
        "tail_bound": sol.series.tail_bound,
    }


def cmd_sznagy(spec: ProblemSpec, args) -> Dict[str, Any]:
    tol = _task_tol(spec, args, 1e-7)
    cert, T = sznagy_solve(spec.symbols, spec.ops, tol=tol)
    out = {"status": cert.status, "certificate": sanitize(cert)}
    if T is not None:
        out["T"] = [[matrix_to_json(A) for A in row] for row in T.rows]
    return out


def cmd_vn(spec: ProblemSpec, args) -> Dict[str, Any]:
    tol = _task_tol(spec, args, 1e-8)
    mode = spec.task.get("mode", "model")
    if mode == "polydisc":
        pm_obj = spec.task.get("poly_matrix")
        if pm_obj is None:
            raise ValueError("polydisc mode needs task.poly_matrix")
        poly_matrix = [[poly_from_json(cell) for cell in row] for row in pm_obj]
        rep = vn_check_polydisc(spec.ops, poly_matrix, tol=tol)
    elif mode == "model":
        terms_obj = spec.task.get("terms")
        if terms_obj is None:
            raise ValueError("model mode needs task.terms")
        terms = [
            (
                matrix_from_json(t["coeff"]),
                [tuple(w) for w in t["alpha"]],
                [tuple(w) for w in t["beta"]],
            )
            for t in terms_obj
        ]
        D_obj = spec.task.get("D_pos")
        D_pos = matrix_from_json(D_obj) if D_obj else np.eye(spec.ops.dim)
        D = _task_degree(spec, args)
        rep = vn_check_model(
            spec.symbols, spec.m, spec.ops, D_pos, terms,
            spec.constraints, degree_cap=D, tol=tol,
        )
    else:
        raise ValueError(f"unknown vn mode {mode!r}; expected model or polydisc")
    return {"status": rep.verdict, "report": sanitize(rep), "mode": mode}


def cmd_cpsim(spec: ProblemSpec, args) -> Dict[str, Any]:
    tol = _task_tol(spec, args, 1e-7)
    D = _task_degree(spec, args)
    mode = spec.task.get("mode", "strict")
    # from_kraus builds polyball maps, so any other symbol would be certified as one
    for i, f in enumerate(spec.symbols, start=1):
        if {w: a for w, a in f.coeffs.items() if a != 0} != polyball_symbol(f.arity).coeffs:
            raise ValueError(
                f"cpsim maps each Kraus row through Z_1 + ... + Z_n, but the symbol of factor {i} "
                "is not that polyball symbol"
            )
    phi = CPMapTuple.from_kraus([list(row) for row in spec.ops.rows])
    R_obj = spec.task.get("R")
    R = matrix_from_json(R_obj) if R_obj else None
    cert = cpmap_similarity(phi, spec.m, mode, R=R, degree_cap=D, tol=tol)
    return {"status": cert.status, "certificate": sanitize(cert), "mode": mode}


def _instance_to_spec(inst: Instance) -> ProblemSpec:
    constraints = ()
    if inst.family in ("commuting_polynomials", "nilpotent"):
        cons = []
        for i, n in enumerate(inst.ops.arities, start=1):
            for j1 in range(1, n + 1):
                for j2 in range(j1 + 1, n + 1):
                    cons.append(commutator_polynomial(i, j1, j2))
        constraints = tuple(cons)
    task = {"family": inst.family, "seed": inst.seed}
    task.update({k: v for k, v in inst.params.items() if v is not None})
    return ProblemSpec(
        symbols=inst.symbols, m=inst.m, ops=inst.ops,
        constraints=constraints, task=task,
    )


def cmd_gen(args) -> Dict[str, Any]:
    kwargs: Dict[str, Any] = {}
    if args.dim is not None:
        kwargs["dim"] = args.dim
    if args.k is not None:
        kwargs["k"] = args.k
    if args.arities is not None:
        kwargs["arities"] = tuple(int(x) for x in args.arities.split(","))
    if args.m is not None:
        kwargs["m"] = tuple(int(x) for x in args.m.split(","))
    if args.target_radius is not None:
        if args.family not in ("commuting_polynomials", "polyball_random"):
            raise ValueError(f"{args.family} has no --target-radius")
        kwargs["target_radius"] = args.target_radius
    if args.family == "conjugated_unitaries":
        kwargs.pop("arities", None)
        kwargs.pop("m", None)
    if args.family == "polyball_random":
        if kwargs.pop("k", 1) != 1:
            raise ValueError("polyball_random has one factor; --k must be 1")
        if "arities" in kwargs:
            kwargs["n"] = int(kwargs.pop("arities")[0])
        if "m" in kwargs:
            kwargs["m"] = int(kwargs["m"][0])
    inst = generate(args.family, args.seed, **kwargs)
    # a family that fixes arities or m must not drop the flags silently
    for flag, got in (("arities", inst.ops.arities), ("m", inst.m)):
        asked = getattr(args, flag)
        if asked is not None and tuple(int(x) for x in asked.split(",")) != tuple(got):
            raise ValueError(f"{args.family} writes --{flag} {','.join(map(str, got))}, "
                             f"not {asked}")
    return problem_to_json(_instance_to_spec(inst))


_COMMANDS = {
    "radius": cmd_radius,
    "cone": cmd_cone,
    "model": cmd_model,
    "kernel": cmd_kernel,
    "rota": cmd_rota,
    "solve": cmd_solve,
    "sznagy": cmd_sznagy,
    "vn": cmd_vn,
    "cpsim": cmd_cpsim,
}


def _emit(payload: Dict[str, Any], output: Optional[str]) -> None:
    text = canonical_json(sanitize(payload)) + "\n"
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: parsing reads it and
    leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="polydom",
        description="certified numerics for commuting operator tuples: radii, "
        "cones, truncated models, kernels, and similarity solvers",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--input", required=True, help="problem spec JSON path")
        p.add_argument("--output", help="report path (default stdout)")
        p.add_argument("--trunc-degree", type=int, dest="trunc_degree")
        p.add_argument("--tol", type=float)
    g = sub.add_parser("gen", help="generate a seeded problem spec")
    g.add_argument("--family", required=True, choices=FAMILIES)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--target-radius", type=float, dest="target_radius",
                   help="commuting_polynomials and polyball_random only (default 0.8)")
    g.add_argument("--dim", type=int)
    g.add_argument("--k", type=int)
    g.add_argument("--arities", type=str, help="comma separated, e.g. 2,1")
    g.add_argument("--m", type=str, help="comma separated, e.g. 1,1 (default: 1 per factor)")
    g.add_argument("--output")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)

    t0 = time.perf_counter()
    if args.command == "gen":
        try:
            payload = cmd_gen(args)
        except Exception as e:  # noqa: BLE001 - CLI boundary
            sys.stderr.write(f"error: {e}\n")
            return 1
        _emit(payload, args.output)
        return 0

    try:
        # cpsim's Kraus families need commute only as maps, which from_kraus checks
        spec, raw = load_problem(args.input, check_commutation=args.command != "cpsim")
        # canonical JSON refuses a non-finite number anywhere in the spec
        inputs_digest = digest(raw)
        outputs = _COMMANDS[args.command](spec, args)
    except Exception as e:  # noqa: BLE001 - CLI boundary
        sys.stderr.write(f"error: {e}\n")
        return 1
    status = outputs.get("status", "PASS")
    import scipy  # for its version only, so a cold import of the CLI does not load it
    report = {
        "task": args.command,
        "inputs_digest": inputs_digest,
        "outputs": outputs,
        "tolerances": default_tolerances().as_dict(),
        "versions": {
            "polydom": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "wall_time": time.perf_counter() - t0,
    }
    _emit(report, args.output)
    return _EXIT.get(status, 1)


if __name__ == "__main__":
    sys.exit(main())
