"""Seeded inputs and item schedules for the three benchmark workloads.

Every workload is a closed loop with one client: the items of a pass run one
after another, each starting when the previous one has returned. An item is
one timed call into polydom (a library function or an in-process
``polydom.cli.main``); its output is collected right after the call and
checked later, outside the timed section (see ``checks.py``).

Inputs depend only on the workload seed. The program receives only the
generated inputs: library items get matrices and symbols, CLI items get spec
files written under the run's work directory.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

import checks

WORKLOADS = ("dense_series", "fock_model", "small_batch")

# dense_series: matrix sizes, the commuting instances and the items per size.
DENSE_DIMS = (8, 16, 24)
DENSE_COMMUTING = {  # name -> (target radius, m)
    "c80": (0.8, (1, 1)),
    "c95": (0.95, (3, 1)),
    "c99": (0.99, (1, 1)),
}
# Items per size, as (instance, instance index, operation). A run of 30 s
# makes four passes of DENSE_ITEMS (26 calls each); the first pass also makes
# the DENSE_ONCE calls, whose cost swings threefold with the seed (a
# radius-0.99 series takes 2 000 to 18 000 terms), so that they count once
# per run rather than once per pass. On the shared machine this was tuned on,
# calls on d=16 and d=24 matrices and cold interpreter starts run up to 1.5
# times slower for spells of seconds to a minute, and calls at d=8 less so;
# sorted by cost the calls fall into groups, and each latency metric
# lands inside a group spread over the run:
#   the median: 18 calls a pass at d=8 (0.005-0.05 s, every operation); the
#     median of the 108 samples of a run is about the 55th of these 72;
#   radius equivalences at d=16 (0.1-0.2 s: eigenvalues and the orbit
#     Phi^s(I));
#   the tail: the series, Rota and defect-equation calls and the Cesaro solve
#     at d=16 (0.3-0.6 s: the decay certificate, one eigensolve, the dense
#     oracle); cert_tail_s, the 11th-largest of 108 samples (p90), is the
#     third-largest of these 16;
#   above the tail: the series at d=24 (3-4 s) and the DENSE_ONCE calls.
# The radius-0.99 series calls run at d=16 only: at d=8 they are apply-bound
# and their cost swings fivefold with the seed, at d=24 they take 4-7 s.
# d=32 (about 10 s per call) is left out.
_SERIES_OPS = ("weighted_series", "rota_conjugate", "solve_defect_equation")
_RADIUS = "spectral_radius_equivalences"
DENSE_ITEMS = {
    8: tuple((n, j, op) for j in range(2) for n, ops in (
        ("c80", _SERIES_OPS + (_RADIUS,)),
        ("c95", ("weighted_series", "solve_defect_equation", _RADIUS)),
        ("c99", (_RADIUS,))) for op in ops)
    + (("nil", 0, "weighted_series"), ("cu", 0, "sznagy_solve")),
    16: tuple((n, 0, _RADIUS) for n in DENSE_COMMUTING)
    + tuple(("c80", 0, op) for op in _SERIES_OPS) + (("cu", 0, "sznagy_solve"),),
    24: (("c80", 0, "weighted_series"),),
}
DENSE_ONCE = {
    16: tuple(("c99", 0, op) for op in _SERIES_OPS),
    24: (("c99", 0, _RADIUS),),
}
DENSE_PASS_S = 7.0  # nominal seconds of one pass

# fock_model: d=4 specs, 41 calls a pass. Sorted by cost:
#   the median: `model`, `kernel` and `rota` at D=4 on six nilpotent specs
#     and `model` at D=4 on six commuting ones (0.05-0.15 s);
#   the tail: the same calls at D=5 on three specs of each family (0.35-0.6
#     s, about the same on every spec: variety subspace and compression);
#     cert_tail_s is the 11th-largest of 41 samples (p75), in the middle of
#     these twelve;
#   above the tail: `kernel` and `rota` at D=5 on one commuting spec (0.5-2 s:
#     the kernel tail bound's apply loop, whose length depends on the
#     instance), `model` and `kernel` at the default D=6, and vn (model mode)
#     at D=4, which builds models up to D=6 (4-6 s each).
# `rota` at D=6 (another 4-6 s) is left out to keep a pass near 30 s; at D=6
# it spends its time in the same variety subspace as `model` and `kernel`.
# `kernel` and `rota` on commuting specs run once: their cost swings fourfold
# with the instance, so more of them would move the tail with the seed.
FOCK_DIM = 4
FOCK_SPECS = {4: 6, 5: 3}  # trunc degree -> specs per family
FOCK_D6 = (("commuting_polynomials", "model"), ("nilpotent", "kernel"))
FOCK_VN_FAMILY = "nilpotent"
FOCK_PASS_S = 30.0

# small_batch: every command plus gen at d = 3, 4, 5.
SMALL_DIMS = (3, 4, 5)
SMALL_PASS_S = 3.75

# Cold `python -m polydom.cli` runs per workload, made one at a time, spread
# evenly between the items of all passes; their time is mostly interpreter
# start and import, which on a shared machine swings by half from one run to
# the next, so cli_cold_p50_s takes the median of many.
N_COLD = 15


@dataclass
class Item:
    """One timed call. ``run`` is timed; ``prepare`` and ``collect`` are not.

    ``collect(result)`` turns the raw return value into what the checker
    reads (for CLI items: exit code, stderr and the report text).
    ``check(output)`` returns (summary, reasons); an empty reasons list means
    the output passed. The summary is compared across traced and untraced
    passes, so it must hold only deterministic values.
    """

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], Tuple[Dict[str, Any], List[str]]]
    prepare: Optional[Callable[[], None]] = None
    collect: Callable[[Any], Any] = lambda r: r
    key: str = ""  # distinguishes inputs that change from pass to pass


@dataclass
class Workload:
    items: List[Item]
    cold: List[List[str]]  # argv tails for `python -m polydom.cli`
    pass_s: float  # nominal seconds of one pass
    record: Dict[str, Any] = field(default_factory=dict)
    # items of pass p >= 1 when they differ from `items` (pass 0)
    later_pass: Optional[Callable[[int], List[Item]]] = None

    def passes(self, seconds: float) -> int:
        """Passes in a run of `seconds`: fixed by the nominal pass time, so
        that every run of a workload has the same samples."""
        return max(1, round(seconds / self.pass_s))

    def items_for(self, pass_no: int) -> List[Item]:
        if pass_no == 0 or self.later_pass is None:
            return self.items
        return self.later_pass(pass_no)


# --- shared helpers ------------------------------------------------------------


def _gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _poly_of(M: np.ndarray, coeffs: Sequence[complex]) -> np.ndarray:
    out = np.zeros_like(M)
    P = np.eye(M.shape[0], dtype=np.complex128)
    for t, c in enumerate(coeffs):
        if t:
            P = P @ M
        out += c * P
    return out


def run_cli(argv: Sequence[str]) -> Tuple[int, str]:
    """In-process ``polydom.cli.main``; returns (exit code, stderr text)."""
    from polydom import cli

    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, err.getvalue()


def _read_and_remove(path: str) -> Optional[str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        return None
    os.remove(path)
    return text


def _cli_item(kind: str, argv: List[str], out_path: str,
              check: Callable[[Any], Tuple[Dict[str, Any], List[str]]],
              prepare: Optional[Callable[[], None]] = None) -> Item:
    full = argv + ["--output", out_path]

    def collect(result):
        if isinstance(result, BaseException):
            return result
        code, err = result
        return checks.CliOutput(code=code, stderr=err, text=_read_and_remove(out_path))

    return Item(kind=kind, run=lambda: run_cli(full), check=check,
                prepare=prepare, collect=collect)


# --- dense_series ---------------------------------------------------------------


def commuting_rows(seed: int, d: int, j: int) -> Tuple[tuple, List[List[np.ndarray]], List[float]]:
    """Rows p_{i,j}(M) in one seeded matrix M, arities (2, 1), and r_i(1).

    For polyball symbols the tuple radius is linear in the row scale, so a
    row scaled by target / r_i(1) has radius target exactly; one
    joint_spectral_radius call per factor replaces the generator's bisection.
    """
    from polydom.cpmap import CPMapTuple, OperatorTuple
    from polydom.words import polyball_symbol

    rng = np.random.default_rng([seed, d, j])
    M = _gaussian(rng, (d, d)) / np.sqrt(d)
    rows = [[_poly_of(M, _gaussian(rng, 3)) for _ in range(n)] for n in (2, 1)]
    symbols = tuple(polyball_symbol(n) for n in (2, 1))
    phi = CPMapTuple(symbols, OperatorTuple(rows, check_commutation=False), validate=False)
    r1 = [phi.joint_spectral_radius(i, crosscheck=False) for i in (1, 2)]
    return symbols, rows, r1


@dataclass
class DenseInstance:
    name: str
    d: int
    symbols: tuple
    m: Tuple[int, ...]
    rows: List[List[np.ndarray]]
    radii: Tuple[float, ...]  # what the builder achieved, by the linear scaling


def build_dense_inputs(seed: int) -> Dict[Tuple[str, int, int], DenseInstance]:
    """The instances DENSE_ITEMS and DENSE_ONCE name, keyed (name, d, instance index)."""
    from polydom.generate import conjugated_unitaries, nilpotent

    out: Dict[Tuple[str, int, int], DenseInstance] = {}
    for d in DENSE_DIMS:
        named = DENSE_ITEMS[d] + DENSE_ONCE.get(d, ())
        for j in sorted({j for name, j, _ in named if name in DENSE_COMMUTING}):
            symbols, rows, r1 = commuting_rows(seed, d, j)
            for name, (target, m) in DENSE_COMMUTING.items():
                scaled = [[(target / r) * A for A in row] for row, r in zip(rows, r1)]
                radii = tuple(r * (target / r) for r in r1)
                out[(name, d, j)] = DenseInstance(name, d, symbols, m, scaled, radii)
        nil = nilpotent(seed * 1000 + d, dim=d)
        out[("nil", d, 0)] = DenseInstance("nil", d, nil.symbols, nil.m,
                                           [list(r) for r in nil.ops.rows], (0.0, 0.0))
        cu = conjugated_unitaries(seed * 1000 + d, dim=d)
        out[("cu", d, 0)] = DenseInstance("cu", d, cu.symbols, cu.m,
                                          [list(r) for r in cu.ops.rows], (1.0, 1.0))
    return out


def _dense_call(inst: DenseInstance, op: str) -> Callable[[], Any]:
    """A call on fresh objects: the tuple (and its word cache) is rebuilt."""
    from polydom import similarity
    from polydom.cpmap import CPMapTuple, OperatorTuple

    eye = np.eye(inst.d, dtype=np.complex128)

    def call():
        ops = OperatorTuple(inst.rows)
        if op == "weighted_series":
            return CPMapTuple(inst.symbols, ops).weighted_series(inst.m, eye)
        if op == "rota_conjugate":
            return similarity.rota_conjugate(inst.symbols, inst.m, ops)
        if op == "solve_defect_equation":
            return similarity.solve_defect_equation(inst.symbols, inst.m, ops, eye)
        if op == "spectral_radius_equivalences":
            return similarity.spectral_radius_equivalences(inst.symbols, ops)
        if op == "sznagy_solve":
            return similarity.sznagy_solve(inst.symbols, ops)
        raise ValueError(op)

    return call


def dense_items(inputs: Dict[Tuple[str, int, int], DenseInstance],
                schedule: Dict[int, tuple]) -> List[Item]:
    # Spread each group (size, radius call or not) evenly over the pass, so
    # that any stretch of it samples every group.
    groups: Dict[Tuple[int, bool], List[Tuple[str, int, str, int]]] = {}
    for d in DENSE_DIMS:
        for name, j, op in schedule.get(d, ()):
            groups.setdefault((d, op == _RADIUS), []).append((name, j, op, d))
    placed = sorted(((i + 0.5) / len(g), k, entry) for k, g in enumerate(groups.values())
                    for i, entry in enumerate(g))
    items: List[Item] = []
    for _, _, (name, j, op, d) in placed:
        inst = inputs[(name, d, j)]
        items.append(Item(kind=f"{op}/{name}/d{d}/{j}", run=_dense_call(inst, op),
                          check=checks.dense_checker(op, inst)))
    return items


def build_dense(seed: int, workdir: str) -> Workload:
    from polydom.cpmap import OperatorTuple
    from polydom.jsonio import ProblemSpec, canonical_json, problem_to_json

    inputs = build_dense_inputs(seed)
    small = inputs[("c80", DENSE_DIMS[0], 0)]
    spec = ProblemSpec(symbols=small.symbols, m=small.m, ops=OperatorTuple(small.rows))
    path = os.path.join(workdir, "dense_c80_d8.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(problem_to_json(spec)))
    record = {
        "radii": {f"{n}/d{d}/{j}": list(inst.radii)
                  for (n, d, j), inst in sorted(inputs.items())},
    }
    every = dense_items(inputs, DENSE_ITEMS)
    # the first pass ends with the DENSE_ONCE calls, so later passes, a
    # prefix of it, keep each item's index
    return Workload(every + dense_items(inputs, DENSE_ONCE),
                    cold=[["radius", "--input", path]] * N_COLD,
                    record=record, later_pass=lambda _: every, pass_s=DENSE_PASS_S)


# --- fock_model -----------------------------------------------------------------


def _gen(workdir: str, family: str, seed: int, dim: int, *extra: str) -> str:
    path = os.path.join(workdir, f"{family}-{seed}-{dim}{''.join(extra)}.json")
    code, err = run_cli(["gen", "--family", family, "--seed", str(seed),
                         "--dim", str(dim), "--output", path, *extra])
    if code != 0:
        raise RuntimeError(f"gen {family} seed {seed} failed: {err.strip()}")
    return path


def _sha(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


def _vn_model_spec(path: str) -> str:
    from polydom.jsonio import matrix_to_json

    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    obj["task"]["mode"] = "model"
    obj["task"]["terms"] = [
        {"coeff": matrix_to_json(np.eye(2)), "alpha": [[1], []], "beta": [[], []]},
        {"coeff": matrix_to_json(0.3 * np.eye(2)), "alpha": [[], [1]], "beta": [[], []]},
    ]
    out = path[:-5] + "-vn.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return out


def build_fock(seed: int, workdir: str) -> Workload:
    specs = {family: [_gen(workdir, family, seed * 100 + s, FOCK_DIM)
                      for s in range(max(FOCK_SPECS.values()))]
             for family in ("commuting_polynomials", "nilpotent")}

    def cli(cmd, family, s, D):
        return (f"{cmd}/{family}/D{D}",
                [cmd, "--input", specs[family][s], "--trunc-degree", str(D)])

    heavy = [cli(cmd, family, 0, 6) for family, cmd in FOCK_D6]
    heavy += [cli(cmd, "commuting_polynomials", 0, 5) for cmd in ("kernel", "rota")]
    heavy.append((f"vn/{FOCK_VN_FAMILY}/D4",
                  ["vn", "--input", _vn_model_spec(specs[FOCK_VN_FAMILY][0]),
                   "--trunc-degree", "4"]))
    light = {D: [cli(cmd, family, s, D) for s in range(n)
                 for family, cmd in (("nilpotent", "model"), ("nilpotent", "kernel"),
                                     ("nilpotent", "rota"), ("commuting_polynomials", "model"))]
             for D, n in FOCK_SPECS.items()}
    # Each heavy item is followed by its share of the others, two D=4 calls
    # to one D=5 call, so that every group samples the machine over the pass.
    rest = [item for t, d5 in enumerate(light[5]) for item in (*light[4][2 * t:2 * t + 2], d5)]
    order = []
    for h, item in enumerate(heavy):
        order.append(item)
        order += rest[h * len(rest) // len(heavy):(h + 1) * len(rest) // len(heavy)]
    items = [_cli_item(kind, argv, os.path.join(workdir, f"out-{n}.json"),
                       checks.cli_checker(argv[0]))
             for n, (kind, argv) in enumerate(order)]
    cold = [["radius", "--input", specs["nilpotent"][0]]] * N_COLD
    return Workload(items, cold=cold,
                    record={"spec_sha256": {k: [_sha(p) for p in v] for k, v in specs.items()}},
                    pass_s=FOCK_PASS_S)


# --- small_batch ----------------------------------------------------------------

# Spec variants generated per size: (label, family, extra gen flags).
_K3 = ("--arities", "1,1,1", "--m", "1,1,1")
SMALL_SPECS = (
    ("cp", "commuting_polynomials", ()),
    ("nil", "nilpotent", ()),
    ("pb", "polyball_random", ()),
    ("cu", "conjugated_unitaries", ()),
    ("cp3", "commuting_polynomials", _K3 + ("--target-radius", "0.6")),
)
# Commands per spec variant. kernel and rota run on the nilpotent family:
# on commuting instances their kernel tail bound sums a series at radius
# 0.995 whose cost swings tenfold with the instance, which put the tail
# percentile of this workload at the mercy of the seed; fock_model keeps one
# such pair. vn runs in polydisc mode on three commuting contractions with
# a 2x2 polynomial matrix (one SVD per torus grid point). These are the
# slowest items; at three per pass the eight passes of a 30 s run hold 24
# of them, and cert_tail_s, the 11th-largest sample, falls among them.
SMALL_COMMANDS = {
    "cp": ("radius", "cone", "model", "solve", "sznagy", "cpsim"),
    "nil": ("radius", "cone", "model", "kernel", "rota", "solve"),
    "pb": ("radius", "cone", "solve", "cpsim"),
    "cu": ("radius", "cone", "sznagy"),
    "cp3": ("vn",),
}
FOCK_COMMANDS = ("model", "kernel", "rota")


def _small_trunc(d: int) -> str:
    return "4" if d <= 4 else "3"


def _set_task(src: str, dst: str, task: Dict[str, Any]) -> Callable[[], None]:
    def prepare():
        with open(src, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        obj["task"].update(task)
        with open(dst, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
    return prepare


def _polydisc_task() -> Dict[str, Any]:
    from polydom.jsonio import poly_to_json
    from polydom.words import NCPolynomial

    z1, z2, z3 = ((1, 1),), ((2, 1),), ((3, 1),)
    rows = [
        [NCPolynomial(((1.0, z1),)), NCPolynomial(((0.5, z2 + z3),))],
        [NCPolynomial(((0.3, z1 + z2),)), NCPolynomial(((1.0, ()), (0.2, z3)))],
    ]
    return {"mode": "polydisc", "poly_matrix": [[poly_to_json(q) for q in r] for r in rows]}


def small_items(seed: int, workdir: str, pass_no: int) -> List[Item]:
    """Each pass generates fresh specs, so a run averages over more instances:
    the kernel tail bound and the Rota conjugation cost up to tenfold more on
    some commuting instances than on others."""
    items: List[Item] = []
    n = 0

    def out_path() -> str:
        nonlocal n
        n += 1
        return os.path.join(workdir, f"out-{n}.json")

    polydisc = _polydisc_task()
    for d in SMALL_DIMS:
        for idx, (label, family, extra) in enumerate(SMALL_SPECS):
            gseed = ((seed * 1000 + pass_no) * 10 + d) * 10 + idx
            spec = os.path.join(workdir, f"{label}-d{d}.json")
            argv = ["gen", "--family", family, "--seed", str(gseed), "--dim", str(d),
                    *extra, "--output", spec]

            def collect(result, spec=spec):
                if isinstance(result, BaseException):
                    return result
                code, err = result
                with open(spec, "r", encoding="utf-8") as fh:
                    text = fh.read()
                return checks.CliOutput(code=code, stderr=err, text=text)

            items.append(Item(kind=f"gen/{label}/d{d}",
                              run=lambda argv=argv: run_cli(argv),
                              check=checks.gen_checker(family, d), collect=collect,
                              key=str(gseed)))
            for cmd in SMALL_COMMANDS[label]:
                argv_c = [cmd, "--input", spec]
                prepare = None
                if cmd == "vn":
                    argv_c[2] = spec[:-5] + "-vn.json"
                    prepare = _set_task(spec, argv_c[2], polydisc)
                elif cmd == "cpsim":
                    argv_c[2] = spec[:-5] + "-cpsim.json"
                    prepare = _set_task(spec, argv_c[2], {"mode": "strict"})
                if cmd in FOCK_COMMANDS:
                    argv_c += ["--trunc-degree", _small_trunc(d)]
                item = _cli_item(f"{cmd}/{label}/d{d}", argv_c, out_path(),
                                 checks.small_checker(cmd, label), prepare)
                item.key = str(gseed)
                items.append(item)
    return items


def build_small(seed: int, workdir: str) -> Workload:
    cold_spec = os.path.join(workdir, "cold-cp-d3.json")
    gen = ["gen", "--family", "commuting_polynomials", "--seed", str(seed), "--dim", "3",
           "--output", cold_spec]
    commands = [[cmd, "--input", cold_spec] for cmd in ("radius", "cone", "solve", "sznagy")]
    cold = [gen] + (commands * N_COLD)[:N_COLD - 1]
    return Workload(small_items(seed, workdir, 0), cold=cold,
                    later_pass=lambda p: small_items(seed, workdir, p), pass_s=SMALL_PASS_S)


BUILDERS = {
    "dense_series": build_dense,
    "fock_model": build_fock,
    "small_batch": build_small,
}
