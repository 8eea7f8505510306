"""Theorem-consistency sweep over every similarity entry point.

Runs, in-process, the radius/decay report, purity of the identity,
rota_conjugate, sznagy_solve, the three cpmap_similarity modes and
similarity_to_variety on seeded `gen` specs: the four families (commuting
and polyball at target radius 0.8, 0.99 and 1.02) with their commutator
constraints, plus the scaled unitary 1.2 U at each dimension. It checks the
implications the paper gives:

- settled (every factor radius at most 1 - radius_margin): the radius report
  is consistent and decays, I is pure, rota, cpsim strict and cpsim
  pure_cone pass, sznagy fails, and the variety similarity passes;
- above one (some factor's radius enclosure lies above one): no PASS from
  rota, sznagy or any cpsim mode, and the variety similarity fails;
- sznagy (sznagy PASS): every factor's radius enclosure contains one, and
  the variety similarity passes;
- nilpotent (the nilpotent family): every identity orbit is zero by s = d
  and every radius is 0.

For each implication it prints the number of specs checked and every
violation. The last line is a sha256 digest over (spec, entry point, status
or exception type), notes excluded, so two versions of the library
can be compared in one command each. Exits 1 on any violation.

Usage:
    python scripts/theorem_sweep.py --seeds 4 --dims 3,4,5
"""

import argparse
import hashlib
import json
import sys

import numpy as np

from polydom.config import DivergenceError, ResourceCapError
from polydom.cone import is_pure_element
from polydom.cpmap import CPMapTuple, OperatorTuple
from polydom.generate import FAMILIES, generate
from polydom.similarity import (
    cpmap_similarity,
    rota_conjugate,
    similarity_to_variety,
    spectral_radius_equivalences,
    sznagy_solve,
)
from polydom.words import commutator_polynomial, polyball_symbol

RADII = (0.8, 0.99, 1.02)
MODES = ("strict", "pure_cone", "unital")
TYPED = (ValueError, ArithmeticError, DivergenceError, ResourceCapError)


def specs(seeds, dims):
    """(name, symbols, m, ops, constraints) for every swept spec."""
    for family in FAMILIES:
        radii = RADII if family in ("commuting_polynomials", "polyball_random") else (None,)
        for r in radii:
            for seed in range(seeds):
                for d in dims:
                    kw = {"dim": d} if r is None else {"dim": d, "target_radius": r}
                    inst = generate(family, seed, **kw)
                    cons = ()
                    if family in ("commuting_polynomials", "nilpotent"):
                        cons = tuple(
                            commutator_polynomial(i, a, b)
                            for i, n in enumerate(inst.ops.arities, start=1)
                            for a in range(1, n + 1) for b in range(a + 1, n + 1)
                        )
                    name = f"{family}{'' if r is None else f'/r={r}'}/seed={seed}/d={d}"
                    yield name, family, inst.symbols, inst.m, inst.ops, cons
    for d in dims:
        rng = np.random.default_rng(40)
        U, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        yield f"scaled_unitary/1.2/d={d}", "scaled_unitary", (polyball_symbol(1),), (1,), \
            OperatorTuple([[1.2 * U]]), ()


def status(call):
    """A certificate's status, or the name of a typed exception."""
    try:
        out = call()
    except TYPED as e:
        return type(e).__name__
    return (out[0] if isinstance(out, tuple) else out).status


def run_spec(symbols, m, ops, cons):
    """Entry-point outcomes plus the radius facts the implications read."""
    phi = CPMapTuple(symbols, ops)
    kraus = CPMapTuple.from_kraus([list(row) for row in ops.rows])
    radius = spectral_radius_equivalences(symbols, ops)
    out = {
        "radius": "consistent" if radius.all_consistent else "inconsistent",
        "purity": "pure" if is_pure_element(CPMapTuple(symbols, ops), np.eye(ops.dim)).pure
        else "not pure",
        "rota": status(lambda: rota_conjugate(symbols, m, ops, cons)),
        "sznagy": status(lambda: sznagy_solve(symbols, ops)),
        "variety": status(lambda: similarity_to_variety(symbols, m, ops, cons)),
    }
    for mode in MODES:
        out[f"cpsim_{mode}"] = status(lambda: cpmap_similarity(kraus, m, mode, degree_cap=4))
    facts = {
        # the gate of every series: radius at most 1 - radius_margin
        "settled": all(phi._settled(i) for i in range(1, phi.k + 1)),
        "enclosures": [phi.radius_power_sequence(i) for i in range(1, phi.k + 1)],
        "radius": radius,
    }
    return out, facts


def violations(family, d, out, facts):
    """{implication: [violated clauses]} for the implications whose premise holds."""
    found = {}
    if facts["settled"]:
        found["settled"] = [clause for clause, ok in (
            ("radius consistent and decaying",
             all(f.consistent and f.decays_to_zero for f in facts["radius"].factors)),
            ("I pure", out["purity"] == "pure"),
            ("rota PASS", out["rota"] == "PASS"),
            ("cpsim strict PASS", out["cpsim_strict"] == "PASS"),
            ("cpsim pure_cone PASS", out["cpsim_pure_cone"] == "PASS"),
            ("sznagy FAILED", out["sznagy"] == "FAILED"),
            ("variety PASS", out["variety"] == "PASS"),
        ) if not ok]
    if any(lower > 1.0 for lower, _ in facts["enclosures"]):
        found["above one"] = [clause for clause, ok in (
            ("rota not PASS", out["rota"] != "PASS"),
            ("sznagy not PASS", out["sznagy"] != "PASS"),
            *((f"cpsim {mode} not PASS", out[f"cpsim_{mode}"] != "PASS") for mode in MODES),
            ("variety FAILED", out["variety"] == "FAILED"),
        ) if not ok]
    if out["sznagy"] == "PASS":
        found["sznagy"] = [clause for clause, ok in (
            ("enclosures contain 1",
             all(lower <= 1.0 <= upper for lower, upper in facts["enclosures"])),
            ("variety PASS", out["variety"] == "PASS"),
        ) if not ok]
    if family == "nilpotent":
        found["nilpotent"] = [clause for clause, ok in (
            ("zero orbit by s = d", all(0.0 in f.decay[:d] for f in facts["radius"].factors)),
            ("radius 0", all(f.radius == 0.0 for f in facts["radius"].factors)),
        ) if not ok]
    return found


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=4, help="seeds 0..N-1 per family")
    parser.add_argument("--dims", type=str, default="3,4,5", help="comma separated, e.g. 3,4,5")
    args = parser.parse_args(argv)
    dims = tuple(int(x) for x in args.dims.split(","))

    checked = {"settled": 0, "above one": 0, "sznagy": 0, "nilpotent": 0}
    bad = {key: [] for key in checked}
    digest = hashlib.sha256()
    for name, family, symbols, m, ops, cons in specs(args.seeds, dims):
        out, facts = run_spec(symbols, m, ops, cons)
        for entry, value in out.items():
            digest.update(json.dumps([name, entry, value]).encode() + b"\n")
        for implication, clauses in violations(family, ops.dim, out, facts).items():
            checked[implication] += 1
            bad[implication] += [f"{name}: {clause}" for clause in clauses]
    for implication, n in checked.items():
        print(f"{implication}: {n} specs checked, {len(bad[implication])} violations")
        for line in bad[implication]:
            print(f"  VIOLATION {line}")
    print(f"digest {digest.hexdigest()}")
    return 1 if any(bad.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
