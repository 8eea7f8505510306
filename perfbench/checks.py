"""Output checker: every item's output against reference statuses and invariants.

Runs after the timed section. Each check returns ``(summary, reasons)``:
``summary`` holds deterministic values only (scalars as ``repr`` strings,
arrays as SHA-256 digests) so traced and untraced passes can be compared
exactly; ``reasons`` lists every mismatch, and an empty list means the item
passed. Reference statuses come from the mathematics, not from recorded
outputs: radius-below-one tuples must certify, the von Neumann inequality
must never come out FAILED, and strict contractions are not similar to
unitaries.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

Check = Callable[[Any], Tuple[Dict[str, Any], List[str]]]

# Relative slack on top of a certified tail bound, for the roundoff of the
# truncated sum and of the dense reference solve.
SERIES_TOL = 1e-8
RADIUS_TOL = 1e-6

# Failures present at the baseline. They are counted in `failed` and printed
# like any other failure; a failure matching none of these marks the run as
# not correct. Each entry: (regex on the item kind, regex on the reason,
# where the defect is tracked). The reason patterns match only the observed
# signature of each defect, so any other failure of the same items still
# counts as new.
_GEOM = "ROADMAP item 2: _geom_cert accepts theta >= 1 when the first squared norm is >= 1"
_RADIUS_ONE = ("not in ROADMAP yet: on power-bounded radius-1 tuples (conjugated "
               "unitaries) the radius power-sequence cross-check stops early, and a "
               "radius of 1 - 1e-16 counts as below one in the equivalence report")
_DECAY_WINDOW = ("not in ROADMAP yet: at radius 0.99 the decay test of "
                 "spectral_radius_equivalences reads ||Phi^s(I)|| at s = 33 and 64 "
                 "only, so an orbit that still oscillates there reads as not decaying")
_NAGY_Q = ("not in ROADMAP yet: when the doubled Cesaro means plateau, sznagy_solve's "
           "joint Euler refinement can return a fixed point Q with a negative "
           "eigenvalue, and the envelope check then reports FAILED on a tuple "
           "similar to unitaries")
_RADIUS_STOP = ("not in ROADMAP yet: radius_power_sequence stops when ||Phi^s(I)|| "
                "underflows past 1e-250, before the Gelfand estimate of a non-normal "
                "radius-0.8 tuple has come within the 2% cross-check of the exact radius")
_NAGY_NOTES = (r"doubled means plateaued at the squaring noise floor \(residuals [^;]*\); "
               r"joint Euler refinement reached relative gap [^;]*; "
               r"eigenvalue spread of Q \(-\d[^;]*$")
KNOWN_DEFECTS = (
    (r"^rota_conjugate/c99/",
     r"^rota_conjugate raised UnboundLocalError: .*'tail'",
     "ROADMAP item 5: _factor_norm_sum leaves `tail` unbound when its budget runs out"),
    (r"^(weighted_series|solve_defect_equation)/c99/",
     r"^(weighted_series|solve_defect_equation): series certified with a negative "
     r"tail_bound -", _GEOM),
    (r"^solve_defect_equation/c99/",
     r"^solve_defect_equation\.ok is False after a series certified with a negative "
     r"tail_bound -", _GEOM),
    (r"^spectral_radius_equivalences/c99/",
     r"^spectral_radius_equivalences: radius and decay of Phi\^s\(I\) disagree; "
     r"inconsistent: (factor \d+ radius 0\.(989{9,}\d*|99|990{9,}\d*) decays False "
     r"\(norms [^()]*\)(; |$))+$", _DECAY_WINDOW),
    (r"^sznagy_solve/cu/",
     r"^sznagy_solve status FAILED: " + _NAGY_NOTES, _NAGY_Q),
    (r"^sznagy/cu/",
     r"^cli sznagy: status FAILED, expected PASS; notes: " + _NAGY_NOTES, _NAGY_Q),
    (r"^radius/cu/",
     r"^cli radius exit 1: error: radius crosscheck failed for factor \d+: "
     r"eig-based 1\.00000000 vs power-sequence \d", _RADIUS_ONE),
    (r"^(radius/cp/|cold/radius$)",
     r"^cli radius exit 1: error: radius crosscheck failed for factor \d+: "
     r"eig-based 0\.80000000 vs power-sequence 0\.8\d*$", _RADIUS_STOP),
    (r"^radius/cu/",
     r"^cli radius: status FAILED, expected PASS; inconsistent: "
     r"(factor \d+ radius 0\.9{12}\d* decays False(; |$))+$", _RADIUS_ONE),
)


def known_defect(kind: str, reason: str) -> Optional[str]:
    for kind_re, reason_re, where in KNOWN_DEFECTS:
        if re.search(kind_re, kind) and re.search(reason_re, reason):
            return where
    return None


@dataclass
class CliOutput:
    code: int
    stderr: str
    text: Optional[str]


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(np.asarray(a, dtype=np.complex128))
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def _error(exc: BaseException, what: str) -> Tuple[Dict[str, Any], List[str]]:
    name = type(exc).__name__
    return {"error": f"{name}: {exc}"}, [f"{what} raised {name}: {exc}"]


# --- dense_series: library calls -----------------------------------------------


def dense_reference(symbols, m, rows, R: np.ndarray) -> np.ndarray:
    """Solves Delta^m(X) = R through an independently built matricization."""
    d = R.shape[0]
    d2 = d * d
    eye_d = np.eye(d, dtype=np.complex128)
    L = np.eye(d2, dtype=np.complex128)
    for f, row, mi in zip(symbols, rows, m):
        M = np.zeros((d2, d2), dtype=np.complex128)
        for w, a in f.coeffs.items():
            Aw = eye_d
            for j in w:
                Aw = Aw @ row[j - 1]
            M += float(a) * np.kron(Aw, Aw.conj())
        F = np.eye(d2, dtype=np.complex128) - M
        for _ in range(mi):
            L = F @ L
    return np.linalg.solve(L, R.reshape(-1)).reshape(d, d)


def series_reasons(series, X_ref: np.ndarray, what: str) -> List[str]:
    """Certified must imply tail_bound >= 0 and distance <= tail + tolerance."""
    if not series.certified:
        return [f"{what}: series not certified (tail_bound {series.tail_bound!r})"]
    tb = float(series.tail_bound)
    dist = float(np.linalg.norm(series.value - X_ref))
    if not np.isfinite(tb):
        return [f"{what}: series certified with tail_bound {tb!r}"]
    if tb < 0.0:
        return [f"{what}: series certified with a negative tail_bound {tb:.3e} "
                f"(distance {dist:.3e} to the dense solve)"]
    allowed = tb + SERIES_TOL * max(1.0, float(np.linalg.norm(X_ref)))
    if not dist <= allowed:
        return [f"{what}: distance {dist:.3e} to the dense solve exceeds tail_bound "
                f"{tb:.3e} + tolerance"]
    return []


def dense_checker(op: str, inst) -> Check:
    ref: Dict[str, np.ndarray] = {}

    def reference() -> np.ndarray:
        if "X" not in ref:
            ref["X"] = dense_reference(inst.symbols, inst.m, inst.rows,
                                       np.eye(inst.d, dtype=np.complex128))
        return ref["X"]

    def check(out):
        if isinstance(out, BaseException):
            return _error(out, op)
        if op == "weighted_series":
            summary = {"terms": list(out.terms), "tail": repr(out.tail_bound),
                       "certified": out.certified, "value": digest(out.value),
                       "radii": [repr(r) for r in out.radii]}
            reasons = series_reasons(out, reference(), op)
            for r, want in zip(out.radii, inst.radii):
                if abs(r - want) > RADIUS_TOL * max(1.0, want):
                    reasons.append(f"{op}: radius {r:.9f}, builder achieved {want:.9f}")
            return summary, reasons
        if op == "rota_conjugate":
            cert, T = out
            summary = {"status": cert.status, "cond": repr(cert.cond),
                       "bound": repr(cert.claimed_bound),
                       "T": digest(*[A for row in T.rows for A in row])}
            reasons = []
            if cert.status != "PASS":
                reasons.append(f"{op} status {cert.status}: {'; '.join(cert.notes)}")
            if not cert.cond <= cert.claimed_bound * (1.0 + 1e-8):
                reasons.append(f"{op}: cond {cert.cond:.6e} above bound {cert.claimed_bound:.6e}")
            return summary, reasons
        if op == "solve_defect_equation":
            summary = {"ok": out.ok, "X": digest(out.X),
                       "residual": repr(out.defect_residual),
                       "gap": repr(out.oracle_rel_gap)}
            reasons = []
            if not out.ok:
                tb = float(out.series.tail_bound)
                cause = (f" after a series certified with a negative tail_bound {tb:.3e}"
                         if out.series.certified and tb < 0.0 else "")
                reasons.append(
                    f"solve_defect_equation.ok is False{cause} (residual "
                    f"{out.defect_residual:.3e}, oracle gap {out.oracle_rel_gap:.3e})"
                )
            reasons += series_reasons(out.series, reference(), op)
            return summary, reasons
        if op == "spectral_radius_equivalences":
            radii = [f.radius for f in out.factors]
            summary = {"consistent": out.all_consistent,
                       "radii": [repr(r) for r in radii]}
            reasons = []
            if not out.all_consistent:
                bad = [f"factor {f.factor} radius {f.radius!r} decays {f.decays_to_zero} "
                       f"(norms {f.decay[len(f.decay) // 2]:.3e} at s={len(f.decay) // 2 + 1}, "
                       f"{f.decay[-1]:.3e} at s={len(f.decay)})"
                       for f in out.factors if not f.consistent]
                reasons.append(f"{op}: radius and decay of Phi^s(I) disagree; "
                               f"inconsistent: {'; '.join(bad)}")
            for r, want in zip(radii, inst.radii):
                if abs(r - want) > RADIUS_TOL * max(1.0, want):
                    reasons.append(f"{op}: radius {r:.9f}, builder achieved {want:.9f}")
            return summary, reasons
        if op == "sznagy_solve":
            cert, T = out
            summary = {"status": cert.status,
                       "T": None if T is None else digest(*[A for r in T.rows for A in r])}
            reasons = []
            if cert.status != "PASS" or T is None:
                reasons.append(f"{op} status {cert.status}: {'; '.join(cert.notes)}")
            return summary, reasons
        raise ValueError(op)

    return check


# --- CLI items ------------------------------------------------------------------

_EXIT = {"PASS": 0, "INCONCLUSIVE": 2, "FAILED": 1}


def _report(out, cmd: str, expected: Tuple[str, ...]):
    """Parses a CLI report; returns (report or None, summary, reasons)."""
    if isinstance(out, BaseException):
        summary, reasons = _error(out, f"cli {cmd}")
        return None, summary, reasons
    if out.text is None:
        msg = out.stderr.strip() or "no report"
        return None, {"code": out.code, "error": msg}, [f"cli {cmd} exit {out.code}: {msg}"]
    rep = json.loads(out.text)
    body = dict(rep)
    body.pop("wall_time", None)
    summary = {"code": out.code,
               "report": hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()[:16]}
    reasons = []
    status = rep.get("outputs", {}).get("status")
    if rep.get("task") != cmd:
        reasons.append(f"cli {cmd}: report task is {rep.get('task')!r}")
    if status not in expected:
        reasons.append(f"cli {cmd}: status {status}, expected {'/'.join(expected)}"
                       + _status_detail(cmd, rep.get("outputs", {})))
    if out.code != _EXIT.get(status, 1):
        reasons.append(f"cli {cmd}: exit code {out.code} does not match status {status}")
    return rep, summary, reasons


def _status_detail(cmd: str, outputs: Dict[str, Any]) -> str:
    """For `radius`: which factors disagree, with their radius and decay;
    for `sznagy`: the certificate's notes."""
    if cmd == "sznagy":
        return "; notes: " + "; ".join(outputs.get("certificate", {}).get("notes", []))
    if cmd != "radius":
        return ""
    bad = [f"factor {f['factor']} radius {f['radius']!r} decays {f['decays_to_zero']}"
           for f in outputs.get("equivalences", {}).get("factors", [])
           if not f["consistent"]]
    return "; inconsistent: " + "; ".join(bad)


def _is_number(x) -> bool:
    # canonical reports carry non-finite floats as strings
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _invariants(cmd: str, outputs: Dict[str, Any]) -> List[str]:
    reasons = []
    if cmd == "model":
        if not outputs["domain_check"]["ok"]:
            reasons.append("model: domain check failed")
        var = outputs.get("variety")
        if var is not None and not var["dim_N"] > 0:
            reasons.append("model: empty variety subspace")
    elif cmd == "kernel":
        tb = outputs["tail_bound"]
        if outputs["certified"] and not (_is_number(tb) and tb >= 0.0):
            reasons.append(f"kernel: certified with tail_bound {tb!r}")
    elif cmd == "rota":
        for part in ("rota", "model_embed"):
            if outputs[part]["status"] != "PASS":
                reasons.append(f"rota: {part} status {outputs[part]['status']}")
    elif cmd == "solve":
        if not outputs["oracle_rel_gap"] <= 1e-6:
            reasons.append(f"solve: oracle gap {outputs['oracle_rel_gap']!r}")
    return reasons


def cli_checker(cmd: str, expected: Tuple[str, ...] = ("PASS",)) -> Check:
    if cmd == "vn":
        # the inequality holds in theory; the check may only fail to settle it
        expected = ("PASS", "INCONCLUSIVE")

    def check(out):
        rep, summary, reasons = _report(out, cmd, expected)
        if rep is not None:
            reasons += _invariants(cmd, rep["outputs"])
        return summary, reasons

    return check


def small_checker(cmd: str, label: str) -> Check:
    # strict contractions have no similarity to commuting unitaries
    if cmd == "sznagy" and label != "cu":
        return cli_checker(cmd, ("FAILED",))
    return cli_checker(cmd)


def gen_checker(family: str, d: int) -> Check:
    def check(out):
        from polydom.jsonio import problem_from_json

        if isinstance(out, BaseException):
            return _error(out, "cli gen")
        if out.code != 0 or out.text is None:
            return ({"code": out.code},
                    [f"cli gen exit {out.code}: {out.stderr.strip()}"])
        obj = json.loads(out.text)
        summary = {"spec": hashlib.sha256(out.text.encode()).hexdigest()[:16]}
        reasons = []
        spec = problem_from_json(obj)
        if spec.ops.dim != d or spec.task.get("family") != family:
            reasons.append(f"gen: got {spec.task.get('family')} at d={spec.ops.dim}")
        target = spec.task.get("target_radius")
        for r in spec.task.get("radii", []):
            if target is not None and not r <= target * (1.0 + 1e-9):
                reasons.append(f"gen: radius {r!r} above target {target!r}")
        return summary, reasons

    return check


def cold_checker(argv) -> Check:
    """Cold subprocess runs: exit code and status (report on stdout)."""
    cmd = argv[0]

    def check(out):
        if cmd == "gen":
            return ({"code": out.code},
                    [] if out.code == 0 else [f"cold gen exit {out.code}: {out.stderr.strip()}"])
        expected = ("FAILED",) if cmd == "sznagy" else ("PASS",)
        _, summary, reasons = _report(out, cmd, expected)
        return summary, reasons

    return check
