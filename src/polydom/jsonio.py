"""Canonical JSON for problem specs and reports.

Floats are rendered with 17 significant digits (lossless for doubles) and
object keys are sorted, so identical data always produces identical bytes;
reports are diffable and digests are stable across runs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from math import isfinite
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from .cpmap import OperatorTuple
from .words import NCPolynomial, PositiveSymbol, Word


def _render(obj: Any, out: List[str]) -> None:
    # exact types first: a report is almost all plain floats, strings, dicts
    # and lists; subclasses and numpy scalars take the isinstance chain
    t = type(obj)
    if t is float:
        _render_float(obj, out)
    elif t is str:
        out.append(encode_basestring_ascii(obj))
    elif t is dict:
        _render_dict(obj, out)
    elif t is list or t is tuple:
        _render_list(obj, out)
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        _render_float(float(obj), out)
    elif isinstance(obj, dict):
        _render_dict(obj, out)
    elif isinstance(obj, (list, tuple)):
        _render_list(obj, out)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _render_float(x: float, out: List[str]) -> None:
    if not isfinite(x):
        raise ValueError(f"non-finite float {x!r} cannot be serialized")
    out.append(format(x, ".17g"))


def _render_dict(obj: dict, out: List[str]) -> None:
    out.append("{")
    keys = sorted(obj.keys())
    for idx, key in enumerate(keys):
        if not isinstance(key, str):
            raise TypeError(f"object keys must be strings, got {key!r}")
        if idx:
            out.append(",")
        out.append(encode_basestring_ascii(key))
        out.append(":")
        _render(obj[key], out)
    out.append("}")


def _render_list(obj: Sequence[Any], out: List[str]) -> None:
    out.append("[")
    for idx, item in enumerate(obj):
        if idx:
            out.append(",")
        _render(item, out)
    out.append("]")


def canonical_json(obj: Any) -> str:
    out: List[str] = []
    _render(obj, out)
    return "".join(out)


def digest(obj: Any) -> str:
    return hashlib.sha256(canonical_json(obj).encode("ascii")).hexdigest()


# --- codecs --------------------------------------------------------------------


def matrix_to_json(M: np.ndarray) -> Dict[str, Any]:
    M = np.asarray(M, dtype=np.complex128)
    return {
        "shape": [int(M.shape[0]), int(M.shape[1])],
        "data": np.ascontiguousarray(M).view(np.float64).reshape(-1, 2).tolist(),
    }


def matrix_from_json(obj: Dict[str, Any]) -> np.ndarray:
    r, c = obj["shape"]
    flat = np.array([complex(re, im) for re, im in obj["data"]], dtype=np.complex128)
    if flat.size != r * c:
        raise ValueError(f"matrix payload has {flat.size} entries for shape {r}x{c}")
    return flat.reshape(r, c)


def symbol_to_json(f: PositiveSymbol, m: int) -> Dict[str, Any]:
    return {
        "arity": f.arity,
        "max_degree": f.max_degree,
        "m": int(m),
        "coeffs": [
            {"word": list(w.letters), "a": float(a)}
            for w, a in sorted(f.coeffs.items(), key=lambda kv: (len(kv[0]), kv[0]))
        ],
    }


def _int(value: Any, what: str) -> int:
    """value, when it is a JSON integer; ValueError naming what otherwise (a
    float such as 1.7 is not truncated, and true is not 1)."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be int, got {type(value).__name__}")
    return value


def symbol_from_json(obj: Dict[str, Any]) -> Tuple[PositiveSymbol, int]:
    coeffs = {Word(tuple(_int(x, "word letter") for x in t["word"])): float(t["a"])
              for t in obj["coeffs"]}
    f = PositiveSymbol(
        arity=_int(obj["arity"], "symbol field 'arity'"),
        coeffs=coeffs,
        max_degree=_int(obj["max_degree"], "symbol field 'max_degree'"),
    )
    m = _int(obj["m"], "symbol field 'm'")
    if m < 1:
        raise ValueError(f"symbol field 'm' must be >= 1, got {m}")
    return f, m


def poly_to_json(q: NCPolynomial) -> List[Dict[str, Any]]:
    return [
        {
            "coeff": [float(np.real(c)), float(np.imag(c))],
            "monomial": [[int(i), int(j)] for i, j in mono],
        }
        for c, mono in q.terms
    ]


def poly_from_json(obj: Sequence[Dict[str, Any]]) -> NCPolynomial:
    terms = tuple(
        (
            complex(t["coeff"][0], t["coeff"][1]),
            tuple((_int(i, "monomial index"), _int(j, "monomial index")) for i, j in t["monomial"]),
        )
        for t in obj
    )
    return NCPolynomial(terms=terms)


@dataclass
class ProblemSpec:
    symbols: Tuple[PositiveSymbol, ...]
    m: Tuple[int, ...]
    ops: OperatorTuple
    constraints: Tuple[NCPolynomial, ...] = ()
    task: Dict[str, Any] = field(default_factory=dict)

    @property
    def k(self) -> int:
        return len(self.symbols)


def problem_to_json(spec: ProblemSpec) -> Dict[str, Any]:
    if len(spec.m) != spec.k:
        raise ValueError(f"{len(spec.m)} entries in m for {spec.k} symbols")
    return {
        "k": spec.k,
        "arities": list(spec.ops.arities),
        "dim": spec.ops.dim,
        "symbols": [
            symbol_to_json(f, mi) for f, mi in zip(spec.symbols, spec.m)
        ],
        "operators": [
            [matrix_to_json(A) for A in row] for row in spec.ops.rows
        ],
        "constraints": [poly_to_json(q) for q in spec.constraints],
        "task": spec.task,
    }


# top-level spec fields and their JSON types; constraints and task may be left out
_SPEC_FIELDS = {"k": int, "arities": list, "dim": int, "symbols": list,
                "operators": list, "constraints": list, "task": dict}


def _field(obj: Dict[str, Any], name: str, parse=lambda v: v):
    """parse(obj[name]); ValueError naming the field when it is missing, of the
    wrong JSON type, or malformed inside."""
    kind = _SPEC_FIELDS[name]
    if name not in obj and name not in ("constraints", "task"):
        raise ValueError(f"spec field {name!r} is missing")
    value = obj.get(name, kind())
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"spec field {name!r} must be {kind.__name__}, got {type(value).__name__}")
    try:
        return parse(value)
    except (KeyError, TypeError, IndexError, AttributeError, ValueError) as e:
        raise ValueError(f"spec field {name!r} is malformed ({type(e).__name__}: {e})") from e


def problem_from_json(obj: Dict[str, Any], check_commutation: bool = True) -> ProblemSpec:
    if not isinstance(obj, dict):
        raise ValueError(f"a problem spec is a JSON object, got {type(obj).__name__}")
    pairs = _field(obj, "symbols", lambda v: [symbol_from_json(s) for s in v])
    symbols = tuple(f for f, _ in pairs)
    if len(symbols) != _field(obj, "k"):
        raise ValueError(f"k = {obj['k']} but {len(symbols)} symbols given")
    rows = _field(obj, "operators", lambda v: [[matrix_from_json(a) for a in row] for row in v])
    ops = OperatorTuple(rows, check_commutation=check_commutation)
    if list(ops.arities) != _field(obj, "arities", lambda v: [_int(n, "arity") for n in v]):
        raise ValueError(
            f"arities field {obj['arities']} disagrees with operator rows {ops.arities}"
        )
    if ops.dim != _field(obj, "dim"):
        raise ValueError(f"dim field {obj['dim']} disagrees with matrices ({ops.dim})")
    for f, row in zip(symbols, ops.rows):
        if f.arity != len(row):
            raise ValueError("symbol arity disagrees with its operator row")
    return ProblemSpec(
        symbols=symbols,
        m=tuple(mi for _, mi in pairs),
        ops=ops,
        constraints=_field(obj, "constraints", lambda v: tuple(poly_from_json(q) for q in v)),
        task=_field(obj, "task", dict),
    )


def load_problem(path: str) -> Tuple[ProblemSpec, Dict[str, Any]]:
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    return problem_from_json(raw), raw


def sanitize(obj: Any) -> Any:
    """Recursive conversion of numpy scalars/arrays, complex numbers, and
    dataclass payloads into plain JSON-ready structures."""
    t = type(obj)
    if t is float:
        return obj if isfinite(obj) else repr(obj)
    if t is str or t is int:
        return obj
    if t is dict:
        return {str(k): sanitize(v) for k, v in obj.items()}
    if t is list or t is tuple:
        return [sanitize(v) for v in obj]
    if obj is None or isinstance(obj, (bool, str, int)):
        return obj
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return x if isfinite(x) else repr(x)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, complex):
        return [sanitize(obj.real), sanitize(obj.imag)]
    if isinstance(obj, np.ndarray):
        if obj.ndim == 2:
            return matrix_to_json(obj)
        return [sanitize(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize(v) for v in obj]
    if hasattr(obj, "__dataclass_fields__"):
        return {
            name: sanitize(getattr(obj, name)) for name in obj.__dataclass_fields__
        }
    raise TypeError(f"cannot sanitize {type(obj).__name__}")
