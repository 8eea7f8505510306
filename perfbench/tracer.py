"""Outside-in layer tracing: wraps polydom's public functions and times each call.

The wrappers are installed by object identity: every ``polydom.*`` module
attribute that *is* a listed function is replaced, whatever name it goes by
(``similarity`` imports ``berezin.kernel`` as ``berezin_kernel``). Methods
are patched on their classes, so every instance sees the wrapper. ``remove``
puts the originals back.

Each call becomes a span (name, start, end, parent, item id) kept in memory
and written out as JSON lines at the end of the run. A span's self time is
its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

LAYERS = ("words", "cpmap", "cone", "fock", "berezin", "similarity", "generate",
          "jsonio", "cli")
# The benchmark's own code inside an item (building fresh objects, redirecting
# stderr) is attributed to this pseudo-layer, so layer self times add up to the
# traced wall time.
BENCH_LAYER = "bench"

# (layer, metric name, attribute path inside polydom.<layer>)
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("words", "weight_table", "weight_table"),
    ("words", "enumerate_words", "enumerate_words"),
    ("cpmap", "OperatorTuple", "OperatorTuple.__init__"),
    ("cpmap", "apply", "CPMapTuple.apply"),
    ("cpmap", "matricize", "CPMapTuple.matricize"),
    ("cpmap", "defect", "CPMapTuple.defect"),
    ("cpmap", "defect_grid", "CPMapTuple.defect_grid"),
    ("cpmap", "weighted_series", "CPMapTuple.weighted_series"),
    ("cpmap", "joint_spectral_radius", "CPMapTuple.joint_spectral_radius"),
    ("cpmap", "radius_power_sequence", "CPMapTuple.radius_power_sequence"),
    ("cone", "membership", "membership"),
    ("cone", "is_pure_element", "is_pure_element"),
    ("cone", "reconstruct", "reconstruct"),
    ("cone", "flat_equivalence", "flat_equivalence"),
    ("fock", "build_model", "build_model"),
    ("fock", "variety_subspace", "variety_subspace"),
    ("fock", "compress", "compress"),
    ("fock", "domain_check_model", "domain_check_model"),
    ("berezin", "kernel", "kernel"),
    ("berezin", "constrained_kernel", "constrained_kernel"),
    ("berezin", "intertwine_check", "intertwine_check"),
    ("berezin", "intertwine_check_constrained", "intertwine_check_constrained"),
    ("berezin", "transform", "transform"),
    ("berezin", "vn_check_model", "vn_check_model"),
    ("berezin", "vn_check_polydisc", "vn_check_polydisc"),
    ("similarity", "model_embed", "model_embed"),
    ("similarity", "rota_conjugate", "rota_conjugate"),
    ("similarity", "solve_defect_equation", "solve_defect_equation"),
    ("similarity", "sznagy_solve", "sznagy_solve"),
    ("similarity", "cpmap_similarity", "cpmap_similarity"),
    ("similarity", "spectral_radius_equivalences", "spectral_radius_equivalences"),
    ("generate", "generate", "generate"),
    ("jsonio", "load_problem", "load_problem"),
    ("jsonio", "canonical_json", "canonical_json"),
    ("cli", "main", "main"),
)

UNIQUE_RATIOS = ("cpmap.matricize", "cpmap.joint_spectral_radius",
                 "fock.build_model", "fock.variety_subspace")


def _symbol_key(f) -> tuple:
    return (f.arity, tuple(sorted((tuple(w), float(a)) for w, a in f.coeffs.items())))


def _rows_key(rows: Iterable) -> str:
    h = hashlib.sha1()
    for A in rows:
        h.update(A.tobytes())
    return h.hexdigest()


def _factor_key(phi, i: int) -> tuple:
    return (_symbol_key(phi.symbols[i - 1]), _rows_key(phi.ops.rows[i - 1]))


def _model_key(symbols, m, degree_cap, exact) -> tuple:
    return (tuple(_symbol_key(f) for f in symbols), tuple(int(x) for x in m),
            int(degree_cap), bool(exact))


def self_time(start: float, end: float, children: Sequence[Tuple[float, float]]) -> float:
    """Duration minus the part of [start, end] covered by the child intervals."""
    covered = 0.0
    cur_s = cur_e = None
    for s, e in sorted((max(s, start), min(e, end)) for s, e in children):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                covered += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        covered += cur_e - cur_s
    return (end - start) - covered


class Tracer:
    """Installs the wrappers, records spans and counters, aggregates self time."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        # span: [id, parent, name, start, end, item, error]
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._next_id = 0
        self.item: Optional[int] = None
        self.counters: Counter = Counter()
        self.calls: Counter = Counter()
        self.unique: Dict[str, set] = defaultdict(set)
        self.errors: Counter = Counter()
        self.wrapped: Dict[str, Callable] = {}
        self._patches: List[Tuple[Any, str, Any]] = []

    # --- spans ----------------------------------------------------------------

    def _open(self) -> Tuple[int, int, float]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent, self.clock()

    def _close(self, sid: int, parent: int, name: str, start: float, error: bool) -> None:
        end = self.clock()
        self._stack.pop()
        self.spans.append([sid, parent, name, start, end, self.item, error])

    @contextmanager
    def span(self, name: str, item: Optional[int] = None):
        """A span opened by the benchmark itself (one per item)."""
        if item is not None:
            self.item = item
        sid, parent, start = self._open()
        error = False
        try:
            yield
        except BaseException:
            error = True
            raise
        finally:
            self._close(sid, parent, name, start, error)

    # --- wrapping -------------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        full = f"{layer}.{name}"
        before, after = self._hooks(full, fn)
        config_errors = self._config_error_types()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            self.calls[full] += 1
            sid, parent, start = self._open()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(sid, parent, full, start, True)
                self.errors[layer] += 1
                if isinstance(exc, config_errors) and not getattr(exc, "_perfbench_seen", False):
                    exc._perfbench_seen = True
                    self.errors["config"] += 1
                raise
            self._close(sid, parent, full, start, False)
            if after is not None:
                after(result)
            return result

        wrapper.__perfbench_original__ = fn
        return wrapper

    @staticmethod
    def _config_error_types() -> tuple:
        from polydom import config

        return tuple(v for v in vars(config).values()
                     if isinstance(v, type) and issubclass(v, BaseException)
                     and v.__module__ == config.__name__)

    def _hooks(self, full: str, fn: Callable):
        """Counters taken around a call, outside its span."""
        sig = inspect.signature(fn)

        def bound(args, kwargs):
            b = sig.bind(*args, **kwargs)
            b.apply_defaults()
            return b.arguments

        if full == "cpmap.matricize":
            def before(args, kwargs):
                a = bound(args, kwargs)
                phi, i = a["self"], a["i"]
                self.unique[full].add(_factor_key(phi, i))
                if i not in getattr(phi, "_matricized", {}):
                    self.counters["cpmap.matricize.bytes"] += 16 * phi.dim ** 4
            return before, None
        if full == "cpmap.joint_spectral_radius":
            def before(args, kwargs):
                a = bound(args, kwargs)
                self.unique[full].add(_factor_key(a["self"], a["i"]))
            return before, None
        if full == "cpmap.weighted_series":
            def after(result):
                self.counters["cpmap.weighted_series.terms"] += sum(result.terms)
            return None, after
        if full == "fock.build_model":
            def before(args, kwargs):
                a = bound(args, kwargs)
                self.unique[full].add(_model_key(a["symbols"], a["m"], a["degree_cap"],
                                                 a["exact_weights"]))

            def after(result):
                self.counters["fock.build_model.fock_dim"] += result[0].dim
            return before, after
        if full == "fock.variety_subspace":
            def before(args, kwargs):
                a = bound(args, kwargs)
                fock = a["model"].fock
                polys = tuple(q.terms for q in a["Q_polys"])
                self.unique[full].add((_model_key(fock.symbols, fock.m, fock.degree_cap, False),
                                       polys, a["dense_cap"]))
            return before, None
        return None, None

    def install(self) -> None:
        import polydom  # noqa: F401 - loads every submodule

        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "polydom" or n.startswith("polydom."))]
        by_identity: Dict[int, Callable] = {}
        for layer, name, path in TARGETS:
            owner = sys.modules[f"polydom.{layer}"]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(layer, name, original)
            self.wrapped[f"{layer}.{name}"] = wrapper
            if cls_path:
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
            else:
                by_identity[id(original)] = wrapper
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = by_identity.get(id(value))
                if wrapper is not None and wrapper.__perfbench_original__ is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.remove()

    # --- aggregation ----------------------------------------------------------

    def self_times(self) -> Dict[int, float]:
        children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for sid, parent, _, start, end, _, _ in self.spans:
            if parent >= 0:
                children[parent].append((start, end))
        return {s[0]: self_time(s[3], s[4], children.get(s[0], ())) for s in self.spans}

    def metrics(self) -> Dict[str, float]:
        """Per-function calls and self time, per-layer self time and errors."""
        selfs = self.self_times()
        by_name: Dict[str, float] = defaultdict(float)
        for s in self.spans:
            by_name[s[2]] += selfs[s[0]]
        out: Dict[str, float] = {}
        for layer, name, _ in TARGETS:
            full = f"{layer}.{name}"
            out[f"{full}.calls"] = float(self.calls[full])
            out[f"{full}.self_s"] = by_name.get(full, 0.0)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(v for k, v in by_name.items()
                                         if k.split(".")[0] == layer)
            out[f"{layer}.errors"] = float(self.errors[layer])
        out["config.errors"] = float(self.errors["config"])
        out[f"{BENCH_LAYER}.self_s"] = sum(v for k, v in by_name.items()
                                           if k.split(".")[0] == BENCH_LAYER)
        for key in ("cpmap.weighted_series.terms", "cpmap.matricize.bytes",
                    "fock.build_model.fock_dim"):
            out[key] = float(self.counters[key])
        for full in UNIQUE_RATIOS:
            calls = self.calls[full]
            out[f"{full}.unique_ratio"] = len(self.unique[full]) / calls if calls else 0.0
        return out

    def by_item(self) -> Dict[int, Dict[str, float]]:
        """Self time per item and span name, for the attribution table."""
        selfs = self.self_times()
        out: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for s in self.spans:
            out[s[5]][s[2]] += selfs[s[0]]
        return out

    def write_jsonl(self, path: str) -> None:
        t0 = min((s[3] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, item, error in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start - t0, "end": end - t0,
                                     "item": item, "error": error}) + "\n")
