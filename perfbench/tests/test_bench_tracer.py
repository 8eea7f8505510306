"""Span self times and the coverage of the wrappers."""

import sys

import numpy as np
import pytest

import polydom
import tracer as tr
from workloads import run_cli


class FakeClock:
    def __init__(self, ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def test_self_time_of_nested_spans():
    # cli.main [0, 10] > berezin.kernel [1, 7] > cpmap.weighted_series [2, 5]
    t = tr.Tracer(clock=FakeClock([0.0, 1.0, 2.0, 5.0, 7.0, 10.0]))
    with t.span("cli.main", item=0):
        with t.span("berezin.kernel"):
            with t.span("cpmap.weighted_series"):
                pass
    m = t.metrics()
    assert m["cpmap.weighted_series.self_s"] == pytest.approx(3.0)
    assert m["berezin.kernel.self_s"] == pytest.approx(3.0)
    assert m["cli.main.self_s"] == pytest.approx(4.0)
    assert m["cpmap.self_s"] + m["berezin.self_s"] + m["cli.self_s"] == pytest.approx(10.0)


def test_self_time_merges_overlapping_children():
    assert tr.self_time(0.0, 10.0, [(1.0, 4.0), (3.0, 6.0), (8.0, 12.0)]) == pytest.approx(3.0)
    assert tr.self_time(0.0, 1.0, []) == pytest.approx(1.0)


def _originals():
    out = {}
    for layer, name, path in tr.TARGETS:
        owner = sys.modules[f"polydom.{layer}"]
        for part in path.split("."):
            owner = getattr(owner, part)
        out[f"{layer}.{name}"] = owner
    return out


def test_every_listed_function_is_wrapped_everywhere():
    originals = _originals()
    assert len(originals) == 35
    by_id = {id(fn): name for name, fn in originals.items()}
    t = tr.Tracer()
    with t.installed():
        for name, fn in originals.items():
            layer, short = name.split(".")
            path = dict(((l, n), p) for l, n, p in tr.TARGETS)[(layer, short)]
            owner = sys.modules[f"polydom.{layer}"]
            for part in path.split("."):
                owner = getattr(owner, part)
            assert owner is t.wrapped[name], name
        for modname, mod in sys.modules.items():
            if mod is None or not (modname == "polydom" or modname.startswith("polydom.")):
                continue
            for attr, value in vars(mod).items():
                assert id(value) not in by_id, f"{modname}.{attr} still unwrapped"
        from polydom import similarity

        assert similarity.berezin_kernel is t.wrapped["berezin.kernel"]
    assert _originals() == originals
    from polydom import similarity

    assert similarity.berezin_kernel is polydom.berezin.kernel


def test_real_call_nests_and_adds_up(tmp_path):
    spec = tmp_path / "cp.json"
    assert run_cli(["gen", "--family", "commuting_polynomials", "--seed", "2", "--dim", "3",
                    "--output", str(spec)])[0] == 0
    t = tr.Tracer()
    with t.installed():
        with t.span("bench.item", item=0):
            code, _ = run_cli(["kernel", "--input", str(spec), "--trunc-degree", "3",
                               "--output", str(tmp_path / "out.json")])
    assert code == 0
    spans = {s[0]: s for s in t.spans}

    def chain(span):
        out = []
        sid = span[1]
        while sid >= 0:
            out.append(spans[sid][2])
            sid = spans[sid][1]
        return out

    chains = [chain(s) for s in t.spans if s[2] == "cpmap.weighted_series"]
    # weighted_series inside kernel (its tail bound) inside cli.main
    assert ["berezin.kernel", "cli.main", "bench.item"] in [c[-3:] for c in chains]
    m = t.metrics()
    root = [s for s in t.spans if s[1] < 0][0]
    total = sum(m[f"{layer}.self_s"] for layer in (*tr.LAYERS, tr.BENCH_LAYER))
    assert total == pytest.approx(root[4] - root[3], rel=1e-9)
    assert m["cli.main.calls"] == 1
    assert m["fock.build_model.fock_dim"] > 0
    assert 0 < m["fock.build_model.unique_ratio"] < 1  # cmd_kernel rebuilds one model


def test_escaping_errors_are_counted_per_layer():
    from polydom.config import DivergenceError
    from polydom.cpmap import CPMapTuple, OperatorTuple
    from polydom.words import polyball_symbol

    ops = OperatorTuple([[np.eye(2, dtype=complex)]])
    t = tr.Tracer()
    with t.installed():
        with pytest.raises(DivergenceError):
            CPMapTuple([polyball_symbol(1)], ops).weighted_series((1,), np.eye(2))
    m = t.metrics()
    assert m["cpmap.errors"] == 1
    assert m["config.errors"] == 1
