"""The model cache behind build_model, variety_subspace and compress: keys,
identity of hits, read-only results, uncached errors, the LRU bound, and
reports that do not depend on whether the cache was warm."""

import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import polydom
from polydom import fock
from polydom.cli import main
from polydom.config import ResourceCapError, default_tolerances
from polydom.fock import ModelOperators, build_model, compress, variety_subspace
from polydom.jsonio import matrix_to_json
from polydom.words import NCPolynomial, PositiveSymbol, commutator_polynomial, polyball_symbol

SYMBOLS = (polyball_symbol(2), polyball_symbol(1))
M = (1, 1)
D = 3
Q = (commutator_polynomial(1, 1, 2),)


@pytest.fixture(autouse=True)
def cold_cache():
    fock.clear_cache()
    yield
    fock.clear_cache()


def test_equal_inputs_get_the_same_object():
    built = build_model(SYMBOLS, M, D)
    assert build_model(list(SYMBOLS), [1, 1], D, tol=default_tolerances()) is built
    assert build_model((polyball_symbol(2), polyball_symbol(1)), M, D) is built
    model = built[1]
    sub = variety_subspace(model, Q)
    assert variety_subspace(model, [commutator_polynomial(1, 1, 2)]) is sub
    comp = compress(model, sub)
    assert compress(model, sub) is comp


@pytest.mark.parametrize("change", [
    {"symbols": (PositiveSymbol(2, {(1,): 1, (2,): 0.5}, 1), polyball_symbol(1))},
    # the same value with another type: exact weights keep an int exactly
    {"symbols": (PositiveSymbol(2, {(1,): 1.0, (2,): 1.0}, 1), polyball_symbol(1))},
    {"m": (2, 1)},
    {"degree_cap": D + 1},
    {"tol": replace(default_tolerances(), svd_cutoff=1e-11)},
    {"exact_weights": True},
])
def test_a_changed_model_input_gets_a_new_model(change):
    args = {"symbols": SYMBOLS, "m": M, "degree_cap": D}
    built = build_model(**args)
    other = build_model(**{**args, **change})
    assert other is not built and other[1] is not built[1]
    assert build_model(**{**args, **change}) is other
    assert build_model(**args) is built


@pytest.mark.parametrize("change", [
    {"Q_polys": (NCPolynomial(((2.0, ((1, 1), (1, 2))), (-2.0, ((1, 2), (1, 1))))),)},
    {"Q_polys": ()},
    {"dense_cap": 4095},
])
def test_a_changed_constraint_or_cap_gets_a_new_subspace(change):
    model = build_model(SYMBOLS, M, D)[1]
    sub = variety_subspace(model, Q)
    other = variety_subspace(model, **{"Q_polys": Q, **change})
    assert other is not sub
    assert variety_subspace(model, **{"Q_polys": Q, **change}) is other
    assert compress(model, other) is not compress(model, sub)


def test_models_and_subspaces_from_outside_the_cache_are_never_served():
    model = build_model(SYMBOLS, M, D)[1]
    stored = len(fock._cache)
    outside = ModelOperators(model.fock, model.tol)
    sub = variety_subspace(outside, Q)
    assert variety_subspace(outside, Q) is not sub
    assert compress(outside, sub) is not compress(outside, sub)
    # a subspace of the cache with a model from outside is not served either
    cached = variety_subspace(model, Q)
    assert compress(outside, cached) is not compress(outside, cached)
    assert len(fock._cache) == stored + 1


def _shared_arrays(model, sub, comp):
    out = [a for _, _, W in model.all_W() for a in (W.take, W.scale)]
    out += list(sub.rows) + list(sub.blocks)
    out += [a for maps in sub.shifts.values() for m in maps if m is not None for a in m[1:]]
    out += [row[1] for rows in comp.blocks.values() for row in rows if row is not None]
    return out


def test_every_shared_array_is_read_only():
    model = build_model(SYMBOLS, M, D)[1]
    sub = variety_subspace(model, Q)
    comp = compress(model, sub)
    arrays = _shared_arrays(model, sub, comp)
    before = [A.copy() for A in arrays]
    assert len(arrays) > 20
    for A in arrays:
        with pytest.raises(ValueError, match="read-only"):
            A[...] = 0
    assert all(np.array_equal(A, B) for A, B in zip(arrays, before))


@pytest.mark.parametrize("m, cap, message", [
    ((1.0, 1), D, "m entry 1.0 is not an integer"),
    (M, float(D), "degree_cap 3.0 is not an integer"),
])
def test_a_float_entry_is_refused_on_a_warm_cache(m, cap, message):
    # (1.0, 1) and 3.0 hash as (1, 1) and 3: they are checked before the key
    built = build_model(SYMBOLS, M, D)
    with pytest.raises(ValueError, match=re.escape(message)):
        build_model(SYMBOLS, m, cap)
    assert build_model(SYMBOLS, M, D) is built and len(fock._cache) == 1


def test_errors_are_raised_again_and_never_stored():
    for _ in range(2):
        # 2^15 - 1 words of factor 1 exceed the default cap of 20000
        with pytest.raises(ResourceCapError, match="exceeds the cap"):
            build_model(SYMBOLS, M, 14)
    assert len(fock._cache) == 0
    model = build_model(SYMBOLS, M, D)[1]
    bad = NCPolynomial(((1.0, ((1, 3),)),))
    for _ in range(2):
        with pytest.raises(ValueError, match=r"letters \(i, j\) in \[\(1, 3\)\] lie outside"):
            variety_subspace(model, [bad])
    assert len(fock._cache) == 1


def test_one_key_past_the_bound_evicts_the_least_recently_used():
    f = (polyball_symbol(1),)
    n = fock.CACHE_ENTRIES
    first = [build_model(f, (1,), cap) for cap in range(1, n + 1)]
    assert len(fock._cache) == n
    assert build_model(f, (1,), 1) is first[0]  # now the most recent
    build_model(f, (1,), n + 1)
    assert len(fock._cache) == n
    assert build_model(f, (1,), 1) is first[0]
    assert build_model(f, (1,), 3) is first[2]
    assert build_model(f, (1,), 2) is not first[1]  # the oldest went


# --- reports with a warm cache -----------------------------------------------------


def _without_wall_time(text):
    assert text.count('"wall_time":') == 1
    return re.sub(r',"wall_time":[^,}]*', "", text)


def _specs(tmp_path):
    nil = tmp_path / "nilpotent.json"
    assert main(["gen", "--family", "nilpotent", "--seed", "1", "--dim", "4",
                 "--output", str(nil)]) == 0
    vn = tmp_path / "vn.json"
    assert main(["gen", "--family", "commuting_polynomials", "--seed", "12",
                 "--target-radius", "0.5", "--output", str(vn)]) == 0
    obj = json.loads(vn.read_text())
    obj["task"]["terms"] = [
        {"coeff": matrix_to_json(np.eye(2)), "alpha": [[1], []], "beta": [[], []]},
        {"coeff": matrix_to_json(0.3 * np.eye(2)), "alpha": [[], [1]], "beta": [[], []]},
    ]
    vn.write_text(json.dumps(obj))
    return [("model", nil, "4"), ("kernel", nil, "4"), ("rota", nil, "4"), ("vn", vn, "3")]


def test_warm_reports_equal_a_fresh_process(tmp_path):
    runs = _specs(tmp_path)
    out = tmp_path / "out.json"
    src = str(Path(polydom.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    for cmd, spec, cap in runs:
        argv = [cmd, "--input", str(spec), "--trunc-degree", cap, "--output", str(out)]
        r = subprocess.run([sys.executable, "-m", "polydom.cli", *argv],
                           env=env, capture_output=True, text=True)
        assert r.returncode in (0, 2), r.stderr
        fresh = _without_wall_time(out.read_text())
        for _ in range(2):
            assert main(argv) == r.returncode
            assert _without_wall_time(out.read_text()) == fresh, cmd
    assert len(fock._cache) > 0
