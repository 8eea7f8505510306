"""Canonical JSON, codecs, and the problem-spec schema."""

import contextlib
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from polydom.cli import _instance_to_spec, main
from polydom.generate import generate
from polydom.jsonio import (
    ProblemSpec,
    canonical_json,
    digest,
    load_problem,
    matrix_from_json,
    matrix_to_json,
    poly_from_json,
    poly_to_json,
    problem_from_json,
    problem_to_json,
    sanitize,
    symbol_from_json,
    symbol_to_json,
)
from polydom.words import NCPolynomial, commutator_polynomial, polyball_symbol


def spec_of(inst):
    return ProblemSpec(symbols=inst.symbols, m=inst.m, ops=inst.ops)


# ---------------------------------------------------------------------------
# canonical rendering
# ---------------------------------------------------------------------------

def test_canonical_sorts_keys_and_is_valid_json():
    a = canonical_json({"b": 1, "a": [True, None, "x"]})
    assert a == '{"a":[true,null,"x"],"b":1}'
    assert json.loads(a) == {"a": [True, None, "x"], "b": 1}


def test_canonical_floats_are_lossless(rng):
    for _ in range(200):
        x = float(rng.standard_normal() * 10.0 ** rng.integers(-300, 300))
        assert float(canonical_json(x)) == x


def test_canonical_rejects_nonfinite():
    with pytest.raises(ValueError):
        canonical_json({"x": float("inf")})
    with pytest.raises(ValueError):
        canonical_json(float("nan"))


def test_canonical_rejects_bad_keys_and_types():
    with pytest.raises(TypeError):
        canonical_json({1: "x"})
    with pytest.raises(TypeError):
        canonical_json(object())


def test_digest_is_order_independent_and_content_sensitive():
    d1 = digest({"a": 1, "b": [1.5, 2.5]})
    d2 = digest({"b": [1.5, 2.5], "a": 1})
    d3 = digest({"a": 1, "b": [1.5, 2.5000000001]})
    assert d1 == d2
    assert d1 != d3
    assert len(d1) == 64


# ---------------------------------------------------------------------------
# codecs
# ---------------------------------------------------------------------------

def test_matrix_round_trip(rng):
    M = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    back = matrix_from_json(matrix_to_json(M))
    assert back.shape == (3, 5)
    assert np.array_equal(back, M)


def test_matrix_rejects_bad_payload():
    obj = matrix_to_json(np.eye(2))
    obj["data"] = obj["data"][:-1]
    with pytest.raises(ValueError):
        matrix_from_json(obj)


def test_symbol_round_trip():
    f = polyball_symbol(3)
    back, m = symbol_from_json(symbol_to_json(f, 2))
    assert m == 2
    assert back.arity == 3 and back.max_degree == f.max_degree
    assert back.coeffs == f.coeffs


def test_poly_round_trip():
    q = commutator_polynomial(1, 1, 2)
    assert poly_from_json(poly_to_json(q)).terms == q.terms
    r = NCPolynomial(((1.0 + 2.0j, ((1, 1), (2, 1))), (-0.5j, ())))
    assert poly_from_json(poly_to_json(r)).terms == r.terms


def test_problem_round_trip_is_byte_stable():
    inst = generate("nilpotent", 3, dim=4)
    spec = ProblemSpec(
        symbols=inst.symbols, m=inst.m, ops=inst.ops,
        constraints=(commutator_polynomial(1, 1, 2),),
        task={"D": 6, "tol": 1e-8},
    )
    obj = problem_to_json(spec)
    again = problem_to_json(problem_from_json(obj))
    assert canonical_json(obj) == canonical_json(again)


def test_problem_validation_errors():
    inst = generate("commuting_polynomials", 6)
    obj = problem_to_json(spec_of(inst))

    bad = json.loads(json.dumps(sanitize(obj)))
    bad["k"] = 3
    with pytest.raises(ValueError):
        problem_from_json(bad)

    bad = json.loads(json.dumps(sanitize(obj)))
    bad["arities"] = [1, 1]
    with pytest.raises(ValueError):
        problem_from_json(bad)

    bad = json.loads(json.dumps(sanitize(obj)))
    bad["dim"] = 17
    with pytest.raises(ValueError):
        problem_from_json(bad)

    bad = json.loads(json.dumps(sanitize(obj)))
    bad["symbols"][0]["arity"] = 5
    with pytest.raises(ValueError):
        problem_from_json(bad)


def _json_type(value):
    return {bool: "boolean", int: "integer", float: "number", str: "string",
            list: "array", dict: "object", type(None): "null"}[type(value)]


_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(-3, 3), st.text(max_size=3),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2),
)
_VALID = json.loads(canonical_json(problem_to_json(spec_of(generate("nilpotent", 0, dim=3)))))
# constraints and task are optional: a spec without them has none and an empty task
_REQUIRED = ("arities", "dim", "k", "operators", "symbols")


@given(key=st.sampled_from(sorted(_VALID)), drop=st.booleans(), value=_JSON_VALUES)
def test_malformed_spec_raises_value_error_naming_the_field(key, drop, value):
    assume(drop or _json_type(value) != _json_type(_VALID[key]))
    assume(not drop or key in _REQUIRED)
    bad = dict(_VALID)
    if drop:
        del bad[key]
    else:
        bad[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(bad, fh)
        with pytest.raises(ValueError, match=f"spec field '{key}'"):
            load_problem(path)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()) as out:
            code = main(["radius", "--input", path])
    assert code == 1 and out.getvalue() == ""
    assert err.getvalue().startswith(f"error: spec field '{key}'")


@pytest.mark.parametrize("key, default", [("constraints", ()), ("task", {})])
def test_optional_spec_fields_default(key, default):
    bad = dict(_VALID)
    del bad[key]
    spec = problem_from_json(bad)
    assert getattr(spec, key) == default


@pytest.mark.parametrize("path, bad, message", [
    (("symbols", 0), "coeffs", r"spec field 'symbols' is malformed \(KeyError"),
    (("operators", 0, 0), "shape", r"spec field 'operators' is malformed \(KeyError"),
    (("arities",), ["x"], r"spec field 'arities' is malformed \(ValueError"),
])
def test_malformed_nested_field_names_its_top_field(path, bad, message):
    obj = json.loads(json.dumps(_VALID))
    target = obj
    for p in path[:-1]:
        target = target[p]
    if isinstance(bad, str):
        del target[path[-1]][bad]
    else:
        target[path[-1]] = bad
    with pytest.raises(ValueError, match=message):
        problem_from_json(obj)


_NIL0 = json.loads(canonical_json(problem_to_json(
    _instance_to_spec(generate("nilpotent", 0, dim=3)))))


@pytest.mark.parametrize("path, bad, top, what", [
    (("symbols", 0, "m"), 1.7, "symbols", "symbol field 'm' must be int, got float"),
    (("symbols", 0, "arity"), 2.0, "symbols", "symbol field 'arity' must be int, got float"),
    (("symbols", 0, "max_degree"), True, "symbols", "symbol field 'max_degree' must be int, got bool"),
    (("symbols", 0, "coeffs", 0, "word", 0), 1.0, "symbols", "word letter must be int, got float"),
    (("constraints", 0, 0, "monomial", 0, 1), 1.5, "constraints", "monomial index must be int, got float"),
    (("arities", 0), 2.0, "arities", "arity must be int, got float"),
])
def test_nested_spec_numbers_are_type_checked(path, bad, top, what, tmp_path):
    # "m": 1.7 loaded as m = 1, and `polydom radius` exited 0
    obj = json.loads(json.dumps(_NIL0))
    target = obj
    for p in path[:-1]:
        target = target[p]
    target[path[-1]] = bad
    message = f"spec field '{top}' is malformed (ValueError: {what})"
    with pytest.raises(ValueError) as info:
        problem_from_json(obj)
    assert str(info.value) == message
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(obj))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(["radius", "--input", str(spec_path)])
    assert code == 1 and out.getvalue() == ""
    assert err.getvalue() == f"error: {message}\n"


@pytest.mark.parametrize("m", [(0, 1), (-1, 1), (1, -2)])
def test_symbol_m_below_one_is_refused(m, tmp_path):
    # m = (-1, 1) loaded, and `polydom cone` exited 0: multi_grid turned the
    # negative entry into an empty range, so only the defect (0, 0) was read
    obj = json.loads(json.dumps(_NIL0))
    for sym, mi in zip(obj["symbols"], m):
        sym["m"] = mi
    bad = next(mi for mi in m if mi < 1)
    message = f"spec field 'symbols' is malformed (ValueError: symbol field 'm' must be >= 1, got {bad})"
    with pytest.raises(ValueError) as info:
        problem_from_json(obj)
    assert str(info.value) == message
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(obj))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(["cone", "--input", str(spec_path)])
    assert code == 1 and out.getvalue() == ""
    assert err.getvalue() == f"error: {message}\n"


@pytest.mark.parametrize("family", ["commuting_polynomials", "conjugated_unitaries", "nilpotent", "polyball_random"])
def test_every_gen_spec_loads_as_before(family):
    for seed in range(3):
        obj = json.loads(canonical_json(problem_to_json(_instance_to_spec(generate(family, seed)))))
        assert canonical_json(problem_to_json(problem_from_json(obj))) == canonical_json(obj)


def test_spec_that_is_not_an_object_raises_value_error():
    with pytest.raises(ValueError, match="a problem spec is a JSON object"):
        problem_from_json([_VALID])


# ---------------------------------------------------------------------------
# sanitize
# ---------------------------------------------------------------------------

def test_sanitize_scalars_and_arrays():
    out = sanitize(
        {
            "i": np.int64(4),
            "x": np.float64(0.5),
            "z": 1.0 + 2.0j,
            "v": np.arange(3.0),
            "M": np.eye(2, dtype=np.complex128),
            "inf": float("inf"),
        }
    )
    assert out["i"] == 4 and isinstance(out["i"], int)
    assert out["x"] == 0.5 and isinstance(out["x"], float)
    assert out["z"] == [1.0, 2.0]
    assert out["v"] == [0.0, 1.0, 2.0]
    assert out["M"]["shape"] == [2, 2]
    assert out["inf"] == "inf"
    canonical_json(out)  # must be renderable


def test_sanitize_dataclasses_and_rejects_unknown():
    from polydom.cone import FactorPurity

    fp = FactorPurity(factor=1, pure=True, decay=[1.0, 0.0], crossed_at=1, fitted_rate=None)
    out = sanitize(fp)
    assert out["factor"] == 1 and out["pure"] is True
    with pytest.raises(TypeError):
        sanitize(object())
