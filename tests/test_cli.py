"""End-to-end command line runs: spec generation, dispatch, exit codes,
report determinism."""

import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import polydom.berezin
from polydom.berezin import vn_check_model
from polydom.cli import main
from polydom.cpmap import CPMapTuple, OperatorTuple
from polydom.jsonio import (
    canonical_json,
    matrix_from_json,
    matrix_to_json,
    poly_to_json,
    problem_from_json,
    sanitize,
)
from polydom.similarity import spectral_radius_equivalences
from polydom.words import NCPolynomial

from conftest import weyl_rows


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_spec(tmp_path, capsys, family, seed, *extra):
    path = tmp_path / f"{family}_{seed}.json"
    code, out, err = run_cli(
        ["gen", "--family", family, "--seed", str(seed), "--output", str(path), *extra],
        capsys,
    )
    assert code == 0, err
    return path


def load_report(text):
    rep = json.loads(text)
    for key in ("task", "inputs_digest", "outputs", "tolerances", "versions", "wall_time"):
        assert key in rep
    return rep


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "family",
    ["commuting_polynomials", "conjugated_unitaries", "nilpotent", "polyball_random"],
)
def test_gen_emits_valid_spec(family, tmp_path, capsys):
    path = gen_spec(tmp_path, capsys, family, 1)
    obj = json.loads(path.read_text())
    spec = problem_from_json(obj)
    assert spec.ops.dim == obj["dim"]
    # canonical output: re-rendering the parsed payload is the identity
    assert canonical_json(obj) + "\n" == path.read_text()


def test_gen_nilpotent_operators_annihilate(tmp_path, capsys):
    path = gen_spec(tmp_path, capsys, "nilpotent", 2)
    spec = problem_from_json(json.loads(path.read_text()))
    for row in spec.ops.rows:
        for A in row:
            assert np.linalg.norm(np.linalg.matrix_power(A, spec.ops.dim)) == 0.0


def test_gen_defaults_m_to_one_per_factor(tmp_path, capsys):
    # m defaults to one entry per factor, so a three-factor spec keeps its
    # three symbols
    path = gen_spec(tmp_path, capsys, "commuting_polynomials", 1,
                    "--arities", "1,1,1", "--dim", "3")
    spec = problem_from_json(json.loads(path.read_text()))
    assert spec.k == 3
    assert spec.m == (1, 1, 1)


@pytest.mark.parametrize("flags", [
    ("--arities", "1,1,1", "--k", "2"),
    ("--k", "3"),
    ("--arities", "1,1,1", "--m", "1,1"),
])
def test_gen_rejects_inconsistent_factor_counts(flags, tmp_path, capsys):
    out = tmp_path / "spec.json"
    code, _, err = run_cli(["gen", "--family", "nilpotent", "--dim", "3",
                            "--output", str(out), *flags], capsys)
    assert code == 1
    assert "error:" in err
    assert not out.exists()


@pytest.mark.parametrize("family, m, got", [
    ("commuting_polynomials", "0,-2", "(0, -2)"),
    ("nilpotent", "1,0", "(1, 0)"),
    ("polyball_random", "-1", "(-1,)"),
])
def test_gen_rejects_m_below_one(family, m, got, tmp_path, capsys):
    # gen --m 0,-2 wrote a spec with m = [0, -2] and exited 0
    out = tmp_path / "spec.json"
    code, _, err = run_cli(["gen", "--family", family, "--dim", "3", "--m", m,
                            "--output", str(out)], capsys)
    assert code == 1
    assert err == f"error: m must be >= 1 componentwise, got {got}\n"
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (("--family", "conjugated_unitaries", "--arities", "2,1", "--m", "3,3"),
     "conjugated_unitaries writes --arities 1,1, not 2,1"),
    (("--family", "conjugated_unitaries", "--m", "3,3"),
     "conjugated_unitaries writes --m 1,1, not 3,3"),
    (("--family", "polyball_random", "--arities", "2,3", "--m", "2,5"),
     "polyball_random writes --arities 2, not 2,3"),
    (("--family", "polyball_random", "--m", "2,5"),
     "polyball_random writes --m 2, not 2,5"),
    (("--family", "nilpotent", "--target-radius", "0.5"), "nilpotent has no --target-radius"),
    (("--family", "conjugated_unitaries", "--target-radius", "0.8"),
     "conjugated_unitaries has no --target-radius"),
])
def test_gen_refuses_flags_it_would_drop(flags, message, tmp_path, capsys):
    out = tmp_path / "spec.json"
    code, _, err = run_cli(["gen", "--dim", "3", "--output", str(out), *flags], capsys)
    assert code == 1
    assert err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("family, flags", [
    ("polyball_random", ("--arities", "3", "--m", "2")),
    ("conjugated_unitaries", ("--k", "3", "--arities", "1,1,1", "--m", "1,1,1")),
])
def test_gen_keeps_the_flags_it_writes(family, flags, tmp_path, capsys):
    spec = problem_from_json(json.loads(gen_spec(tmp_path, capsys, family, 2, *flags).read_text()))
    assert ",".join(map(str, spec.ops.arities)) == flags[flags.index("--arities") + 1]
    assert ",".join(map(str, spec.m)) == flags[flags.index("--m") + 1]


@pytest.mark.parametrize("family", ["commuting_polynomials", "polyball_random"])
def test_gen_default_radius_is_explicit_08(family, tmp_path, capsys):
    texts = []
    for name, extra in (("plain", ()), ("explicit", ("--target-radius", "0.8"))):
        out = tmp_path / f"{name}.json"
        code, _, err = run_cli(["gen", "--family", family, "--output", str(out), *extra], capsys)
        assert code == 0, err
        texts.append(out.read_text())
    assert texts[0] == texts[1]
    assert json.loads(texts[0])["task"]["target_radius"] == 0.8


def test_problem_to_json_rejects_short_m():
    from polydom.generate import generate
    from polydom.jsonio import ProblemSpec, problem_to_json

    inst = generate("nilpotent", 1, dim=3)
    with pytest.raises(ValueError):
        problem_to_json(ProblemSpec(symbols=inst.symbols, m=(1,), ops=inst.ops))
    with pytest.raises(ValueError):
        generate("commuting_polynomials", 1, dim=3, arities=(1, 1, 1), m=(1, 1))


def test_gen_unknown_family_fails(capsys):
    with pytest.raises(SystemExit):
        main(["gen", "--family", "does_not_exist"])


# ---------------------------------------------------------------------------
# command dispatch
# ---------------------------------------------------------------------------

def test_radius_command(tmp_path, capsys):
    path = gen_spec(tmp_path, capsys, "commuting_polynomials", 3)
    code, out, _ = run_cli(["radius", "--input", str(path)], capsys)
    assert code == 0
    rep = load_report(out)
    assert rep["task"] == "radius"
    assert rep["outputs"]["status"] == "PASS"
    assert max(rep["outputs"]["radii"]) <= 0.8 + 1e-6


@pytest.mark.parametrize("seed", [10, 598])
def test_radius_command_passes_on_radius_one(seed, tmp_path, capsys):
    # radius 1 to rounding: seed 10 computes 0.9999999999999999 for both
    # factors; on seed 598 the Gelfand estimates approach 1 slowly from above
    path = gen_spec(tmp_path, capsys, "conjugated_unitaries", seed, "--dim", "3")
    code, out, err = run_cli(["radius", "--input", str(path)], capsys)
    assert code == 0, err
    rep = load_report(out)
    assert rep["outputs"]["status"] == "PASS"
    for f in rep["outputs"]["equivalences"]["factors"]:
        assert f["consistent"] and not f["decays_to_zero"]


def test_cone_command(tmp_path, capsys):
    path = gen_spec(tmp_path, capsys, "nilpotent", 4)
    code, out, _ = run_cli(["cone", "--input", str(path)], capsys)
    assert code == 0
    rep = load_report(out)
    assert "membership" in rep["outputs"]
    assert "purity" in rep["outputs"]


@pytest.mark.parametrize("seed", range(3))
def test_cone_command_reconstructs_a_member(tmp_path, capsys, seed):
    # at radius 0.3 the identity is in the cone: the reconstruction and flat
    # sections are written
    path = gen_spec(tmp_path, capsys, "commuting_polynomials", seed,
                    "--dim", "3", "--target-radius", "0.3")
    code, out, err = run_cli(["cone", "--input", str(path)], capsys)
    assert code == 0, err
    outputs = load_report(out)["outputs"]
    assert outputs["membership"]["member"] is True
    assert outputs["reconstruction"]["residual"] <= 1e-12
    assert outputs["flat"]["consistent"] is True


def test_cone_command_reads_radius_099_identity_as_pure(tmp_path, capsys):
    # both factors have radius 0.99: their identity orbits certify decay,
    # as the radius command's decays_to_zero does on the same spec
    path = gen_spec(tmp_path, capsys, "commuting_polynomials", 3, "--target-radius", "0.99")
    code, out, err = run_cli(["cone", "--input", str(path)], capsys)
    assert code == 0, err
    outputs = load_report(out)["outputs"]
    factors = outputs["purity"]["factors"]
    assert len(factors) == 2 and all(f["pure"] for f in factors)
    assert outputs["purity"]["pure"] is True
    assert outputs["purity"] == outputs["membership"]["purity"]


def test_model_command_with_constraints(tmp_path, capsys):
    path = gen_spec(tmp_path, capsys, "nilpotent", 5)
    code, out, _ = run_cli(
        ["model", "--input", str(path), "--trunc-degree", "5"], capsys
    )
    assert code == 0
    rep = load_report(out)
    assert rep["outputs"]["variety"]["dim_N"] > 0
    assert rep["outputs"]["domain_check"]["ok"] is True


def test_kernel_command_nilpotent_certified(tmp_path, capsys):
    path = gen_spec(tmp_path, capsys, "nilpotent", 6)
    code, out, _ = run_cli(
        ["kernel", "--input", str(path), "--trunc-degree", "6"], capsys
    )
    assert code == 0
    rep = load_report(out)
    assert rep["outputs"]["tail_bound"] == 0.0
    assert rep["outputs"]["certified"] is True
    assert rep["outputs"]["gram_vs_series"] <= 1e-10


@pytest.mark.parametrize("family, seed, extra", [
    ("conjugated_unitaries", 1, ()),
    ("commuting_polynomials", 3, ("--target-radius", "0.997")),
])
def test_kernel_command_inconclusive_without_settled_radius(family, seed, extra, tmp_path, capsys):
    # a factor radius above 1 - radius_margin: no certified series to test the Gram identity
    path = gen_spec(tmp_path, capsys, family, seed, "--dim", "4", *extra)
    code, out, _ = run_cli(
        ["kernel", "--input", str(path), "--trunc-degree", "4"], capsys
    )
    assert code == 2
    rep = load_report(out)
    assert rep["outputs"]["status"] == "INCONCLUSIVE"
    assert rep["outputs"]["certified"] is False
    assert rep["outputs"]["gram_vs_series"] == "nan"


def test_kernel_command_with_zero_R(tmp_path, capsys):
    # a rank-zero kernel keeps one zero row per basis vector
    path = gen_spec(tmp_path, capsys, "nilpotent", 0, "--dim", "3")
    obj = json.loads(path.read_text())
    obj["task"]["R"] = matrix_to_json(np.zeros((3, 3)))
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(["kernel", "--input", str(path), "--trunc-degree", "3"], capsys)
    assert code == 0, err
    rep = load_report(out)
    assert rep["outputs"]["rank"] == 0
    assert rep["outputs"]["gram_vs_series"] == 0.0
    assert rep["outputs"]["transform_of_chi"] == matrix_to_json(np.zeros((3, 3)))


def test_kernel_command_without_constraints_reads_the_kernel(tmp_path, capsys, monkeypatch):
    import polydom.cli

    path = gen_spec(tmp_path, capsys, "polyball_random", 0, "--dim", "4", "--arities", "3")
    subspaces = count_calls(monkeypatch, polydom.cli, "variety_subspace")
    code, out, err = run_cli(["kernel", "--input", str(path), "--trunc-degree", "4"], capsys)
    assert code == 0, err
    assert subspaces == []
    outputs = load_report(out)["outputs"]
    section = outputs["constrained"]
    assert section["dim_N"] == (3 ** 5 - 1) // 2 and section["range_leak"] == 0.0
    assert section["intertwine"] == {ij: v[0] for ij, v in outputs["intertwine"].items()}


def test_rota_command_round_trip(tmp_path, capsys):
    path = gen_spec(tmp_path, capsys, "commuting_polynomials", 7)
    code, out, _ = run_cli(["rota", "--input", str(path)], capsys)
    assert code == 0
    rep = load_report(out)
    assert rep["outputs"]["rota"]["status"] == "PASS"
    assert rep["outputs"]["model_embed"]["status"] == "PASS"
    assert "T" in rep["outputs"]


def test_solve_command(tmp_path, capsys):
    path = gen_spec(tmp_path, capsys, "commuting_polynomials", 8)
    code, out, _ = run_cli(["solve", "--input", str(path)], capsys)
    assert code == 0
    rep = load_report(out)
    assert rep["outputs"]["oracle_rel_gap"] <= 1e-8
    assert rep["outputs"]["invertible"] is True


def test_sznagy_command_round_trip(tmp_path, capsys):
    path = gen_spec(tmp_path, capsys, "conjugated_unitaries", 2)
    code, out, _ = run_cli(["sznagy", "--input", str(path)], capsys)
    assert code == 0
    rep = load_report(out)
    cert = rep["outputs"]["certificate"]
    assert cert["status"] == "PASS"
    assert cert["residuals"]["fixed_point_1"] <= 1e-7
    assert "T" in rep["outputs"]


def test_sznagy_failed_gives_exit_one(tmp_path, capsys):
    path = gen_spec(
        tmp_path, capsys, "commuting_polynomials", 9, "--target-radius", "0.5"
    )
    code, out, _ = run_cli(["sznagy", "--input", str(path)], capsys)
    assert code == 1
    rep = load_report(out)
    assert rep["outputs"]["status"] == "FAILED"


def test_vn_polydisc_pass_and_inconclusive(tmp_path, capsys):
    # strict contractions: verdict PASS, exit 0
    path = gen_spec(
        tmp_path, capsys, "commuting_polynomials", 10,
        "--arities", "1,1", "--target-radius", "0.6",
    )
    obj = json.loads(path.read_text())
    q = NCPolynomial(((1.0, ((1, 1),)), (0.5, ((2, 1), (2, 1)))))
    obj["task"]["mode"] = "polydisc"
    obj["task"]["poly_matrix"] = [[poly_to_json(q)]]
    path.write_text(json.dumps(obj))
    code, out, _ = run_cli(["vn", "--input", str(path)], capsys)
    assert code == 0
    assert load_report(out)["outputs"]["status"] == "PASS"

    # unitaries: the power-norm sums cannot certify, verdict INCONCLUSIVE, exit 2
    path2 = gen_spec(tmp_path, capsys, "conjugated_unitaries", 11)
    obj2 = json.loads(path2.read_text())
    obj2["task"]["mode"] = "polydisc"
    obj2["task"]["poly_matrix"] = [[poly_to_json(q)]]
    path2.write_text(json.dumps(obj2))
    code2, out2, _ = run_cli(["vn", "--input", str(path2)], capsys)
    assert code2 == 2
    assert load_report(out2)["outputs"]["status"] == "INCONCLUSIVE"


_Z11 = [{"coeff": [1.0, 0.0], "monomial": [[1, 1]]}]
_Z31 = [{"coeff": [1.0, 0.0], "monomial": [[3, 1]]}]  # no third factor
_Z01 = [{"coeff": [1.0, 0.0], "monomial": [[0, 1]]}]  # letters are 1-based


@pytest.mark.parametrize(
    "poly_matrix",
    [[[_Z11, _Z11], [_Z11]], [[_Z11], [_Z11, _Z11]], [], [[]], [[_Z31]], [[_Z01]]],
)
def test_vn_polydisc_malformed_poly_matrix_exits_one(poly_matrix, tmp_path, capsys):
    path = gen_spec(
        tmp_path, capsys, "commuting_polynomials", 10,
        "--arities", "1,1", "--target-radius", "0.6",
    )
    obj = json.loads(path.read_text())
    obj["task"]["mode"] = "polydisc"
    obj["task"]["poly_matrix"] = poly_matrix
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(["vn", "--input", str(path)], capsys)
    assert code == 1
    assert out == "" and err


@pytest.mark.parametrize("letter", [[3, 1], [1, 3], [2, 2]])
def test_model_constraint_letter_outside_the_model_exits_one(letter, tmp_path, capsys):
    path = gen_spec(tmp_path, capsys, "nilpotent", 19)  # arities (2, 1)
    obj = json.loads(path.read_text())
    obj["constraints"].append([{"coeff": [1.0, 0.0], "monomial": [[1, 1], letter]}])
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(["model", "--input", str(path), "--trunc-degree", "3"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "outside a model with arities (2, 1)" in err


def test_vn_model_mode(tmp_path, capsys):
    path = gen_spec(
        tmp_path, capsys, "commuting_polynomials", 12, "--target-radius", "0.5"
    )
    obj = json.loads(path.read_text())
    obj["task"]["mode"] = "model"
    obj["task"]["terms"] = [
        {"coeff": matrix_to_json(np.eye(2)), "alpha": [[1], []], "beta": [[], []]},
        {"coeff": matrix_to_json(0.3 * np.eye(2)), "alpha": [[], [1]], "beta": [[], []]},
    ]
    path.write_text(json.dumps(obj))
    # stabilization probes degrees D..D+2; keep the constrained model dense-safe
    code, out, _ = run_cli(["vn", "--input", str(path), "--trunc-degree", "4"], capsys)
    rep = load_report(out)
    assert rep["outputs"]["status"] in ("PASS", "INCONCLUSIVE")
    assert code in (0, 2)


def test_cpsim_command(tmp_path, capsys):
    path = gen_spec(
        tmp_path, capsys, "commuting_polynomials", 13, "--target-radius", "0.7"
    )
    obj = json.loads(path.read_text())
    obj["task"]["mode"] = "strict"
    path.write_text(json.dumps(obj))
    code, out, _ = run_cli(["cpsim", "--input", str(path)], capsys)
    assert code == 0
    rep = load_report(out)
    assert rep["outputs"]["certificate"]["kind"] == "cpmap_similarity"


def kraus_spec(tmp_path, rows, mode="strict"):
    from polydom.jsonio import ProblemSpec, problem_to_json
    from polydom.words import polyball_symbol

    spec = ProblemSpec(symbols=tuple(polyball_symbol(len(row)) for row in rows), m=(1,) * len(rows),
                       ops=OperatorTuple(rows, check_commutation=False), task={"mode": mode})
    path = tmp_path / "kraus.json"
    path.write_text(json.dumps(problem_to_json(spec)))
    return path


def test_cpsim_certifies_maps_that_commute_only_as_maps(tmp_path, capsys):
    # the letters of a Weyl pair do not commute, so every other command
    # refuses the spec at load
    path = kraus_spec(tmp_path, weyl_rows(8))
    code, out, err = run_cli(["cpsim", "--input", str(path)], capsys)
    assert code == 0, err
    assert load_report(out)["outputs"]["status"] == "PASS"
    code, _, err = run_cli(["radius", "--input", str(path)], capsys)
    assert code == 1 and err.startswith("error: [A_1,1, A_2,1] has norm")


def test_cpsim_refuses_maps_that_do_not_commute(tmp_path, capsys):
    path = kraus_spec(tmp_path, [[np.array([[0.0, 0.5], [0.0, 0.0]])], [np.diag([0.5, 0.25])]])
    code, out, err = run_cli(["cpsim", "--input", str(path)], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: maps 1 and 2 do not commute")


# ---------------------------------------------------------------------------
# one tuple, one model and one kernel per problem
# ---------------------------------------------------------------------------

def count_calls(monkeypatch, owner, name, key=None):
    """Wraps owner.name, and every polydom module attribute bound to the same
    function, to record key(*args) per call (default: 1)."""
    original = getattr(owner, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1 if key is None else key(*args))
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    if not isinstance(owner, type):
        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] == "polydom" and mod is not None:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, attr, counted)
    return calls


def cpsim_spec(tmp_path, capsys, family, mode):
    path = gen_spec(tmp_path, capsys, family, 0, "--dim", "4")
    obj = json.loads(path.read_text())
    obj["task"]["mode"] = mode
    path.write_text(json.dumps(obj))
    return path


def test_kernel_command_builds_one_kernel_and_one_series(tmp_path, capsys, monkeypatch):
    import polydom.berezin
    import polydom.fock

    path = gen_spec(tmp_path, capsys, "commuting_polynomials", 0, "--dim", "4")
    kernels = count_calls(monkeypatch, polydom.berezin, "kernel")
    series = count_calls(monkeypatch, CPMapTuple, "weighted_series")
    models = count_calls(monkeypatch, polydom.fock, "build_model")
    code, _, err = run_cli(["kernel", "--input", str(path), "--trunc-degree", "5"], capsys)
    assert code == 0, err
    assert len(kernels) == 1 and len(series) == 1
    # the kernel's model and the command's second call, which the benchmark
    # counts and the model cache serves
    assert len(models) == 2


def test_rota_command_computes_each_radius_once(tmp_path, capsys, monkeypatch):
    path = gen_spec(tmp_path, capsys, "commuting_polynomials", 0, "--dim", "4")
    radii = count_calls(monkeypatch, CPMapTuple, "_map_radius")
    code, _, err = run_cli(["rota", "--input", str(path)], capsys)
    assert code == 0, err
    assert len(radii) == 2


def test_pure_cone_computes_each_radius_once(tmp_path, capsys, monkeypatch):
    path = cpsim_spec(tmp_path, capsys, "commuting_polynomials", "pure_cone")
    radii = count_calls(monkeypatch, CPMapTuple, "_map_radius")
    code, _, err = run_cli(["cpsim", "--input", str(path)], capsys)
    assert code == 0, err
    assert len(radii) == 2


def test_unital_cpsim_matricizes_each_factor_once(tmp_path, capsys, monkeypatch):
    from polydom.jsonio import ProblemSpec, problem_to_json
    from polydom.words import polyball_symbol

    # the conjugated unitaries share one eigenbasis, so the fixed point forms
    # no d^2 x d^2 matrix; the row (Z, X) / sqrt2 has none, so the fixed point
    # falls back to the null spaces of both matricized maps
    cu = cpsim_spec(tmp_path, capsys, "conjugated_unitaries", "unital")
    Z, X = np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])
    rows = [[np.kron(Z, np.eye(2)) / np.sqrt(2), np.kron(X, np.eye(2)) / np.sqrt(2)],
            [np.kron(np.eye(2), Z)]]
    spec = ProblemSpec(symbols=(polyball_symbol(2), polyball_symbol(1)), m=(1, 1),
                       ops=OperatorTuple(rows), task={"mode": "unital"})
    pauli = tmp_path / "pauli.json"
    pauli.write_text(json.dumps(problem_to_json(spec)))
    for path, want in ((cu, []), (pauli, [1, 2])):
        # a call that finds no cached matrix builds one
        built = count_calls(monkeypatch, CPMapTuple, "matricize",
                            key=lambda phi, i: None if i in phi._matricized else i)
        code, out, err = run_cli(["cpsim", "--input", str(path)], capsys)
        assert code == 0, err
        assert json.loads(out)["outputs"]["status"] == "PASS"
        assert sorted(i for i in built if i is not None) == want


@pytest.mark.parametrize("cmd, family, mode, field", [
    ("cpsim", "commuting_polynomials", "pure_cone", "certificate"),
    ("rota", "nilpotent", None, "model_embed"),
])
def test_model_embed_reports_a_d_by_d_Y(cmd, family, mode, field, tmp_path, capsys):
    if mode is None:
        path = gen_spec(tmp_path, capsys, family, 0, "--dim", "4")
    else:
        path = cpsim_spec(tmp_path, capsys, family, mode)
    out_path = tmp_path / "report.json"
    code, _, err = run_cli([cmd, "--input", str(path), "--trunc-degree", "6",
                            "--output", str(out_path)], capsys)
    assert code == 0, err
    assert out_path.stat().st_size < 10_000
    cert = load_report(out_path.read_text())["outputs"][field]
    Y, Q = matrix_from_json(cert["Y"]), matrix_from_json(cert["Q"])
    assert Y.shape == (4, 4)
    assert np.linalg.norm(Y.conj().T @ Y - Q, 2) <= 1e-12 * np.linalg.norm(Q, 2)


# ---------------------------------------------------------------------------
# failure modes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cmd", ["kernel", "solve", "rota", "cone"])
def test_non_finite_R_exits_one_by_name(cmd, tmp_path, capsys):
    path = gen_spec(tmp_path, capsys, "nilpotent", 4)
    obj = json.loads(path.read_text())
    # off the diagonal, where eigh does not converge
    R = np.eye(obj["dim"])
    R[0, 1] = R[1, 0] = np.nan
    obj["task"]["R"] = matrix_to_json(R)
    path.write_text(json.dumps(obj))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli([cmd, "--input", str(path), "--trunc-degree", "3"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "non-finite" in err
    assert "Warning" not in err and not caught


@pytest.mark.parametrize("cmd, mode", [
    ("solve", None), ("kernel", None), ("rota", None), ("cpsim", "pure_cone"), ("cone", None),
])
def test_non_hermitian_R_exits_one(cmd, mode, tmp_path, capsys):
    # every command reads R by the rule that cone always used
    path = gen_spec(tmp_path, capsys, "commuting_polynomials", 0, "--dim", "3")
    obj = json.loads(path.read_text())
    obj["task"]["R"] = matrix_to_json(np.eye(3) + np.triu(np.ones((3, 3)), 1))
    if mode is not None:
        obj["task"]["mode"] = mode
    path.write_text(json.dumps(obj))
    code, out, err = run_cli([cmd, "--input", str(path), "--trunc-degree", "4"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "is not Hermitian" in err


def test_vn_model_mode_refuses_an_indefinite_D_pos(tmp_path, capsys):
    path = gen_spec(tmp_path, capsys, "commuting_polynomials", 0, "--dim", "3")
    obj = json.loads(path.read_text())
    obj["task"]["terms"] = [
        {"coeff": matrix_to_json(np.eye(1)), "alpha": [[1], []], "beta": [[1], []]},
    ]
    obj["task"]["D_pos"] = matrix_to_json(np.diag([1.0, -5.0, 1.0]))
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(["vn", "--input", str(path), "--trunc-degree", "3"], capsys)
    assert code == 1 and out == ""
    assert err == "error: D_pos is not positive semidefinite (min eigenvalue -5.000e+00)\n"


@pytest.mark.parametrize("alpha, coeffs, message", [
    ([[3], []], [np.eye(1)], "vn term 0: alpha must be 2 words with letters in 1..n_i for arities (2, 1)"),
    ([[1], [], [1]], [np.eye(1)], "vn term 0: alpha must be 2 words"),
    ([[1]], [np.eye(1)], "vn term 0: alpha must be 2 words"),
    ([[1], []], [np.eye(2), np.eye(3)], "vn term 1: coefficient block of shape (3, 3) is not square "
                                        "or not of term 0's shape (2, 2)"),
], ids=["letter-outside", "three-words", "one-word", "two-shapes"])
def test_vn_model_mode_checks_its_terms_before_any_model(alpha, coeffs, message, tmp_path, capsys, monkeypatch):
    path = gen_spec(tmp_path, capsys, "nilpotent", 300, "--dim", "4")
    obj = json.loads(path.read_text())
    obj["task"]["mode"] = "model"
    obj["task"]["terms"] = [{"coeff": matrix_to_json(C), "alpha": alpha, "beta": [[], []]} for C in coeffs]
    path.write_text(json.dumps(obj))
    spec = problem_from_json(obj)
    assert tuple(f.arity for f in spec.symbols) == (2, 1)

    def no_model(*args, **kwargs):
        raise AssertionError("a model was built")

    monkeypatch.setattr(polydom.berezin, "build_model", no_model)
    terms = [(C, [tuple(w) for w in alpha], [(), ()]) for C in coeffs]
    with pytest.raises(ValueError, match=re.escape(message)):
        vn_check_model(spec.symbols, spec.m, spec.ops, np.eye(4), terms, spec.constraints, degree_cap=3)
    code, out, err = run_cli(["vn", "--input", str(path), "--trunc-degree", "3"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("cmd, task, flags, message", [
    ("rota", {"tol": float("nan")}, (), "non-finite float nan cannot be serialized"),
    ("radius", {"note": float("inf")}, (), "non-finite float inf cannot be serialized"),
    ("rota", {}, ("--tol", "nan"), "tol must be finite and > 0, got nan"),
    ("solve", {"tol": -1.0}, (), "tol must be finite and > 0, got -1.0"),
    ("model", {"D": 2.7}, (), "D 2.7 is not an integer"),
    ("model", {"tol": 0.0}, (), "tol must be finite and > 0, got 0.0"),
    ("kernel", {"D": 0}, (), "D 0 outside 1, 2, ..."),
])
def test_a_non_finite_number_tol_or_non_integer_D_exits_one(cmd, task, flags, message, tmp_path, capsys):
    # a NaN tol died in the report's digest with a traceback, and D = 2.7 ran
    # as D = 2; Python's json reads and writes NaN and Infinity
    path = gen_spec(tmp_path, capsys, "commuting_polynomials", 0, "--dim", "3")
    obj = json.loads(path.read_text())
    obj["task"].update(task)
    path.write_text(json.dumps(obj))
    code, out, err = run_cli([cmd, "--input", str(path), *flags], capsys)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_malformed_json_exits_one(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, out, err = run_cli(["radius", "--input", str(path)], capsys)
    assert code == 1
    assert err.startswith("error:")
    assert out == ""


def test_schema_violation_exits_one(tmp_path, capsys):
    path = gen_spec(tmp_path, capsys, "nilpotent", 14)
    obj = json.loads(path.read_text())
    obj["dim"] = 99
    path.write_text(json.dumps(obj))
    code, _, err = run_cli(["radius", "--input", str(path)], capsys)
    assert code == 1
    assert err.startswith("error:")


def test_fock_cap_env_is_honored(tmp_path, capsys, monkeypatch):
    path = gen_spec(tmp_path, capsys, "nilpotent", 15)
    monkeypatch.setenv("POLYDOM_MAX_DIM", "40")
    code, _, err = run_cli(
        ["model", "--input", str(path), "--trunc-degree", "6"], capsys
    )
    assert code == 1
    assert err.startswith("error:") and "40" in err


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_reports_byte_identical_modulo_wall_time(tmp_path, capsys):
    path = gen_spec(tmp_path, capsys, "nilpotent", 16)
    outs = []
    for name in ("r1.json", "r2.json"):
        rp = tmp_path / name
        code, _, _ = run_cli(
            ["kernel", "--input", str(path), "--output", str(rp), "--trunc-degree", "5"],
            capsys,
        )
        assert code == 0
        outs.append(json.loads(rp.read_text()))
    for rep in outs:
        rep.pop("wall_time")
    assert canonical_json(outs[0]) == canonical_json(outs[1])


def test_gen_is_deterministic(tmp_path, capsys):
    p1 = gen_spec(tmp_path, capsys, "polyball_random", 17)
    p2 = tmp_path / "again.json"
    code, _, _ = run_cli(
        ["gen", "--family", "polyball_random", "--seed", "17", "--output", str(p2)],
        capsys,
    )
    assert code == 0
    assert p1.read_text() == p2.read_text()


def test_console_script_pipeline(tmp_path):
    spec = tmp_path / "spec.json"
    r = subprocess.run(
        [sys.executable, "-m", "polydom.cli", "gen", "--family",
         "commuting_polynomials", "--seed", "18", "--output", str(spec)],
        capture_output=True, text=True,
    )
    assert r.returncode == 0, r.stderr
    r2 = subprocess.run(
        [sys.executable, "-m", "polydom.cli", "radius", "--input", str(spec)],
        capture_output=True, text=True,
    )
    assert r2.returncode == 0, r2.stderr
    rep = json.loads(r2.stdout)
    assert rep["task"] == "radius"


def test_cli_import_leaves_arpack_out(tmp_path):
    # no library computation imports scipy: a d = 16 polyball_random row has
    # no triangular form, so its radius is read off the identity orbit; only
    # cli.main imports scipy, for the report's version string, and the Fock
    # commands at d = 4 load no scipy.sparse
    import polydom

    src = str(Path(polydom.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    spec, out = tmp_path / "spec.json", tmp_path / "out.json"
    code = "\n".join([
        "import sys",
        "import polydom.cli as cli",
        "from polydom.cpmap import CPMapTuple",
        "from polydom.generate import generate",
        "from polydom.similarity import spectral_radius_equivalences, sznagy_solve",
        "inst = generate('polyball_random', 0, dim=16)",
        "phi = CPMapTuple(inst.symbols, inst.ops)",
        "assert phi._orbit_radius(1) is not None and phi.joint_spectral_radius(1) > 0",
        "spectral_radius_equivalences(inst.symbols, inst.ops)",
        "sznagy_solve(inst.symbols, inst.ops)",
        "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]",
        "assert not loaded, loaded",
        f"cli.main(['gen', '--family', 'commuting_polynomials', '--dim', '4', '--output', {str(spec)!r}])",
        "for cmd in ('model', 'kernel', 'rota'):",
        f"    assert cli.main([cmd, '--input', {str(spec)!r}, '--trunc-degree', '4', '--output', {str(out)!r}]) == 0, cmd",
        "    assert 'scipy.sparse' not in sys.modules, cmd",
    ])
    r = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert r.returncode == 0, r.stderr


def two_tuple_radius_outputs(spec):
    """The radius command's outputs from two independent tuples: the
    equivalence report on one, the cross-checked radii on another."""
    report = spectral_radius_equivalences(spec.symbols, spec.ops)
    phi = CPMapTuple(spec.symbols, spec.ops)
    radii = [phi.joint_spectral_radius(i) for i in range(1, phi.k + 1)]
    return {
        "status": "PASS" if report.all_consistent else "FAILED",
        "radii": radii,
        "equivalences": sanitize(report),
    }


@pytest.mark.parametrize("family", ["commuting_polynomials", "nilpotent"])
@pytest.mark.parametrize("seed", range(5))
def test_radius_command_one_tuple_matches_two(family, seed, tmp_path, capsys):
    path = gen_spec(tmp_path, capsys, family, seed)
    spec = problem_from_json(json.loads(path.read_text()))
    try:
        want = two_tuple_radius_outputs(spec)
        want_code = 0 if want["status"] == "PASS" else 1
    except ArithmeticError:
        want, want_code = None, 1
    code, out, _ = run_cli(["radius", "--input", str(path)], capsys)
    assert code == want_code
    if want is not None:
        assert canonical_json(load_report(out)["outputs"]) == canonical_json(want)
