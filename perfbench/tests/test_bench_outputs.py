"""Traced and untraced passes give identical item outputs; the checker flags faults."""

import copy
import json

import numpy as np

import checks
import workloads as wl
from run import Sample, check_samples, consistency_reasons, report_failures, run_pass
from tracer import Tracer


def _subset(items, kinds):
    return [i for i in items if i.kind in kinds]


def test_traced_and_untraced_outputs_match(tmp_path):
    small = wl.build_small(1, str(tmp_path))
    items = small.items[:12]  # CLI items on the first specs at d = 3
    inputs = wl.build_dense_inputs(1)
    items += [
        wl.Item(kind=f"{op}/{n}/d8/0", run=wl._dense_call(inputs[(n, 8, 0)], op),
                check=checks.dense_checker(op, inputs[(n, 8, 0)]))
        for n, op in (("c95", "weighted_series"), ("nil", "rota_conjugate"),
                      ("cu", "sznagy_solve"))
    ]
    untraced = run_pass(items, 0)
    tracer = Tracer()
    with tracer.installed():
        traced = run_pass(items, 1, tracer)
    check_samples(untraced)
    check_samples(traced)
    assert consistency_reasons(untraced, traced) == []
    assert all(not s.reasons for s in untraced), [s.reasons for s in untraced]
    assert tracer.calls["cli.main"] == 12


def test_checker_rejects_a_wrong_series():
    inputs = wl.build_dense_inputs(2)
    inst = inputs[("c80", 8, 0)]
    series = wl._dense_call(inst, "weighted_series")()
    check = checks.dense_checker("weighted_series", inst)
    assert check(series)[1] == []
    series.value = series.value + 1e-3 * np.eye(8)
    reasons = check(series)[1]
    assert reasons and "exceeds tail_bound" in reasons[0]
    series.tail_bound = -1.0
    assert any("negative tail_bound" in r for r in check(series)[1])


def test_dense_builder_hits_its_radii():
    inputs = wl.build_dense_inputs(4)
    for (name, d, _), inst in inputs.items():
        if name in wl.DENSE_COMMUTING:
            target = wl.DENSE_COMMUTING[name][0]
            assert np.allclose(inst.radii, target, rtol=1e-12)


def _radius_output(factors, status="FAILED", code=1):
    report = {"task": "radius", "outputs": {
        "status": status, "radii": [f["radius"] for f in factors],
        "equivalences": {"all_consistent": False, "factors": factors}}}
    return checks.CliOutput(code=code, stderr="", text=json.dumps(report))


def _new_failures(kind, check, out):
    return [r for r in check(out)[1] if checks.known_defect(kind, r) is None]


def test_known_radius_defect_matches_only_its_signature():
    kind, check = "radius/cu/d3", checks.small_checker("radius", "cu")
    one = {"factor": 2, "radius": 0.9999999999999999, "decays_to_zero": False,
           "consistent": False}
    crosscheck = ("error: radius crosscheck failed for factor 2: eig-based 1.00000000 "
                  "vs power-sequence 1.02676859\n")
    for out in (_radius_output([one]), checks.CliOutput(1, crosscheck, None)):
        assert check(out)[1] and _new_failures(kind, check, out) == []
    for out in (
        RuntimeError("radius broke"),
        _radius_output([dict(one, radius=0.5)]),
        _radius_output([dict(one, decays_to_zero=True)]),
        _radius_output([one], status="INCONCLUSIVE"),
        _radius_output([one], code=0),
        checks.CliOutput(1, crosscheck.replace("1.00000000", "0.50000000"), None),
        checks.CliOutput(1, "error: cannot read spec\n", None),
    ):
        assert _new_failures(kind, check, out), out


def test_known_series_defects_match_only_their_signature():
    inst = wl.build_dense_inputs(2)[("c80", 8, 0)]
    good = wl._dense_call(inst, "weighted_series")()
    kind = "weighted_series/c99/d16/0"
    check = checks.dense_checker("weighted_series", inst)

    negative = copy.copy(good)
    negative.tail_bound = -1.3e12
    assert check(negative)[1] and _new_failures(kind, check, negative) == []

    wrong = copy.copy(good)
    wrong.value = good.value + 1e-3 * np.eye(8)
    assert _new_failures(kind, check, wrong)
    assert _new_failures(kind, check, ValueError("series broke"))

    rota = "rota_conjugate/c99/d16/0"
    check = checks.dense_checker("rota_conjugate", inst)
    bound = UnboundLocalError("cannot access local variable 'tail' where it is not "
                              "associated with a value")
    assert _new_failures(rota, check, bound) == []
    assert _new_failures(rota, check, UnboundLocalError("local variable 'x'"))
    assert _new_failures(rota, check, ArithmeticError("tail"))


def test_known_decay_window_defect_matches_only_its_signature():
    from polydom.similarity import RadiusFactorReport, RadiusReport

    inst = wl.DenseInstance("c99", 24, (), (1, 1), [], (0.99, 0.99))
    kind = "spectral_radius_equivalences/c99/d24/0"
    check = checks.dense_checker("spectral_radius_equivalences", inst)
    # the orbit of factor 2 on seed 1620656289: still oscillating at s = 64
    decay = [4.0] * 32 + [4.83] + [5.0] * 30 + [6.43]

    def report(radius=0.9899999999999987, decays=False, consistent=False):
        ok = RadiusFactorReport(1, 0.9899999999999974, [0.5] * 64, [], True, True)
        bad = RadiusFactorReport(2, radius, decay, [], decays, consistent)
        return RadiusReport([ok, bad], consistent)

    reasons = check(report())[1]
    assert reasons and "at s=33" in reasons[0] and _new_failures(kind, check, report()) == []
    assert check(report(consistent=True))[1] == []
    for out in (report(radius=0.8), report(radius=1.0), report(decays=True),
                RuntimeError("radius broke")):
        assert _new_failures(kind, check, out), out
    assert _new_failures("spectral_radius_equivalences/c95/d24/0", check, report())


def test_known_radius_stop_defect_matches_only_its_signature():
    err = ("error: radius crosscheck failed for factor 2: eig-based 0.80000000 "
           "vs power-sequence 0.81687310\n")
    out = checks.CliOutput(1, err, None)
    check = checks.small_checker("radius", "cp")
    assert check(out)[1] and _new_failures("radius/cp/d5", check, out) == []
    cold = checks.cold_checker(["radius", "--input", "spec.json"])
    assert _new_failures("cold/radius", cold, out) == []
    for kind in ("radius/pb/d5", "cold/cone"):
        assert _new_failures(kind, check, out)
    for text in (err.replace("0.80000000", "0.50000000"),
                 err.replace("0.81687310", "0.95000000"), "error: cannot read spec\n"):
        assert _new_failures("radius/cp/d5", check, checks.CliOutput(1, text, None))


def test_known_sznagy_defect_matches_only_its_signature():
    notes = ["doubled means plateaued at the squaring noise floor (residuals "
             "[7.9e-16, 8.3e-16]); joint Euler refinement reached relative gap 2.145e-13",
             "eigenvalue spread of Q (-3.913e-02..1.000e+00) is not consistent with "
             "the sampled bounds c=3.425e-01, d=2.913e+00"]

    def report(status="FAILED", notes=notes):
        rep = {"task": "sznagy", "outputs": {"status": status,
                                             "certificate": {"notes": notes}}}
        return checks.CliOutput({"FAILED": 1, "INCONCLUSIVE": 2}[status], "", json.dumps(rep))

    check = checks.small_checker("sznagy", "cu")
    assert check(report())[1] and _new_failures("sznagy/cu/d3", check, report()) == []
    positive = [notes[0], notes[1].replace("(-3.913e-02", "(3.913e-02")]
    for out in (report(notes=positive), report(notes=notes[1:]),
                report(status="INCONCLUSIVE"), RuntimeError("sznagy broke")):
        assert _new_failures("sznagy/cu/d3", check, out), out
    assert _new_failures("sznagy/cp/d3", check, report())


def test_a_new_failure_makes_the_run_incorrect(capsys):
    item = wl.Item(kind="radius/cu/d3", run=lambda: None, check=None)
    sample = Sample(0, item, 0, 0.1, None)
    sample.reasons = ["cli radius raised RuntimeError: radius broke"]
    failed, unknown = report_failures([sample], [])
    assert (failed, unknown) == (1, sample.reasons)
    assert "[NEW]" in capsys.readouterr().out
