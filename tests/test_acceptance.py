"""Acceptance suite: ten end-to-end checks with numeric and runtime budgets.

Each test measures its own wall time, prints one summary line through the
acceptance_report fixture (echoed after the run by the terminal summary
hook), and asserts both the tolerance and the time limit. Everything is
seeded, so reruns are deterministic.
"""

import json
import time
from itertools import product
from math import comb

import numpy as np

from polydom.berezin import (
    constrained_kernel,
    intertwine_check,
    kernel,
    vn_check_polydisc,
)
from polydom.cli import main
from polydom.cone import (
    flat_equivalence,
    is_pure_element,
    membership,
    min_eig,
    radial_membership,
)
from polydom.cpmap import CPMapTuple, OperatorTuple, hermitize
from polydom.fock import build_model, variety_subspace
from polydom.generate import (
    commuting_polynomials,
    conjugated_unitaries,
    nilpotent,
    random_symbol,
    strict_contractions,
)
from polydom.jsonio import canonical_json
from polydom.similarity import rota_conjugate, solve_defect_equation, sznagy_solve
from polydom.words import (
    NCPolynomial,
    commutator_polynomial,
    polyball_symbol,
    scale_symbol_action,
    weight_table,
)

from oracles import brute_weight, convolve_weights, nested_limit_value


def _line(n, name, ok, t, limit):
    mark = "PASS" if ok else "FAIL"
    return f"ACCEPTANCE {n:2d}  {name:<28s} {mark}  ({t:6.2f}s < {limit:.0f}s)"


def _mild_pd(rng, d):
    """Hermitian positive definite with eigenvalues in [0.5, 1.5]."""
    G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    Q, _ = np.linalg.qr(G)
    lam = rng.uniform(0.5, 1.5, size=d)
    return hermitize((Q * lam) @ Q.conj().T)


def _random_psd_unit(rng, d):
    G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    R = G @ G.conj().T
    return R / max(float(np.linalg.norm(R, 2)), 1e-300)


# 1. closed-form weights ------------------------------------------------------

def test_01_weight_closed_form(acceptance_report):
    t0 = time.perf_counter()
    ok = True
    for n in (1, 2, 3):
        f = polyball_symbol(n)
        for m in (1, 2, 3, 4):
            table = weight_table(f, m, 6, exact=True)
            for word, b in table.entries.items():
                ok = ok and b == comb(len(word) + m - 1, m - 1)
    # factorization oracle, one representative word per length and arity
    for n in (2, 3):
        f = polyball_symbol(n)
        coeffs = {tuple(w): a for w, a in f.coeffs.items()}
        for m in (1, 2, 3, 4):
            table = weight_table(f, m, 6, exact=True)
            for length in range(7):
                w = tuple((j % n) + 1 for j in range(length))
                ok = ok and table.value(w) == brute_weight(coeffs, w, m)
    t = time.perf_counter() - t0
    ok = ok and t < 1.0
    acceptance_report(_line(1, "weight closed form", ok, t, 1.0))
    assert ok


# 2. convolution of weight tables ---------------------------------------------

def test_02_convolution_identity(acceptance_report):
    t0 = time.perf_counter()
    worst = 0.0
    for s in range(20):
        arity = 1 + (s % 2)
        f = random_symbol(1000 + s, arity, degree=3, density=0.7)
        m1 = 1 + (s % 3)
        m2 = 1 + ((s // 3) % 2)
        b1 = weight_table(f, m1, 6)
        b2 = weight_table(f, m2, 6)
        b12 = weight_table(f, m1 + m2, 6)
        d1 = {tuple(w): v for w, v in b1.entries.items()}
        d2 = {tuple(w): v for w, v in b2.entries.items()}
        for w, lhs in b12.entries.items():
            rhs = convolve_weights(d1, d2, tuple(w))
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-300))
    t = time.perf_counter() - t0
    ok = worst <= 1e-12 and t < 5.0
    acceptance_report(_line(2, "weight convolution", ok, t, 5.0))
    assert ok, worst


# 3. exact kernel identity on nilpotent tuples --------------------------------

def test_03_nilpotent_exact_kernel(acceptance_report):
    t0 = time.perf_counter()
    worst_gram = 0.0
    worst_inter = 0.0
    rng = np.random.default_rng(20240811)
    for s in range(50):
        d = 3 + (s % 4)
        inst = nilpotent(2000 + s, dim=d)
        phi = CPMapTuple(inst.symbols, inst.ops)
        R = _random_psd_unit(rng, d)
        cap = d - 1  # every nonzero word has length < d
        model = build_model(inst.symbols, inst.m, cap, tol=phi.tol)[1]
        kern = kernel(phi, inst.m, R, cap, model)
        gram = kern.K.conj().T @ kern.K
        series = phi.weighted_series(inst.m, R)
        worst_gram = max(worst_gram, float(np.linalg.norm(gram - series.value, 2)))
        for full, _ in intertwine_check(kern, model, inst.ops).values():
            worst_inter = max(worst_inter, full)
    t = time.perf_counter() - t0
    ok = worst_gram <= 1e-10 and worst_inter <= 1e-12 and t < 10.0
    acceptance_report(_line(3, "nilpotent exact kernel", ok, t, 10.0))
    assert ok, (worst_gram, worst_inter)


# 4. strict conjugation into the interior --------------------------------------

def test_04_strict_conjugation(acceptance_report):
    t0 = time.perf_counter()
    radii = (0.3, 0.45, 0.6, 0.75, 0.9)
    ok = True
    worst_eig = np.inf
    for s in range(100):
        inst = commuting_polynomials(4000 + s, target_radius=radii[s % 5])
        cert, T = rota_conjugate(inst.symbols, inst.m, inst.ops)
        ok = ok and cert.status == "PASS"
        ok = ok and cert.cond <= cert.claimed_bound * (1.0 + 1e-8)
        phi_T = CPMapTuple(inst.symbols, T)
        grid = phi_T.defect_grid(inst.m, np.eye(inst.ops.dim))
        for p, D in grid.items():
            if any(p):
                worst_eig = min(worst_eig, min_eig(D))
    ok = ok and worst_eig >= 1e-6
    t = time.perf_counter() - t0
    ok = ok and t < 30.0
    acceptance_report(_line(4, "strict conjugation", ok, t, 30.0))
    assert ok, worst_eig


# 5. defect equation vs dense oracle -------------------------------------------

def test_05_defect_equation(acceptance_report):
    t0 = time.perf_counter()
    radii = (0.3, 0.5, 0.7, 0.8, 0.9)
    rng = np.random.default_rng(20240811)
    ok = True
    worst_gap = 0.0
    worst_res = 0.0
    for s in range(100):
        inst = commuting_polynomials(5000 + s, target_radius=radii[s % 5])
        R = _mild_pd(rng, inst.ops.dim)
        sol = solve_defect_equation(inst.symbols, inst.m, inst.ops, R)
        scale = max(1.0, float(np.linalg.norm(R, 2)))
        ok = ok and sol.ok and sol.invertible
        worst_gap = max(worst_gap, sol.oracle_rel_gap)
        worst_res = max(worst_res, sol.defect_residual / scale)
    ok = ok and worst_gap <= 1e-8 and worst_res <= 1e-8
    t = time.perf_counter() - t0
    ok = ok and t < 30.0
    acceptance_report(_line(5, "defect equation", ok, t, 30.0))
    assert ok, (worst_gap, worst_res)


# 6. similarity to commuting unitaries -----------------------------------------

def test_06_isometric_conjugation(acceptance_report):
    t0 = time.perf_counter()
    ok = True
    for s in range(50):
        d = 3 + (s % 4)
        inst = conjugated_unitaries(6000 + s, dim=d)
        cert, T = sznagy_solve(inst.symbols, inst.ops)
        ok = ok and cert.status == "PASS" and T is not None
        ok = ok and cert.witnesses["c"] == cert.witnesses["Q_min_eig"] / cert.witnesses["Q_max_eig"] > 0
        for i in (1, 2):
            ok = ok and cert.residuals[f"fixed_point_{i}"] <= 1e-7
        if T is not None:
            eye = np.eye(d)
            for i in (1, 2):
                Ti = T.matrix(i, 1)
                ok = ok and float(np.linalg.norm(Ti.conj().T @ Ti - eye, 2)) <= 1e-7
    t = time.perf_counter() - t0
    ok = ok and t < 60.0
    acceptance_report(_line(6, "isometric conjugation", ok, t, 60.0))
    assert ok


# 7. polydisc functional calculus bound ----------------------------------------

def _random_poly_matrix(rng, k=2, degree=3, rows=2, cols=2):
    letters = [(i, 1) for i in range(1, k + 1)]

    def rand_poly():
        terms = []
        for length in range(degree + 1):
            for mono in product(letters, repeat=length):
                keep = 0.8 if length == 0 else 0.35
                if rng.uniform() < keep:
                    c = complex(rng.standard_normal(), rng.standard_normal())
                    terms.append((c, mono))
        if not terms:
            terms.append((1.0 + 0.0j, (letters[0],)))
        return NCPolynomial(tuple(terms))

    return [[rand_poly() for _ in range(cols)] for _ in range(rows)]


def test_07_polydisc_von_neumann(acceptance_report):
    t0 = time.perf_counter()
    violations = 0
    for s in range(50):
        C = strict_contractions(7000 + s, k=2, dim=4, norm_cap=0.7)
        ops = OperatorTuple([[C[0]], [C[1]]])
        pm = _random_poly_matrix(np.random.default_rng(9000 + s))
        rep = vn_check_polydisc(ops, pm)
        if rep.verdict != "PASS":
            violations += 1
    t = time.perf_counter() - t0
    ok = violations == 0 and t < 60.0
    acceptance_report(_line(7, "polydisc von Neumann", ok, t, 60.0))
    assert ok, violations


# 8. constrained kernel isometry on variety tuples ------------------------------

def test_08_constrained_kernel_isometry(acceptance_report):
    t0 = time.perf_counter()
    worst = 0.0
    q = commutator_polynomial(1, 1, 2)
    for s in range(30):
        inst = nilpotent(8000 + s, dim=4, ensure_cone=True)
        phi = CPMapTuple(inst.symbols, inst.ops)
        R = phi.defect(inst.m, np.eye(4))
        model = build_model(inst.symbols, inst.m, 3)[1]
        kern = kernel(phi, inst.m, R, 3, model)
        ck = constrained_kernel(kern, model, variety_subspace(model, (q,)))
        gram = ck.K.conj().T @ ck.K
        worst = max(worst, float(np.linalg.norm(gram - np.eye(4), 2)))
    t = time.perf_counter() - t0
    ok = worst <= 1e-8 and t < 20.0
    acceptance_report(_line(8, "constrained kernel isometry", ok, t, 20.0))
    assert ok, worst


# 9. cone property suite ---------------------------------------------------------

def _summable_majorant(phi, inst, R0):
    """Y with Phi_1(Y) + ... + Phi_k(Y) <= Y, by geometric summation.

    The symbols are shrunk until the summed matricization is a strict
    contraction, so the series converges and the majorant slack equals R0.
    """
    symbols = tuple(inst.symbols)
    cand = phi
    for _ in range(8):
        Msum = sum(cand.matricize(i) for i in range(1, cand.k + 1))
        rho = max(abs(np.linalg.eigvals(Msum)))
        if rho < 0.9:
            break
        symbols = tuple(scale_symbol_action(f, 0.8) for f in symbols)
        cand = CPMapTuple(symbols, inst.ops)
    term = np.asarray(R0, dtype=np.complex128)
    Y = np.zeros_like(term)
    for _ in range(500):
        Y = Y + term
        term = sum(cand.apply(i, term) for i in range(1, cand.k + 1))
        if float(np.linalg.norm(term, 2)) < 1e-14:
            break
    return hermitize(Y), cand


def test_09_cone_property_suite(acceptance_report):
    t0 = time.perf_counter()
    names = (
        "defect_monotone",
        "preimage_membership",
        "smaller_symbols",
        "majorant_in_cone",
        "flat_agreement",
        "purity_double_limit",
        "radial_scaling",
        "series_reproduces",
    )
    flags = {name: True for name in names}
    radii = (0.5, 0.7, 0.85)
    rng = np.random.default_rng(20240811)
    for s in range(50):
        inst = commuting_polynomials(9000 + s, dim=3, target_radius=radii[s % 3])
        phi = CPMapTuple(inst.symbols, inst.ops)
        m = inst.m
        R0 = _mild_pd(rng, 3)
        R0 = R0 / float(np.linalg.norm(R0, 2))
        Y = hermitize(phi.weighted_series(m, R0).value)
        scale = max(1.0, float(np.linalg.norm(Y, 2)))
        grid = phi.defect_grid(m, Y)
        Dm = grid[m]
        # full defect sits below every partial defect, all psd
        flags["defect_monotone"] &= min_eig(Dm) >= -1e-9 * scale
        for p, Dp in grid.items():
            if any(p) and p != m:
                flags["defect_monotone"] &= min_eig(Dp - Dm) >= -1e-9 * scale
        # a psd-defect preimage under pure maps is a full member
        rep = membership(phi, m, Y, with_purity=False)
        pure = is_pure_element(phi, Y).pure
        flags["preimage_membership"] &= rep.member and pure
        # coefficientwise smaller symbols keep membership
        small = tuple(scale_symbol_action(f, 0.7) for f in inst.symbols)
        phi_small = CPMapTuple(small, inst.ops)
        flags["smaller_symbols"] &= membership(phi_small, m, Y, with_purity=False).member
        # sum_i Phi_i(Y0) <= Y0 puts Y0 in the cone
        Y0, cand = _summable_majorant(phi, inst, R0)
        flags["majorant_in_cone"] &= membership(cand, m, Y0, with_purity=False).member
        # full flatness and ones flatness agree on members
        flags["flat_agreement"] &= flat_equivalence(phi, m, Y).consistent
        # purity matches the nested double limit returning Y
        lim = nested_limit_value(phi, (64, 64), Y)
        agrees = float(np.linalg.norm(lim - Y, 2)) <= 1e-6 * scale
        flags["purity_double_limit"] &= agrees and pure
        # membership survives radial shrinking of the tuple
        vals = radial_membership(phi, m, Y)
        flags["radial_scaling"] &= all(v >= -1e-9 * scale for v in vals.values())
        # nested limit equals the weighted series of the full defect
        series = phi.weighted_series(m, Dm)
        flags["series_reproduces"] &= (
            float(np.linalg.norm(lim - series.value, 2)) <= 1e-6 * scale
        )
    # converse cases on commuting unitaries: flat boundary, not pure
    for s in range(5):
        rngu = np.random.default_rng(9700 + s)
        G = rngu.standard_normal((3, 3)) + 1j * rngu.standard_normal((3, 3))
        Qm, _ = np.linalg.qr(G)
        U1 = Qm @ np.diag(np.exp(1j * rngu.uniform(0, 2 * np.pi, 3))) @ Qm.conj().T
        U2 = Qm @ np.diag(np.exp(1j * rngu.uniform(0, 2 * np.pi, 3))) @ Qm.conj().T
        ops = OperatorTuple([[U1], [U2]])
        phi_u = CPMapTuple((polyball_symbol(1), polyball_symbol(1)), ops)
        eye = np.eye(3)
        fr = flat_equivalence(phi_u, (1, 1), eye)
        flags["flat_agreement"] &= fr.consistent and fr.flat_full and fr.flat_ones
        pure_u = is_pure_element(phi_u, eye).pure
        lim_u = nested_limit_value(phi_u, (64, 64), eye)
        agrees_u = float(np.linalg.norm(lim_u - eye, 2)) <= 1e-6
        flags["purity_double_limit"] &= (not pure_u) and (not agrees_u)
        vals_u = radial_membership(phi_u, (1, 1), eye)
        flags["radial_scaling"] &= all(v >= -1e-9 for v in vals_u.values())
    ok = all(flags.values())
    t = time.perf_counter() - t0
    ok = ok and t < 60.0
    acceptance_report(_line(9, "cone property suite", ok, t, 60.0))
    assert ok, flags


# 10. deterministic reports -------------------------------------------------------

def test_10_deterministic_reports(acceptance_report, tmp_path):
    t0 = time.perf_counter()
    spec_path = tmp_path / "instance.json"
    gen = ["gen", "--family", "commuting_polynomials", "--seed", "11",
           "--output", str(spec_path)]
    ok = main(gen) == 0
    first = spec_path.read_bytes()
    ok = ok and main(gen) == 0 and spec_path.read_bytes() == first
    for command in ("radius", "cone"):
        reports = []
        for run in range(2):
            out = tmp_path / f"{command}_{run}.json"
            ok = ok and main([command, "--input", str(spec_path),
                              "--output", str(out)]) == 0
            reports.append(json.loads(out.read_text()))
        for rep in reports:
            rep.pop("wall_time")
        ok = ok and canonical_json(reports[0]) == canonical_json(reports[1])
    t = time.perf_counter() - t0
    ok = ok and t < 30.0
    acceptance_report(_line(10, "deterministic reports", ok, t, 30.0))
    assert ok
