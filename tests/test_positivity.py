"""The one positivity rule: cone.hermitian for matrices from outside,
cone.positive for every PSD / PD verdict, and the sites that read them."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

import polydom
from polydom.berezin import extended_transform_sweep, kernel, vn_check_model
from polydom.config import Tolerances
from polydom.cone import (
    factor_through,
    hermitian,
    is_pure_element,
    membership,
    positive,
    psd_range,
    sqrt_pair,
)
from polydom.cpmap import CPMapTuple, OperatorTuple
from polydom.generate import generate
from polydom.similarity import (
    cpmap_similarity,
    model_embed,
    rota_conjugate,
    solve_defect_equation,
    sznagy_solve,
)
from polydom.words import polyball_symbol

# I plus ones strictly above the diagonal: finite and square, far from Hermitian
UPPER = np.eye(3) + np.triu(np.ones((3, 3)), 1)


# ---------------------------------------------------------------------------
# the helpers
# ---------------------------------------------------------------------------

def test_hermitian_accepts_rounding_asymmetry_and_hermitizes():
    X = np.diag([1.0, 2.0, 3.0]).astype(np.complex128)
    X[0, 1] = 1e-11
    H = hermitian(X, "X", 3)
    assert np.array_equal(H, H.conj().T)
    assert H[0, 1] == H[1, 0] == 5e-12


@pytest.mark.parametrize("X, dim, message", [
    (UPPER, 3, "X is not Hermitian"),
    (np.eye(3), 4, r"X has shape \(3, 3\), operators have dimension 4"),
    (np.ones((2, 3)), 2, "square"),
    (np.diag([1.0, np.inf]), 2, "X has non-finite entries"),
    (np.array([[1.0, np.nan], [np.nan, 1.0]]), 2, "X has non-finite entries"),
])
def test_hermitian_refuses_by_name(X, dim, message):
    with pytest.raises(ValueError, match=message):
        hermitian(X, "X", dim)


def test_positive_thresholds_are_relative_to_the_norm():
    tol = Tolerances()  # tol_psd = tol_pd = 1e-9; s = 10 below
    assert positive(np.diag([10.0, -9e-9]), tol)[0]
    assert not positive(np.diag([10.0, -1.1e-8]), tol)[0]
    assert positive(np.diag([10.0, 1.1e-8]), tol, definite=True)[0]
    assert not positive(np.diag([10.0, 9e-9]), tol, definite=True)[0]
    # below norm one the scale is one: the thresholds are absolute there
    assert not positive(np.diag([0.5, 9e-10]), tol, definite=True)[0]
    # a dominant negative eigenvalue sets the scale and is never PSD
    assert not positive(np.diag([-5.0, 1.0]), tol)[0]


def test_positive_error_lowers_the_bound_and_what_raises():
    X = np.diag([1.0, 0.5])
    assert positive(X, Tolerances(), definite=True, error=0.4)[0]
    assert not positive(X, Tolerances(), definite=True, error=0.5)[0]
    with pytest.raises(ValueError, match=r"^P is not positive definite \(min eigenvalue 1\.000e-01\)"):
        positive(X, Tolerances(tol_pd=0.2), definite=True, error=0.4, what="P")
    with pytest.raises(ValueError, match=r"^D is not positive semidefinite"):
        positive(np.diag([1.0, -1e-3]), Tolerances(), what="D")
    ok, lam, U = positive(X, Tolerances(), what="X")
    assert ok and U is None and list(lam) == [0.5, 1.0]


def test_psd_range_and_sqrt_pair():
    tol = Tolerances()
    X = np.diag([4.0, 1.0, 1e-13, -1e-14])
    keep, clip = psd_range(positive(X, tol, vectors=True)[1], tol)
    assert clip == 4e-12 and list(keep) == [False, False, True, True]
    assert not psd_range(np.array([-1e-17, 0.0]), tol)[0].any()
    Y = np.array([[2.0, 1.0j], [-1.0j, 3.0]])
    sq, isq, cond = sqrt_pair(*positive(Y, tol, definite=True, vectors=True)[1:])
    assert np.allclose(sq @ sq, Y) and np.allclose(sq @ isq, np.eye(2))
    lam = np.linalg.eigvalsh(Y)
    assert cond == pytest.approx(np.sqrt(lam[-1] / lam[0]))


# ---------------------------------------------------------------------------
# inputs from outside follow the one rule
# ---------------------------------------------------------------------------

def disc_tuple(**tol):
    """One factor A = diag(0.5, 0.3, 0.2) of the disc under the given tolerances:
    Delta(I) = diag(0.75, 0.91, 0.96), and the series of I is its inverse."""
    ops = OperatorTuple([[np.diag([0.5, 0.3, 0.2]).astype(np.complex128)]],
                        tol=Tolerances(**tol))
    return (polyball_symbol(1),), (1,), ops


def _non_hermitian_calls():
    symbols, m, ops = disc_tuple()
    phi = CPMapTuple(symbols, ops)
    return {
        "solve_defect_equation": lambda: solve_defect_equation(symbols, m, ops, UPPER),
        "kernel": lambda: kernel(phi, m, UPPER, 2),
        "model_embed": lambda: model_embed(symbols, m, ops, UPPER, degree_cap=2),
        "cpmap_similarity pure_cone":
            lambda: cpmap_similarity(phi, m, "pure_cone", R=UPPER, degree_cap=2),
        "membership": lambda: membership(phi, m, UPPER),
        "is_pure_element": lambda: is_pure_element(phi, UPPER),
        "factor_through": lambda: factor_through(UPPER, symbols, m, ops),
    }


@pytest.mark.parametrize("call", sorted(_non_hermitian_calls()))
def test_non_hermitian_input_is_refused(call):
    with pytest.raises(ValueError, match=r"^(R|X|Gamma) is not Hermitian$"):
        _non_hermitian_calls()[call]()


def test_indefinite_D_pos_is_refused():
    inst = generate("commuting_polynomials", 0, dim=3)
    D_pos = np.diag([1.0, -5.0, 1.0])
    with pytest.raises(ValueError, match="D_pos is not positive semidefinite"):
        vn_check_model(inst.symbols, inst.m, inst.ops, D_pos,
                       [(np.eye(1), [[1], []], [[1], []])], degree_cap=3)
    with pytest.raises(ValueError, match="D_pos is not positive semidefinite"):
        extended_transform_sweep(inst.symbols, inst.m, inst.ops, D_pos, (), [0.5, 0.9],
                                 degree_cap=3)
    with pytest.raises(ValueError, match="D_pos is not Hermitian"):
        vn_check_model(inst.symbols, inst.m, inst.ops, UPPER,
                       [(np.eye(1), [[1], []], [[1], []])], degree_cap=3)


# ---------------------------------------------------------------------------
# every site reads the tolerances of its tuple: moving one across the
# instance's minimum eigenvalue flips the verdict
# ---------------------------------------------------------------------------

def _accepts(call, refusal):
    try:
        call()
    except ValueError as e:
        if re.match(refusal, str(e)):
            return False
    return True


def _strict(**tol):
    symbols, m, ops = disc_tuple(**tol)
    return membership(CPMapTuple(symbols, ops), m, np.eye(3)).strict


def _solve_R(**tol):
    symbols, m, ops = disc_tuple(**tol)
    R = np.diag([1.0, 1.0, 1e-3])
    return _accepts(lambda: solve_defect_equation(symbols, m, ops, R), "R is not positive definite")


def _sznagy_Q(**tol):
    inst = generate("conjugated_unitaries", 0, dim=3)
    ops = OperatorTuple(inst.ops.rows, tol=Tolerances(**tol))
    cert, _ = sznagy_solve(inst.symbols, ops)
    return not any("ergodic projection of I is not positive definite" in n for n in cert.notes)


def _rota_P(**tol):
    symbols, m, ops = disc_tuple(**tol)
    return _accepts(lambda: rota_conjugate(symbols, m, ops), "the series value P is not positive definite")


R_MINUS = np.diag([1.0, 1.0, -1e-3])


def _kernel_R(**tol):
    symbols, m, ops = disc_tuple(**tol)
    return _accepts(lambda: kernel(CPMapTuple(symbols, ops), m, R_MINUS, 2),
                    "R is not positive semidefinite")


def _embed_R(**tol):
    symbols, m, ops = disc_tuple(**tol)
    return _accepts(lambda: model_embed(symbols, m, ops, R_MINUS, degree_cap=2),
                    "R is not positive semidefinite")


def _vn_D_pos(**tol):
    symbols, m, ops = disc_tuple(**tol)
    return _accepts(lambda: vn_check_model(symbols, m, ops, R_MINUS, [(np.eye(1), [[1]], [[]])],
                                           degree_cap=2),
                    "D_pos is not positive semidefinite")


# (check, tolerance field, a value that accepts, one that refuses): the pairs
# straddle the instance's lambda_min / max(1, ||X||)
FLIPS = {
    "membership strict": (_strict, "tol_pd", 0.7, 0.8),  # lambda_min Delta(I) = 0.75
    "solve R": (_solve_R, "tol_pd", 1e-4, 1e-2),  # lambda_min R = 1e-3
    "Rota P": (_rota_P, "tol_pd", 0.7, 0.8),  # lambda_min / ||P|| = 0.75 / 0.96
    "kernel R": (_kernel_R, "tol_psd", 1e-2, 1e-4),  # lambda_min R = -1e-3
    "model_embed R": (_embed_R, "tol_psd", 1e-2, 1e-4),
    "vn D_pos": (_vn_D_pos, "tol_psd", 1e-2, 1e-4),
}


@pytest.mark.parametrize("name", sorted(FLIPS))
def test_each_site_flips_with_its_tuple_tolerance(name):
    check, field, accept, refuse = FLIPS[name]
    assert check(**{field: accept}) is True
    assert check(**{field: refuse}) is False


def test_sznagy_Q_test_flips_with_its_tuple_tolerance():
    inst = generate("conjugated_unitaries", 0, dim=3)
    c = sznagy_solve(inst.symbols, inst.ops)[0].witnesses["Q_min_eig"]  # ||Q|| = 1
    assert 1e-3 < c < 0.5
    assert _sznagy_Q() is True
    assert _sznagy_Q(tol_pd=0.9 * c) is True
    assert _sznagy_Q(tol_pd=1.1 * c) is False


# ---------------------------------------------------------------------------
# guard: no eigendecomposition and no positivity threshold outside the helper
# ---------------------------------------------------------------------------

# (module, function) pairs allowed to decompose a Hermitian matrix or read a
# positivity tolerance; min_eig serves membership and the experiment scripts
EIG_SITES = {("cone.py", "positive"), ("cone.py", "min_eig")}
TOL_SITES = {("cone.py", "positive"), ("cone.py", "psd_range"), ("cone.py", "membership")}


def positivity_sites(source, module):
    """(kind, module, function) for every eigh / eigvalsh call and every read of
    tol_psd, tol_pd or eig_clip off a tolerances object (`tol` or `*.tol`)."""
    hits = []

    class Finder(ast.NodeVisitor):
        def __init__(self):
            self.stack = ["<module>"]

        def visit_FunctionDef(self, node):
            self.stack.append(node.name)
            self.generic_visit(node)
            self.stack.pop()

        visit_AsyncFunctionDef = visit_FunctionDef

        def visit_Call(self, node):
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            if name in ("eigh", "eigvalsh"):
                hits.append(("eig", module, self.stack[-1]))
            self.generic_visit(node)

        def visit_Attribute(self, node):
            v = node.value
            owner = v.attr if isinstance(v, ast.Attribute) else getattr(v, "id", None)
            if node.attr in ("tol_psd", "tol_pd", "eig_clip") and owner == "tol":
                hits.append(("tol", module, self.stack[-1]))
            self.generic_visit(node)

    Finder().visit(ast.parse(source))
    return hits


def test_guard_finds_a_stray_site():
    src = ("import numpy as np\nfrom numpy.linalg import eigh\n"
           "def f(X, phi):\n    a = np.linalg.eigvalsh(X)\n    b = eigh(X)\n"
           "    return a[0] < phi.tol.tol_pd and b[0][0] > -phi.tol.tol_psd\n")
    assert positivity_sites(src, "m.py") == [
        ("eig", "m.py", "f"), ("eig", "m.py", "f"), ("tol", "m.py", "f"), ("tol", "m.py", "f"),
    ]


def test_one_positivity_rule_in_src():
    src = Path(polydom.__file__).parent
    hits = [h for p in sorted(src.glob("*.py")) for h in positivity_sites(p.read_text(), p.name)]
    assert {h[1:] for h in hits if h[0] == "eig"} <= EIG_SITES, hits
    assert {h[1:] for h in hits if h[0] == "tol"} <= TOL_SITES, hits
    # the guard sees the helper itself
    assert ("eig", "cone.py", "positive") in hits
