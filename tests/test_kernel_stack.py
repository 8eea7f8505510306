"""The tuple's word engine (OperatorTuple.stack), the Berezin kernel built
from it, and the identity transform.

stack(i, D) builds factor i's word products level by level; these tests hold
each entry bitwise to the letter-by-letter product, and monomial to the
composition of per-factor words. kernel() contracts R^{1/2} with one stack
sqrt(b_w) A_{i,w}^* per factor; these tests hold it to the per-index oracle
(oracles.loop_kernel), keep the per-index loop from coming back, and bound
the memory of the identity transform, which forms no dim_N x dim_N matrix.
"""

import json
import sys
import tracemalloc

import numpy as np
import pytest

from polydom.berezin import constrained_kernel, kernel, transform
from polydom.cli import main
from polydom.config import ResourceCapError, Tolerances
from polydom.cpmap import CPMapTuple, OperatorTuple
from polydom.fock import TruncatedFock, build_model, variety_subspace
from polydom.generate import generate, random_symbol
from polydom.words import commutator_polynomial, enumerate_words, word_count

from oracles import letter_product, loop_kernel


def _general_symbol_instance(seed):
    """A commuting (2, 1) tuple under random non-polyball symbols with m = (2, 1)."""
    inst = generate("commuting_polynomials", seed, arities=(2, 1), m=(2, 1))
    rng = np.random.default_rng(seed)
    symbols = (random_symbol(rng, 2), random_symbol(rng, 1))
    return symbols, inst.m, inst.ops


def _instance(case, seed):
    if case == "general_symbol":
        return _general_symbol_instance(seed)
    family, kwargs = {
        "nilpotent": ("nilpotent", {}),
        "commuting_polynomials": ("commuting_polynomials", {}),
        "polyball_random": ("polyball_random", {"n": 3}),
        "three_factors": ("commuting_polynomials", {"arities": (1, 1, 1)}),
    }[case]
    inst = generate(family, seed, **kwargs)
    return inst.symbols, inst.m, inst.ops


def _psd_of_rank(rng, d, rank):
    """V diag(lam) V^* with rank positive eigenvalues in [0.5, 2] and d - rank zeros."""
    X = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    V = np.linalg.qr(X)[0]
    lam = np.zeros(d)
    lam[:rank] = rng.uniform(0.5, 2.0, rank)
    return (V * lam) @ V.conj().T


CASES = ("nilpotent", "commuting_polynomials", "polyball_random", "three_factors", "general_symbol")


@pytest.mark.parametrize("D", range(6))
@pytest.mark.parametrize("case", CASES)
def test_stack_is_the_letter_by_letter_product_in_graded_lex_order(case, D):
    _, _, ops = _instance(case, seed=D)
    for i, n in enumerate(ops.arities, start=1):
        levels = ops.stack(i, D)
        assert [len(level) for level in levels] == [n ** L for L in range(D + 1)]
        entries = np.concatenate(levels)
        words = enumerate_words(n, D)  # fock.factor_words' order
        assert len(entries) == len(words) == word_count(n, D)
        for A, w in zip(entries, words):
            assert A.tobytes() == letter_product(ops, i, w).tobytes(), (i, w)
            assert ops.word_product(i, w).tobytes() == A.tobytes()


@pytest.mark.parametrize("D", range(6))
@pytest.mark.parametrize("case", CASES)
def test_stack_entries_are_read_only(case, D):
    _, _, ops = _instance(case, seed=D)
    for i in range(1, ops.k + 1):
        for level in ops.stack(i, D):
            with pytest.raises(ValueError, match="read-only"):
                level[0, 0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            ops.word_product(i, (1,) * D)[0, 0] = 1.0


@pytest.mark.parametrize("D", range(1, 6))
@pytest.mark.parametrize("case", CASES)
def test_stack_past_the_word_cap_raises_and_keeps_its_levels(case, D):
    _, _, ops = _instance(case, seed=D)
    n = ops.arities[0]
    capped = OperatorTuple(ops.rows, tol=Tolerances(word_cap=word_count(n, D) - 1))
    before = capped.stack(1, D - 1)
    with pytest.raises(ResourceCapError, match="exceeds the cap"):
        capped.stack(1, D)
    with pytest.raises(ResourceCapError, match="exceeds the cap"):
        capped.word_product(1, (1,) * D)
    after = capped.stack(1, D - 1)
    assert len(after) == len(before) == D
    assert all(a is b for a, b in zip(after, before))


@pytest.mark.parametrize("D", range(6))
@pytest.mark.parametrize("case", CASES)
def test_monomial_composes_the_factor_words(case, D):
    """A monomial with one length-D run per factor, factor 1 first, is the
    product of its factor words starting from the identity, bitwise."""
    _, _, ops = _instance(case, seed=D)
    rng = np.random.default_rng(D)
    for _ in range(3):
        words = [tuple(int(j) for j in rng.integers(1, n + 1, size=D)) for n in ops.arities]
        want = np.eye(ops.dim, dtype=np.complex128)
        for i, w in enumerate(words, start=1):
            want = want @ ops.word_product(i, w)
        got = ops.monomial([(i, j) for i, w in enumerate(words, start=1) for j in w])
        assert got.tobytes() == want.tobytes(), words


@pytest.mark.parametrize("D", range(1, 7))
@pytest.mark.parametrize("case", CASES)
def test_kernel_matches_the_per_index_oracle(case, D):
    symbols, m, ops = _instance(case, seed=D)
    phi = CPMapTuple(symbols, ops)
    d = ops.dim
    rng = np.random.default_rng(100 * D + CASES.index(case))
    for rank in (d, 2, 1, 0):
        kern = kernel(phi, m, _psd_of_rank(rng, d, rank), D)
        assert kern.rank == rank
        want = loop_kernel(ops, kern.fock, kern.R2)
        assert kern.K.shape == want.shape == (kern.fock.dim * max(rank, 1), d)
        if rank == 0:
            assert not kern.K.any()
            continue
        gap = np.linalg.norm(kern.K - want) / np.linalg.norm(want)
        assert gap <= 1e-13, (case, D, rank, gap)


@pytest.mark.parametrize("family", ("commuting_polynomials", "nilpotent", "polyball_random"))
def test_kernel_walks_no_basis_index(family, monkeypatch):
    """On a default gen spec at D = 6 the kernel reads no basis index and no
    single word product: it takes each factor's stack once."""
    inst = generate(family, 0)
    model = build_model(inst.symbols, inst.m, 6)[1]
    fock = model.fock

    def refuse(self, g):
        raise AssertionError("kernel walked the Fock basis index by index")

    def counted(log, method):
        def call(self, i, *args):
            # the series of R for the tail bound reads word products through
            # cpmap's apply; the count is of the kernel's own calls
            if sys._getframe(1).f_globals["__name__"] == "polydom.berezin":
                log.append(i)
            return method(self, i, *args)
        return call

    stacks, products = [], []
    monkeypatch.setattr(TruncatedFock, "words_at", refuse)
    monkeypatch.setattr(OperatorTuple, "stack", counted(stacks, OperatorTuple.stack))
    monkeypatch.setattr(OperatorTuple, "word_product", counted(products, OperatorTuple.word_product))
    phi = CPMapTuple(inst.symbols, inst.ops)
    kern = kernel(phi, inst.m, np.eye(inst.ops.dim), 6, model)
    assert kern.K.shape == (fock.dim * inst.ops.dim, inst.ops.dim)
    assert stacks == list(range(1, fock.k + 1))
    assert products == []


def test_identity_transform_is_the_gram_product():
    inst = generate("nilpotent", 4, ensure_cone=True)
    phi = CPMapTuple(inst.symbols, inst.ops)
    R = phi.defect(inst.m, np.eye(inst.ops.dim))
    model = build_model(inst.symbols, inst.m, 5)[1]
    base = kernel(phi, inst.m, R, 5, model)
    ck = constrained_kernel(base, model, variety_subspace(model, (commutator_polynomial(1, 1, 2),)))
    for kern, r in ((base, base.fock.dim), (ck, ck.subspace.dim_N)):
        got = transform(kern)
        want = transform(kern, np.eye(r))
        assert np.linalg.norm(got - want, 2) <= 1e-12 * np.linalg.norm(want, 2)
        with pytest.raises(ValueError, match="chi has shape"):
            transform(kern, np.eye(r + 1))


def test_cli_kernel_forms_no_dense_identity(tmp_path, capsys):
    """polydom kernel at D = 7 on a three-letter polyball spec (dim 3280): a
    dense identity alone would take 3280^2 * 16 B = 172 MB."""
    spec = tmp_path / "spec.json"
    assert main(["gen", "--family", "polyball_random", "--seed", "3", "--dim", "4",
                 "--arities", "3", "--output", str(spec)]) == 0
    identity_bytes = 16 * 3280 ** 2
    tracemalloc.start()
    try:
        code = main(["kernel", "--input", str(spec), "--trunc-degree", "7"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert json.loads(capsys.readouterr().out)["outputs"]["status"] == "PASS"
    assert peak < identity_bytes / 8, peak
