"""The Berezin kernel built from per-factor word stacks, and the identity transform.

kernel() contracts R^{1/2} with one stack sqrt(b_w) A_{i,w}^* per factor;
these tests hold it to the per-index oracle (oracles.loop_kernel), keep the
per-index loop from coming back, and bound the memory of the identity
transform, which forms no dim_N x dim_N matrix.
"""

import json
import sys
import tracemalloc

import numpy as np
import pytest

from polydom.berezin import constrained_kernel, kernel, transform
from polydom.cli import main
from polydom.cpmap import CPMapTuple, OperatorTuple
from polydom.fock import TruncatedFock, build_model, variety_subspace
from polydom.generate import generate, random_symbol
from polydom.words import commutator_polynomial

from oracles import loop_kernel


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
    """On a default gen spec at D = 6 the kernel reads no basis index and takes
    each word product of each factor once, not once per basis vector."""
    inst = generate(family, 0)
    model = build_model(inst.symbols, inst.m, 6)[1]
    fock = model.fock

    def refuse(self, g):
        raise AssertionError("kernel walked the Fock basis index by index")

    calls = []
    product = OperatorTuple.word_product

    def counted(self, i, word):
        # the series of R for the tail bound reads word products from cpmap's
        # apply; the count is of the kernel's own calls
        if sys._getframe(1).f_globals["__name__"] == "polydom.berezin":
            calls.append((i, tuple(word)))
        return product(self, i, word)

    monkeypatch.setattr(TruncatedFock, "words_at", refuse)
    monkeypatch.setattr(OperatorTuple, "word_product", counted)
    phi = CPMapTuple(inst.symbols, inst.ops)  # a cold tuple: no cached word products
    kern = kernel(phi, inst.m, np.eye(inst.ops.dim), 6, model)
    assert kern.K.shape == (fock.dim * inst.ops.dim, inst.ops.dim)
    assert 0 < len(calls) == len(set(calls)) <= sum(fock.factor_dims)


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
