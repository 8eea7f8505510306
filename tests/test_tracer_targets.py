"""The benchmark tracer's targets still name real polydom functions.

perfbench/tracer.py wraps polydom functions by attribute path and binds some
of their parameters by name. A refactor that renames a traced function or
one of those parameters fails here, not first in the benchmark.
"""

import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# parameters the tracer's hooks read from the bound call, per target
HOOKED_PARAMETERS = {
    "cpmap.matricize": ("self", "i"),
    "cpmap.joint_spectral_radius": ("self", "i"),
    "fock.build_model": ("symbols", "m", "degree_cap", "exact_weights"),
    "fock.variety_subspace": ("model", "Q_polys", "dense_cap"),
}


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = load_tracer().TARGETS


def resolve(layer, path):
    owner = importlib.import_module(f"polydom.{layer}")
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


@pytest.mark.parametrize("layer,name,path", TARGETS, ids=[f"{t[0]}.{t[1]}" for t in TARGETS])
def test_tracer_target_resolves(layer, name, path):
    assert callable(resolve(layer, path))


@pytest.mark.parametrize("full,params", sorted(HOOKED_PARAMETERS.items()))
def test_tracer_hook_parameters_exist(full, params):
    layer, name = full.split(".")
    path = next(p for lay, n, p in TARGETS if (lay, n) == (layer, name))
    signature = inspect.signature(resolve(layer, path))
    for param in params:
        assert param in signature.parameters, f"{full} lost parameter {param!r}"


def test_hooked_parameters_match_the_tracer_source():
    # the list above is what the tracer's hooks read as a["name"]; keep the two in step
    source = TRACER_PATH.read_text()
    found = {}
    for layer, name, _ in TARGETS:
        full = f"{layer}.{name}"
        marker = f'full == "{full}"'
        if marker in source:
            body = source.split(marker, 1)[1].split("full ==", 1)[0]
            names = tuple(dict.fromkeys(re.findall(r'a\["(\w+)"\]', body)))
            if names:
                found[full] = names
    assert found == HOOKED_PARAMETERS
