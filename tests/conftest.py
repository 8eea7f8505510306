import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


# one summary line per acceptance check, echoed after the run so the
# PASS/FAIL table survives output capturing
_acceptance_lines = []


@pytest.fixture(scope="session")
def acceptance_report():
    def add(line):
        _acceptance_lines.append(line)
        print(line)

    return add


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)


def random_complex(rng, *shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def random_hermitian(rng, d, scale=1.0):
    X = random_complex(rng, d, d, scale=scale)
    return (X + X.conj().T) / 2.0


def random_psd(rng, d, scale=1.0):
    X = random_complex(rng, d, d, scale=scale)
    return X @ X.conj().T / d


def weyl_rows(d, r=0.5, s=0.7, seed=0):
    """Kraus rows [[r Y Z Y^-1], [s Y X Y^-1]] for the clock Z and shift X of
    C^d and a seeded random invertible Y (Y = I for seed None): Z X = w X Z
    with |w| = 1, so the two maps commute although the letters do not."""
    Z = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    X = np.roll(np.eye(d), 1, axis=0)
    if seed is None:
        return [[r * Z], [s * X]]
    rng = np.random.default_rng(seed)
    Y = np.eye(d) + 0.3 * rng.standard_normal((d, d)) / np.sqrt(d)
    Yi = np.linalg.inv(Y)
    return [[r * Y @ Z @ Yi], [s * Y @ X @ Yi]]
