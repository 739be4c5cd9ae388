import threading

import numpy as np
import pytest

from carlab import (
    BoxDiscretization,
    ProblemParams,
    PsiSpec,
    build_weight_tables,
    find_psi_constants,
    validate_params,
)
from carlab.weights import default_r1

# the nine (E, delta0) combinations swept by the acceptance suite; delta = delta0/2
COMBOS = [(E, d0) for E in (0.5, 1.0, 2.0) for d0 in (0.3, 0.4, 0.45)]


def combo_params(E, d0) -> ProblemParams:
    return validate_params(ProblemParams(E=E, delta0=d0, s=(1.0 + d0 / 2.0) / 2.0))


@pytest.fixture(scope="session")
def baseline_params():
    return validate_params(ProblemParams(E=1.0, delta0=0.4, s=0.6))


@pytest.fixture(scope="session")
def baseline_spec(baseline_params):
    # continuity-exact construction at the deterministic R1 policy; the
    # envelope certificate does not exist at delta = 0.2 (see the psi tests)
    return PsiSpec.from_continuity(baseline_params, default_r1(baseline_params))


@pytest.fixture(scope="session")
def baseline_tables(baseline_spec):
    return build_weight_tables(baseline_spec, h=0.05)


@pytest.fixture(scope="session")
def certified_params():
    # large E admits the envelope certificate at moderate delta and R1
    return validate_params(ProblemParams(E=8.0, delta0=0.45, s=0.55))


@pytest.fixture(scope="session")
def certified_spec(certified_params):
    return find_psi_constants(certified_params)


@pytest.fixture(scope="session")
def certified_tables(certified_spec):
    return build_weight_tables(certified_spec, h=0.1)


@pytest.fixture(scope="session")
def combo_tables():
    out = {}
    for E, d0 in COMBOS:
        p = combo_params(E, d0)
        spec = PsiSpec.from_continuity(p, default_r1(p))
        out[(E, d0)] = build_weight_tables(spec, h=0.05)
    return out


@pytest.fixture(scope="session")
def small_box():
    return BoxDiscretization(L=2.0, n=24)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fail a test that leaves a Python thread running, such as a sweep's
    pool left alive on an error path."""
    before = set(threading.enumerate())
    yield
    leaked = [t.name for t in threading.enumerate() if t not in before]
    if leaked:
        pytest.fail(f"threads still running after the test: {leaked}")
