import pytest
from hypothesis import given, strategies as st

from carlab import ParameterError, ProblemParams, validate_params


def test_baseline_accepted():
    p = validate_params(ProblemParams(E=1.0, delta0=0.4, s=0.6))
    assert p.delta == pytest.approx(0.2)


def test_delta0_above_half_rejected():
    with pytest.raises(ParameterError, match="delta0 >= 1/2"):
        validate_params(ProblemParams(E=1.0, delta0=0.6, s=0.6))


def test_delta_at_least_delta0_rejected():
    with pytest.raises(ParameterError, match="delta >= delta0"):
        validate_params(ProblemParams(E=1.0, delta0=0.3, s=0.7))


def test_s_half_gives_zero_delta():
    with pytest.raises(ParameterError, match="delta <= 0"):
        validate_params(ProblemParams(E=1.0, delta0=0.4, s=0.5))


@pytest.mark.parametrize("E", [0.0, -1.0])
def test_nonpositive_energy_rejected(E):
    with pytest.raises(ParameterError, match="E <= 0"):
        validate_params(ProblemParams(E=E, delta0=0.4, s=0.6))


@given(
    E=st.floats(min_value=1e-3, max_value=1e3),
    delta0=st.floats(min_value=1e-3, max_value=0.499),
    frac=st.floats(min_value=1e-3, max_value=0.999),
)
def test_valid_region_always_accepted(E, delta0, frac):
    # any delta strictly inside (0, delta0) comes from s = (1 + delta)/2
    s = (1.0 + frac * delta0) / 2.0
    p = validate_params(ProblemParams(E=E, delta0=delta0, s=s))
    assert 0.0 < p.delta < p.delta0 < 0.5
