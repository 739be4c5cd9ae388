import math

import numpy as np
import pytest

from carlab.kernels import riccati_backward
from carlab.weights import eval_psi


def _step(k, R):
    return lambda x: np.where(x <= R, k, 0.0)


def scalar_riccati_backward(r, h, substep, psi):
    """Reference: the one-substep-at-a-time RK4 loop with psi evaluated per point."""
    n = r.shape[0]
    u = np.zeros(n)
    uu = 0.0
    for i in range(n - 1, 0, -1):
        ra = r[i]
        rb = r[i - 1]
        span = ra - rb
        m = int(math.ceil(span / substep))
        if m < 1:
            m = 1
        dt = -span / m
        rr = ra
        for _ in range(m):
            rm = rr + 0.5 * dt
            re = rr + dt
            pa, pm, pe = (float(psi(np.array([x]))[0]) for x in (rr, rm, re))
            k1 = (uu * uu - pa) / h
            v2 = uu + 0.5 * dt * k1
            k2 = (v2 * v2 - pm) / h
            v3 = uu + 0.5 * dt * k2
            k3 = (v3 * v3 - pm) / h
            v4 = uu + dt * k3
            k4 = (v4 * v4 - pe) / h
            uu = uu + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
            rr = re
        u[i - 1] = uu
    return u


def _assert_matches_reference(args):
    got = riccati_backward(*args)
    ref = scalar_riccati_backward(*args)
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= 1e-12 * max(np.abs(ref).max(), 1e-300)


def _substep(r, h, many):
    # the widest span sets a substep that every span takes in one step;
    # h/80 makes the spans take from one to many substeps
    if many:
        assert np.ceil(np.diff(r) / (h / 80.0)).max() > 10
        return h / 80.0
    return float(np.diff(r).max())


@pytest.mark.parametrize("many", [False, True], ids=["one_substep", "many_substeps"])
def test_piecewise_profile_matches_scalar_reference(baseline_spec, many):
    s = baseline_spec
    r = np.concatenate([[0.0], np.geomspace(1e-4, s.R1, 800)])
    r[-1] = s.R1
    h = 0.05
    _assert_matches_reference(
        (r, h, _substep(r, h, many), lambda x: eval_psi(s, x))
    )


@pytest.mark.parametrize("many", [False, True], ids=["one_substep", "many_substeps"])
def test_constant_profile_matches_scalar_reference(many):
    # the jump at R = 1.0 falls inside a span, so substeps straddle it
    r = np.linspace(0.0, 1.7, 60)
    h = 0.1
    _assert_matches_reference(
        (r, h, _substep(r, h, many), _step(2.5, 1.0))
    )


@pytest.mark.parametrize("substep", [1.0, 1e-3])  # one substep per span, then 21
def test_zero_profile_matches_scalar_reference(substep):
    r = np.linspace(0.0, 1.0, 50)
    args = (r, 0.1, substep, np.zeros_like)
    assert np.array_equal(riccati_backward(*args), scalar_riccati_backward(*args))


def test_short_grids():
    for r in (np.array([0.0]), np.array([0.0, 1.0])):
        args = (r, 0.1, 0.01, _step(1.0, 2.0))
        assert np.array_equal(riccati_backward(*args), scalar_riccati_backward(*args))
