import math
import tracemalloc

import numpy as np
import pytest

from carlab import kernels
from carlab.kernels import riccati_backward
from carlab.weights import eval_psi, radial_grid


def _step(k, R):
    return lambda x: np.where(x <= R, k, 0.0)


def scalar_riccati_backward(r, h, substep, psi):
    """Reference: RK4 at max(1, ceil(span/substep)) equal steps per span.

    The abscissae are accumulated one step at a time, and psi is evaluated
    once per span on its ends and midpoints.
    """
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
        ends = [ra]
        for _ in range(m):
            ends.append(ends[-1] + dt)
        pe = psi(np.array(ends)).tolist()
        pm = psi(np.array(ends[:-1]) + 0.5 * dt).tolist()
        for j in range(m):
            k1 = (uu * uu - pe[j]) / h
            v2 = uu + 0.5 * dt * k1
            k2 = (v2 * v2 - pm[j]) / h
            v3 = uu + 0.5 * dt * k2
            k3 = (v3 * v3 - pm[j]) / h
            v4 = uu + dt * k3
            k4 = (v4 * v4 - pe[j + 1]) / h
            uu = uu + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        u[i - 1] = uu
    return u


def scalar_magnus_backward(r, h, psi, tol, counts=None):
    """Reference: the kernel's Magnus steps, one at a time in scalar math.

    Each span takes max(1, ceil((err/tol)^(1/5))) equal steps, err being
    |one step - two half steps| at u = 0 and at u = sqrt(max psi on the
    nodes). The step count of each span is appended to counts, if given.
    """
    g = math.sqrt(3.0) / 6.0

    def coefficients(lo, a):
        p1, p2 = (float(psi(np.array([x]))[0]) for x in (lo + (0.5 - g) * a, lo + (0.5 + g) * a))
        b = a / h
        d = 0.5 * b * (p1 + p2)
        c = math.sqrt(3.0) / 12.0 * b * b * (p1 - p2)
        s = math.sqrt(b) * math.sqrt(d)
        mu = math.hypot(c, s)
        t = math.tanh(mu) / mu if mu > 0.0 else 1.0
        if mu >= 1.0 and c >= 0.0:
            e = math.exp(-2.0 * mu)
            p = (s * (s / (mu + c)) + c * (2.0 * e / (1.0 + e))) / mu
        else:
            p = 1.0 - t * c
        return t * d, 2.0 * t * c, t * b, p

    def step(coef, u):
        td, tc2, tb, p = coef
        return u + (td + u * (tc2 - tb * u)) / (p + tb * u)

    spans = [(r[i - 1], r[i] - r[i - 1]) for i in range(r.size - 1, 0, -1)]
    trial = [[coefficients(lo, a), coefficients(lo + 0.5 * a, 0.5 * a),
              coefficients(lo, 0.5 * a)] for lo, a in spans]
    top = math.sqrt(max(float(psi(np.array([x]))[0]) for x in r[:-1]))
    u = np.zeros(r.size)
    uu = 0.0
    for i, ((lo, a), three) in enumerate(zip(spans, trial)):
        whole, upper, lower = three
        err = max(abs(step(whole, u0) - step(lower, step(upper, u0))) for u0 in (0.0, top))
        m = max(1, math.ceil((err / tol) ** 0.2))
        if counts is not None:
            counts.append(m)
        for left in range(m - 1, -1, -1):
            w = a / m
            uu = step(whole if m == 1 else coefficients(lo + left * w, w), uu)
        u[r.size - 2 - i] = uu
    return u


def _one_step_per_span(monkeypatch, one):
    if one:
        monkeypatch.setattr(kernels, "TOL", math.inf)
    return kernels.TOL


def _assert_matches_reference(args, tol):
    r, h, psi = args
    got = riccati_backward(r, h, psi=psi)
    ref = scalar_magnus_backward(r, h, psi, tol)
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= 1e-12 * max(np.abs(ref).max(), 1e-300)


def _piecewise_args(spec):
    r = np.concatenate([[0.0], np.geomspace(1e-4, spec.R1, 800)])
    r[-1] = spec.R1
    return r, 0.05, lambda x: eval_psi(spec, x)


def _constant_args():
    # the jump at R = 1.0 falls inside a span, which therefore takes many steps
    return np.linspace(0.0, 1.7, 60), 0.1, _step(2.5, 1.0)


@pytest.mark.parametrize("one", [True, False], ids=["one_substep", "many_substeps"])
def test_piecewise_profile_matches_scalar_reference(monkeypatch, baseline_spec, one):
    _assert_matches_reference(_piecewise_args(baseline_spec), _one_step_per_span(monkeypatch, one))


@pytest.mark.parametrize("one", [True, False], ids=["one_substep", "many_substeps"])
def test_constant_profile_matches_scalar_reference(monkeypatch, one):
    _assert_matches_reference(_constant_args(), _one_step_per_span(monkeypatch, one))


@pytest.mark.parametrize("chunk", [1, 3, "split"])
@pytest.mark.parametrize("profile", ["piecewise", "constant"])
def test_blocked_solve_equals_scalar_reference(monkeypatch, baseline_spec, profile, chunk):
    # blocks of any size, a span split across two blocks included, take the
    # same steps as the one-step-at-a-time loop, bit for bit whatever the size
    args = _piecewise_args(baseline_spec) if profile == "piecewise" else _constant_args()
    r, h, psi = args
    whole = riccati_backward(r, h, psi=psi)
    if chunk == "split":
        counts = []
        scalar_magnus_backward(r, h, psi, kernels.TOL, counts)
        chunk = max(counts) - 1  # the longest span cannot fit in one block
        assert chunk > 1
    monkeypatch.setattr(kernels, "_CHUNK", chunk)
    _assert_matches_reference(args, kernels.TOL)
    assert np.array_equal(riccati_backward(r, h, psi=psi), whole)


def _wavy(x):
    return 2.5 + 2.0 * np.sin(10.0 * x)


def test_solve_memory_does_not_grow_with_substeps(monkeypatch):
    # a tolerance of 1e-16 makes 10 spans take 23k steps, built in blocks of 64
    monkeypatch.setattr(kernels, "_CHUNK", 64)
    monkeypatch.setattr(kernels, "TOL", 1e-16)
    r = np.linspace(0.0, 1.7, 11)
    counts = []
    scalar_magnus_backward(r, 1e-3, _wavy, kernels.TOL, counts)
    total = sum(counts)
    assert total > 128 * kernels._CHUNK
    riccati_backward(r[-3:], 1e-3, psi=_wavy)  # first-call allocations stay untraced
    tracemalloc.start()
    try:
        riccati_backward(r, 1e-3, psi=_wavy)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * total  # less than one float64 per step


@pytest.mark.parametrize("substep", [1.0, 1e-3])  # the reference at one step per span, then 21
def test_zero_profile_matches_scalar_reference(substep):
    r = np.linspace(0.0, 1.0, 50)
    got = riccati_backward(r, 0.1, psi=np.zeros_like)
    assert np.array_equal(got, scalar_riccati_backward(r, 0.1, substep, np.zeros_like))


def test_short_grids():
    assert np.array_equal(riccati_backward(np.array([0.0]), 0.1, psi=_step(1.0, 2.0)), [0.0])
    u = riccati_backward(np.array([0.0, 1.0]), 0.1, psi=_step(1.0, 2.0))
    assert u[1] == 0.0 and u[0] == pytest.approx(math.tanh(10.0), rel=1e-15)


@pytest.mark.parametrize("h", [0.05, 0.01])
def test_matches_fine_rk4_on_the_radial_grid(baseline_spec, h):
    # the solve's own grid, [0] + the nodes up to R1, against RK4 at h/2000
    grid = radial_grid(baseline_spec)
    r = np.concatenate([[0.0], grid.nodes[: grid.i_r1 + 1]])

    def psi(x):
        return eval_psi(baseline_spec, x)

    ref = scalar_riccati_backward(r, h, h / 2000.0, psi)
    got = riccati_backward(r, h, psi=psi)
    assert np.abs(got - ref).max() <= 1e-8 * np.abs(ref).max()


def test_constant_profile_exact_across_wide_spans():
    # one Magnus step is exact for constant psi, so a span 49 h wide below
    # the layer loses nothing; RK4 at h/80 is off by 1.9e-9 here
    k, R, h = 2.5, 1.7, 0.02
    r = np.concatenate([[0.0], np.linspace(49 * h, R, 1500)])
    u = riccati_backward(r, h, psi=_step(k, R))
    exact = np.sqrt(k) * np.tanh(np.sqrt(k) * (R - r) / h)
    assert np.abs(u - exact).max() <= 1e-13 * exact.max()
