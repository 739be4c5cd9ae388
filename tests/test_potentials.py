import re

import numpy as np
import pytest

from carlab import BoxDiscretization, ConstructionError, catalog_potential, catalog_radial


def test_zero_is_trivially_admissible():
    r = np.linspace(0.0, 5.0, 100)
    s = catalog_radial("zero", 0.4, r)
    assert np.all(s.values == 0.0)
    assert np.all(s.radial_derivative == 0.0)


def test_radial_decay_envelope_on_grid():
    r = np.linspace(0.0, 20.0, 5000)
    s = catalog_radial("radial_decay", 0.4, r, c=1.0)
    rho = 1.0 + r
    assert np.all(s.values <= rho ** (-0.4) + 1e-15)
    # |dV| = (c/2) d0 r (1+r^2)^(-d0/2-1) stays under the gradient envelope
    assert np.all(np.abs(s.radial_derivative) <= rho ** (-1.4) + 1e-15)


def test_trapping_ring_reports_fitted_c():
    r = np.linspace(0.0, 6.0, 4000)
    s = catalog_radial("trapping_ring", 0.4, r, E=1.0, A=2.0, rho=1.0, sigma=0.25)
    rho_env = (1.0 + r) ** 0.4
    assert s.c == pytest.approx(
        max((s.values * rho_env).max(), (np.abs(s.radial_derivative) * (1.0 + r) ** 1.4).max())
    )
    assert s.values.max() > 1.0  # barrier tops the energy


def test_trapping_ring_requires_barrier_above_energy():
    r = np.linspace(0.0, 6.0, 100)
    with pytest.raises(ConstructionError, match="A > E"):
        catalog_radial("trapping_ring", 0.4, r, E=3.0, A=2.0, rho=1.0, sigma=0.25)


@pytest.mark.parametrize("A, rho, sigma", [
    (2.0, 1.0, 1e-200),  # sigma^2 underflows
    (2.0, 1.0, 1e200),   # sigma^2 overflows
    (1e308, 1.0, 0.25),  # dV/dr overflows next to the ring
])
def test_unrepresentable_ring_names_its_parameters(A, rho, sigma):
    with pytest.raises(ConstructionError, match=re.escape(f"A={A}, rho={rho}, sigma={sigma}")):
        catalog_radial("trapping_ring", 0.4, np.linspace(0.0, 6.0, 601), A=A, rho=rho, sigma=sigma)


@pytest.mark.parametrize("rho", [1e300, 1.7e308])
def test_far_ring_is_exactly_zero(rho):
    # (r - rho)^2 overflows: the exponent is -inf, and V = dV = 0 are exact
    s = catalog_radial("trapping_ring", 0.4, np.linspace(0.0, 6.0, 601), A=2.0, rho=rho,
                       sigma=0.25)
    assert np.all(s.values == 0.0) and np.all(s.radial_derivative == 0.0)


def test_unknown_id_rejected():
    with pytest.raises(ConstructionError, match="unknown potential id"):
        catalog_radial("bogus", 0.4, np.linspace(0, 1, 10))


@pytest.mark.parametrize("name", ["zero", "radial_decay", "trapping_ring"])
def test_field2d_is_the_radial_sample_at_the_box_radii(name):
    # for a radial V, |grad V| = |dV/dr|: the box sample is exact, not differenced
    kw = {"E": 1.0, "A": 2.0, "rho": 1.0, "sigma": 0.25} if name == "trapping_ring" else {}
    disc = BoxDiscretization(L=2.5, n=64)
    s = catalog_potential(name, 0.4, disc, **kw)
    ref = catalog_radial(name, 0.4, disc.radii(), **kw)
    assert s.mode == "field2d" and ref.mode == "radial"
    assert np.array_equal(s.r, ref.r)
    assert np.array_equal(s.values, ref.values)
    assert np.array_equal(s.radial_derivative, ref.radial_derivative)
    assert s.c == ref.c


def test_field2d_zero_at_origin_node():
    disc = BoxDiscretization(L=2.0, n=25)
    s = catalog_potential("radial_decay", 0.4, disc, c=1.0)
    i0 = int(np.argmin(s.r))
    assert s.r[i0] == 0.0
    assert s.radial_derivative[i0] == 0.0


@pytest.mark.parametrize("c", [0.0, -1.0])
def test_envelope_constant_is_abs_c(c):
    # the check compares against |c| and never divides by it
    s = catalog_radial("radial_decay", 0.4, np.linspace(0.0, 20.0, 500), c=c)
    assert s.c == abs(c)
