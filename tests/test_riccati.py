import numpy as np
import pytest

from carlab import ConstructionError, build_weight_tables
from carlab.kernels import riccati_backward
from carlab import weights
from carlab.weights import eval_psi, radial_grid, solve_phi_riccati


@pytest.mark.parametrize("h", [0.05, 0.1, 0.2])
def test_constant_profile_matches_tanh(h):
    # separable solution of u' = (u^2 - k)/h with u(R) = 0
    k, R = 2.5, 1.7
    r = np.linspace(0.0, R, 1500)
    u = riccati_backward(r, h, h / 80.0, lambda x: np.where(x <= R, k, 0.0))
    exact = np.sqrt(k) * np.tanh(np.sqrt(k) * (R - r) / h)
    rel = np.abs(u - exact).max() / exact.max()
    assert rel <= 1e-8


def test_zero_profile_gives_zero():
    r = np.linspace(0.0, 3.0, 500)
    u = riccati_backward(r, 0.1, 0.01, np.zeros_like)
    assert np.all(u == 0.0)


def test_solution_within_invariant_interval(combo_tables):
    # [0, sqrt(sup psi)] is backward-invariant under the flow
    for wt in combo_tables.values():
        assert wt.u.min() >= 0.0
        assert wt.u.max() <= np.sqrt(wt.psi.max()) + 1e-9


def test_residual_within_tolerance(combo_tables):
    for wt in combo_tables.values():
        assert wt.riccati_resid <= 1e-6


def test_tail_exactly_zero(combo_tables):
    for wt in combo_tables.values():
        assert np.all(wt.u[wt.grid.i_r1:] == 0.0)


def test_kernel_integrates_only_up_to_r1(baseline_spec, monkeypatch):
    # the kernel starts at u(R1) = 0; [R1, r_max] is filled without it
    grids = []

    def spy(r, *args):
        grids.append(np.array(r))
        return riccati_backward(r, *args)

    monkeypatch.setattr(weights, "riccati_backward", spy)
    grid = radial_grid(baseline_spec)
    u, phi, _, _ = solve_phi_riccati(baseline_spec, 0.05, grid)
    assert len(grids) == 1
    assert grids[0][0] == 0.0 and grids[0][-1] == baseline_spec.R1
    assert np.array_equal(grids[0][1:], grid.nodes[: grid.i_r1 + 1])
    assert np.all(u[grid.i_r1:] == 0.0)
    assert np.all(phi[grid.i_r1:] == phi[grid.i_r1])


def test_kernel_integrates_the_gated_psi(baseline_spec, monkeypatch):
    # the kernel steps through the same psi that riccati_residual checks,
    # bit for bit, also at the kinks and their one-ulp neighbours
    profiles = []

    def spy(r, h, substep, psi):
        profiles.append(psi)
        return riccati_backward(r, h, substep, psi)

    monkeypatch.setattr(weights, "riccati_backward", spy)
    s = baseline_spec
    solve_phi_riccati(s, 0.05, radial_grid(s))
    assert len(profiles) == 1
    x = np.concatenate([
        [0.0, 0.5 * s.R0, 0.5 * (s.R0 + s.R1), 2.0 * s.R1],
        [np.nextafter(s.R0, 0.0), s.R0, np.nextafter(s.R0, np.inf)],
        [np.nextafter(s.R1, 0.0), s.R1, np.nextafter(s.R1, np.inf)],
    ])
    np.testing.assert_array_equal(profiles[0](x), eval_psi(s, x))


def test_phi_normalization(baseline_tables):
    wt = baseline_tables
    # phi(0) = 0 by construction, so phi(r_min) is one trapezoid cell
    assert wt.phi[0] == pytest.approx(0.5 * (wt.u0 + wt.u[0]) * wt.r[0], rel=1e-12)
    assert wt.C0 == 2.0 * wt.phi[-1]
    # phi is exactly constant beyond R1
    tail = wt.phi[wt.grid.i_r1:]
    assert np.all(tail == tail[0])
    assert wt.phi[-1] == pytest.approx(wt.max_phi, rel=1e-15)


def test_phi_monotone(baseline_tables):
    assert np.all(np.diff(baseline_tables.phi) >= 0.0)


def test_nonpositive_h_rejected(baseline_spec):
    grid = radial_grid(baseline_spec, n_inner=64, n_mid=256, n_outer=64)
    with pytest.raises(ConstructionError, match="h must be positive"):
        solve_phi_riccati(baseline_spec, 0.0, grid)


def test_coarse_grid_fails_residual_gate(baseline_spec):
    grid = radial_grid(baseline_spec, n_inner=8, n_mid=16, n_outer=8)
    with pytest.raises(ConstructionError, match="residual above tolerance"):
        solve_phi_riccati(baseline_spec, 0.02, grid)


def test_substep_refinement_consistent(baseline_spec):
    grid = radial_grid(baseline_spec, n_inner=200, n_mid=1200, n_outer=200)
    u_a, *_ = solve_phi_riccati(baseline_spec, 0.08, grid, substep_factor=80.0)
    u_b, *_ = solve_phi_riccati(baseline_spec, 0.08, grid, substep_factor=160.0)
    assert np.abs(u_a - u_b).max() <= 1e-9


def test_tables_rebuildable_at_smaller_h(baseline_spec):
    wt = build_weight_tables(baseline_spec, h=0.02)
    assert wt.riccati_resid <= 1e-6
    assert wt.u.max() <= np.sqrt(wt.psi.max()) + 1e-9
