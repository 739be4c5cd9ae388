import json
from pathlib import Path

import numpy as np
import pytest

from carlab import ConstructionError, build_weight_tables, cli
from carlab.kernels import riccati_backward
from carlab import kernels, weights
from carlab.weights import eval_psi, radial_grid, solve_phi_riccati


@pytest.mark.parametrize("h", [0.05, 0.1, 0.2])
def test_constant_profile_matches_tanh(h):
    # separable solution of u' = (u^2 - k)/h with u(R) = 0
    k, R = 2.5, 1.7
    r = np.linspace(0.0, R, 1500)
    u = riccati_backward(r, h, psi=lambda x: np.where(x <= R, k, 0.0))
    exact = np.sqrt(k) * np.tanh(np.sqrt(k) * (R - r) / h)
    rel = np.abs(u - exact).max() / exact.max()
    assert rel <= 1e-8


def test_zero_profile_gives_zero():
    r = np.linspace(0.0, 3.0, 500)
    u = riccati_backward(r, 0.1, psi=np.zeros_like)
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

    def spy(r, h, *, psi):
        grids.append(np.array(r))
        return riccati_backward(r, h, psi=psi)

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

    def spy(r, h, *, psi):
        profiles.append(psi)
        return riccati_backward(r, h, psi=psi)

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
    assert wt.phi[-1] == pytest.approx(wt.C0 / 2.0, rel=1e-15)


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


def test_substep_refinement_consistent(baseline_spec, monkeypatch):
    # a 100x tighter local error per step takes more steps and moves u little
    grid = radial_grid(baseline_spec, n_inner=200, n_mid=1200, n_outer=200)
    u_a, *_ = solve_phi_riccati(baseline_spec, 0.08, grid)
    monkeypatch.setattr(kernels, "TOL", kernels.TOL / 100.0)
    u_b, *_ = solve_phi_riccati(baseline_spec, 0.08, grid)
    assert np.abs(u_a - u_b).max() <= 1e-9


def test_tables_rebuildable_at_smaller_h(baseline_spec):
    wt = build_weight_tables(baseline_spec, h=0.02)
    assert wt.riccati_resid <= 1e-6
    assert wt.u.max() <= np.sqrt(wt.psi.max()) + 1e-9


# ----------------------------------------------------------------------------
# the one-pass residual gate against the per-piece stencils it replaced
# ----------------------------------------------------------------------------

ROOT = Path(__file__).resolve().parents[1]


def lagrange5_derivative_per_piece(x, y):
    """The full 5-point double sum over one piece: the oracle."""
    n = x.size
    j0 = np.clip(np.arange(n) - 2, 0, n - 5)
    idx = j0[:, None] + np.arange(5)[None, :]
    xs = x[idx]
    ys = y[idx]
    d = np.zeros(n)
    for a in range(5):
        la = np.zeros(n)
        for b in range(5):
            if b == a:
                continue
            prod = np.ones(n)
            for c in range(5):
                if c == a or c == b:
                    continue
                prod *= (x - xs[:, c]) / (xs[:, a] - xs[:, c])
            la += prod / (xs[:, a] - xs[:, b])
        d += ys[:, a] * la
    return d


def riccati_residual_per_piece(spec, grid, h, u):
    """The gate piece by piece with the oracle stencils (finite u only: the
    running max() here drops a piece whose max is nan)."""
    r = grid.nodes
    worst = 0.0
    for lo, hi in [(0, grid.i_r0 + 1), (grid.i_r0, grid.i_r1 + 1), (grid.i_r1, r.size)]:
        up = lagrange5_derivative_per_piece(r[lo:hi], u[lo:hi])
        res = np.abs(u[lo:hi] ** 2 - h * up - eval_psi(spec, r[lo:hi]))
        worst = max(worst, float(res.max()))
    return worst


def gate_pieces(grid):
    return [(0, grid.i_r0 + 1), (grid.i_r0, grid.i_r1 + 1), (grid.i_r1, grid.nodes.size)]


def built_configs():
    """Both shipped configs and every benchmarked construct-verify point that builds."""
    configs = {path.stem: json.loads(path.read_text()) for path in sorted((ROOT / "configs").glob("*.json"))}
    reference = json.loads((ROOT / "perfbench" / "reference" / "construct-verify.json").read_text())
    configs.update({item["name"]: item["config"] for item in reference["inputs"]
                    if "known_defect" not in item})
    return configs


def assert_gate_matches_oracle(spec, grid, h, u):
    r = grid.nodes
    expected = np.concatenate([lagrange5_derivative_per_piece(r[lo:hi], u[lo:hi])
                               for lo, hi in gate_pieces(grid)])
    assert np.array_equal(weights._lagrange5_derivative(r, u, gate_pieces(grid)), expected)
    assert weights.riccati_residual(spec, grid, h, u) == riccati_residual_per_piece(spec, grid, h, u)


@pytest.mark.parametrize("name", sorted(built_configs()))
def test_residual_gate_equals_per_piece_oracle_on_built_configs(name):
    cfg = cli._merge(cli.SCHEMA, built_configs()[name])
    spec = cli._spec(cfg, cli._params(cfg))
    wt = build_weight_tables(spec, None if cfg["weights"]["h"] == "auto" else float(cfg["weights"]["h"]),
                             cli._grid(cfg, spec))
    assert_gate_matches_oracle(spec, wt.grid, wt.h, wt.u)


@pytest.mark.parametrize("nodes", [5, 6])
def test_residual_gate_equals_per_piece_oracle_on_smallest_pieces(baseline_spec, rng, nodes):
    grid = radial_grid(baseline_spec, n_inner=nodes, n_mid=nodes, n_outer=nodes)
    assert [hi - lo for lo, hi in gate_pieces(grid)] == [nodes] * 3
    u = np.sqrt(eval_psi(baseline_spec, grid.nodes)) * (1.0 + 0.01 * rng.standard_normal(grid.nodes.size))
    assert_gate_matches_oracle(baseline_spec, grid, 0.05, u)


def test_residual_gate_equals_per_piece_oracle_on_random_graded_grids(baseline_spec, rng):
    for _ in range(40):
        sizes = rng.integers(5, 60, 3)
        x = np.cumsum(np.exp(rng.uniform(-8.0, 4.0, sizes.sum() - 2)))
        pieces = [(0, sizes[0]), (sizes[0] - 1, sizes[:2].sum() - 1), (sizes[:2].sum() - 2, x.size)]
        y = rng.standard_normal(x.size) * 10.0 ** rng.uniform(-3, 3)
        expected = np.concatenate([lagrange5_derivative_per_piece(x[lo:hi], y[lo:hi]) for lo, hi in pieces])
        assert np.array_equal(weights._lagrange5_derivative(x, y, pieces), expected)
    spec = baseline_spec
    for n_inner, n_mid, n_outer in rng.integers(5, 400, (6, 3)):
        grid = radial_grid(spec, n_inner=n_inner, n_mid=n_mid, n_outer=n_outer)
        u = np.sqrt(eval_psi(spec, grid.nodes)) + 1e-3 * rng.standard_normal(grid.nodes.size)
        assert_gate_matches_oracle(spec, grid, float(rng.uniform(0.01, 0.5)), u)


@pytest.mark.parametrize("node", ["r_min", "R0", "mid", "R1", "r_max"])
def test_residual_gate_is_nan_where_u_is_nan(baseline_spec, node):
    # a nan in any piece, kink nodes included, fails the gate instead of
    # hiding behind the other pieces' maxima
    grid = radial_grid(baseline_spec)
    u = np.sqrt(eval_psi(baseline_spec, grid.nodes))
    u[{"r_min": 0, "R0": grid.i_r0, "mid": grid.i_r0 + 7, "R1": grid.i_r1, "r_max": -1}[node]] = np.nan
    assert np.isnan(weights.riccati_residual(baseline_spec, grid, 0.05, u))
