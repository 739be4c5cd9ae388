from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigh_tridiagonal

from carlab import (
    BoxDiscretization,
    PowerIterationError,
    SolverError,
    assemble,
    catalog_potential,
    dense_resolvent_norm,
    factor_shifted,
    weight_diag,
    weighted_resolvent_norm,
)
from carlab.resolvent import LU_OPTIONS, _top_ritz_pair


def _operator(disc, name, h, E=1.0, **params):
    V = catalog_potential(name, 0.4, disc, E=E, **params)
    return assemble(V, E, h, disc, check_resolution=False)


def test_unweighted_respects_spectral_bound(small_box):
    # with all-ones weights the estimate cannot exceed the resolvent bound 1/eps
    op = _operator(small_box, "zero", 0.25)
    ones = weight_diag(small_box, 0.0)
    assert np.all(ones == 1.0)
    eps, tol = 5e-2, 1e-8
    est = weighted_resolvent_norm(factor_shifted(op.matrix, eps), ones, ones, tol=tol)
    assert est.value <= (1.0 + tol) / eps


def test_matches_dense_svd_over_random_draws(small_box, rng):
    w = weight_diag(small_box, 0.6)
    cases = []
    for _ in range(5):
        name = rng.choice(["zero", "radial_decay", "trapping_ring"])
        h = rng.uniform(0.15, 0.35)
        eps = 10.0 ** rng.uniform(-6, -2)
        params = {"A": 2.0, "rho": 1.0, "sigma": 0.25} if name == "trapping_ring" else {}
        cases.append((str(name), h, eps, params))
    for name, h, eps, params in cases:
        op = _operator(small_box, name, h, **params)
        est = weighted_resolvent_norm(factor_shifted(op.matrix, eps), w, w,
                                      tol=1e-9, max_iter=100, seed=11)
        oracle = dense_resolvent_norm(op, eps, w, w)
        assert abs(est.value - oracle) / oracle <= 1e-6
        assert est.value <= (1.0 + 1e-9) / eps
        # iterations counts A*A applications, the certifying one included
        assert 1 <= est.iterations <= 100


def test_any_lu_matches_dense_svd(small_box):
    # the norm takes any LU, not only one of P - i eps: a complex-symmetric
    # absorbing-frame operator P + i diag(sigma) and the Hermitian
    # quasi-definite [[I, P], [P, -delta I]] match the dense SVD too
    P = _operator(small_box, "trapping_ring", 0.25, A=2.0, rho=1.0, sigma=0.25).matrix
    X, Y = small_box.mesh()
    depth = np.maximum(abs(X), abs(Y)).ravel() / small_box.L - 0.75
    sigma = 4.0 * np.maximum(depth, 0.0)
    eye = sp.identity(small_box.size)
    w = weight_diag(small_box, 0.6)
    cases = [
        (P + 1j * sp.diags(sigma), w),
        (sp.bmat([[eye, P], [P, -1e-2 * eye]]), np.concatenate([w, w])),
    ]
    for M, wm in cases:
        M = M.astype(complex).tocsc()
        est = weighted_resolvent_norm(spla.splu(M, **LU_OPTIONS), wm, wm, tol=1e-9, seed=5)
        oracle = np.linalg.svd(wm[:, None] * np.linalg.inv(M.toarray()) * wm[None, :],
                               compute_uv=False)[0]
        assert abs(est.value - oracle) / oracle <= 1e-6
        assert est.residual <= 1e-9


def test_degenerate_top_pair_matches_dense_svd(small_box):
    # the square box's symmetry makes the top singular value of the
    # unweighted resolvent exactly double; Lanczos must still find it
    op = _operator(small_box, "zero", 0.3)
    w = weight_diag(small_box, 0.0)
    for eps in (1e-2, 1e-6):
        sv = np.linalg.svd(np.linalg.inv(op.shifted(eps).toarray()), compute_uv=False)
        assert sv[0] - sv[1] <= 1e-12 * sv[0]
        est = weighted_resolvent_norm(factor_shifted(op.matrix, eps), w, w, tol=1e-9, seed=4)
        assert abs(est.value - sv[0]) / sv[0] <= 1e-6


def test_exterior_weight_beyond_box_gives_zero(small_box):
    op = _operator(small_box, "zero", 0.25)
    w = weight_diag(small_box, 0.6, R=10.0 * small_box.L)
    assert np.all(w == 0.0)
    est = weighted_resolvent_norm(factor_shifted(op.matrix, 1e-3), w, w)
    assert est.value == 0.0


def test_exterior_weight_on_few_nodes_breaks_down(small_box):
    # only the four corner nodes lie beyond R, so A*A has rank 4 and the
    # Krylov space is exhausted: Lanczos must stop on the breakdown without
    # dividing by the vanishing beta, and still match the dense SVD
    w = weight_diag(small_box, 0.6, R=2.8)
    nonzero = int(np.count_nonzero(w))
    assert nonzero == 4
    for name, params in (("zero", {}), ("trapping_ring", {"A": 2.0, "rho": 1.0, "sigma": 0.25})):
        op = _operator(small_box, name, 0.25, **params)
        for eps in (1e-4, 1e-2):
            with np.errstate(divide="raise", invalid="raise"):
                est = weighted_resolvent_norm(factor_shifted(op.matrix, eps), w, w, seed=0)
            oracle = dense_resolvent_norm(op, eps, w, w)
            assert abs(est.value - oracle) / oracle <= 1e-6
            assert est.iterations <= nonzero + 1


@pytest.mark.parametrize("k", [0, 1, 2, 40, 300])
@pytest.mark.parametrize("breakdown", [False, True])
def test_top_ritz_pair_matches_eigh_tridiagonal(k, breakdown):
    # the direct LAPACK calls must give bitwise the pair the scipy wrapper
    # gives, also when an off-diagonal entry is zero and the matrix splits
    rng = np.random.default_rng(k)
    alpha, beta = list(rng.standard_normal(k + 1)), list(np.abs(rng.standard_normal(k)))
    if breakdown and k:
        beta[k // 2] = 0.0
    theta, s = _top_ritz_pair(alpha, beta)
    theta_ref, s_ref = eigh_tridiagonal(alpha, beta, select="i", select_range=(k, k))
    assert theta.tobytes() == theta_ref.tobytes() and s.tobytes() == s_ref.tobytes()
    assert s.shape == s_ref.shape == (k + 1, 1)


def test_top_ritz_pair_rejects_non_finite_entries():
    # eigh_tridiagonal's finiteness check, kept where LAPACK is called directly
    for alpha, beta in (([1.0, np.nan], [0.5]), ([1.0, 2.0], [np.inf])):
        with pytest.raises(SolverError, match="not finite"):
            _top_ritz_pair(alpha, beta)


def test_adjoint_solve_by_transpose(small_box, rng):
    # the norm applies A* with the LU of the operator it is given (in a
    # sweep, a sector operator's P - i eps): its trans="H" solve is a
    # solve with (P - i eps)^* = P + i eps
    op = _operator(small_box, "radial_decay", 0.25, c=1.0)
    y = rng.standard_normal((small_box.size, 3)) + 1j * rng.standard_normal((small_box.size, 3))
    for eps in (1e-6, 1e-4, 5e-2):
        adjoint = factor_shifted(op.matrix, eps).solve(y, trans="H")
        direct = spla.splu(op.shifted(-eps), **LU_OPTIONS).solve(y)
        assert np.linalg.norm(adjoint - direct) <= 1e-10 * np.linalg.norm(direct)


def test_adjoint_solve_by_conjugation(small_box, rng):
    # P is real symmetric, so the one LU of P - i eps also solves with
    # (P - i eps)^* = P + i eps by conjugation, bit for bit under the same
    # LU options
    op = _operator(small_box, "radial_decay", 0.25, c=1.0)
    y = rng.standard_normal((small_box.size, 3)) + 1j * rng.standard_normal((small_box.size, 3))
    for eps in (1e-6, 1e-4, 5e-2):
        conj_form = np.conj(factor_shifted(op.matrix, eps).solve(np.conj(y)))
        np.testing.assert_array_equal(
            conj_form, spla.splu(op.shifted(-eps), **LU_OPTIONS).solve(y)
        )


def test_monotone_in_exterior_radius(small_box):
    op = _operator(small_box, "trapping_ring", 0.25, A=2.0, rho=1.0, sigma=0.25)
    values = []
    for R in (0.8, 1.3, 1.8):
        w = weight_diag(small_box, 0.6, R=R)
        lu = factor_shifted(op.matrix, 1e-4)
        values.append(weighted_resolvent_norm(lu, w, w, tol=1e-10, seed=2).value)
    assert values[0] >= values[1] - 1e-8
    assert values[1] >= values[2] - 1e-8


def test_max_iter_carries_estimate(small_box):
    op = _operator(small_box, "zero", 0.25)
    w = weight_diag(small_box, 0.6)
    with pytest.raises(PowerIterationError) as err:
        weighted_resolvent_norm(factor_shifted(op.matrix, 1e-4), w, w, tol=1e-16, max_iter=2)
    assert err.value.estimate is not None
    assert err.value.estimate > 0.0
    assert err.value.iterations == 2


def test_max_iter_estimate_is_top_ritz_value(small_box):
    # the cap error carries sqrt of the latest top Ritz value, which climbs
    # to the norm from below; the last applied Lanczos vector's Rayleigh
    # quotient read 3.07, 2.18 and 3.19 here
    op = _operator(small_box, "zero", 0.25)
    w = weight_diag(small_box, 0.6)
    dense = dense_resolvent_norm(op, 1e-4, w, w)
    assert dense == pytest.approx(15.0214, abs=1e-4)
    for max_iter in (4, 6, 8):
        with pytest.raises(PowerIterationError) as err:
            weighted_resolvent_norm(factor_shifted(op.matrix, 1e-4), w, w,
                                    tol=1e-16, max_iter=max_iter)
        assert err.value.iterations == max_iter
        assert abs(err.value.estimate - dense) <= 1e-3
        assert err.value.estimate <= (1.0 + 1e-9) * dense


def test_zero_max_iter_applies_nothing(small_box):
    # the cap is checked before each application, so max_iter = 0 applies
    # nothing and still ends in the solver error
    op = _operator(small_box, "zero", 0.25)
    w = weight_diag(small_box, 0.6)
    with pytest.raises(PowerIterationError) as err:
        weighted_resolvent_norm(factor_shifted(op.matrix, 1e-4), w, w, max_iter=0)
    assert err.value.iterations == 0


@pytest.mark.parametrize("name,params", [
    ("zero", {}),
    ("trapping_ring", {"A": 2.0, "rho": 1.0, "sigma": 0.25}),
])
def test_eps_ladder_saturates(name, params):
    # limiting-absorption echo: once eps drops below the spectral distance
    # the weighted norm freezes at its eps -> 0 value instead of growing
    # like 1/eps (a factor 1e4 over this ladder)
    disc = BoxDiscretization(L=2.5, n=64)
    V = catalog_potential(name, 0.4, disc, E=1.0, **params)
    w = weight_diag(disc, 0.6)
    op = assemble(V, 1.0, 0.4, disc, check_resolution=False)
    vals = np.array([
        weighted_resolvent_norm(factor_shifted(op.matrix, eps), w, w, tol=1e-9, seed=3).value
        for eps in (1e-2, 1e-4, 1e-6)
    ])
    assert vals.max() <= 2.5 * vals.min()


def test_grid_convergence_at_largest_h():
    # truncation/resolution control: doubling n moves the estimate by < 5%.
    # eps sits above the box level spacing so the check measures the
    # discretization, not the drift of individual box resonances.
    h, eps = 0.4, 0.2
    vals = []
    for n in (64, 128, 256):
        disc = BoxDiscretization(L=2.5, n=n)
        op = _operator(disc, "zero", h)
        w = weight_diag(disc, 0.6)
        lu = factor_shifted(op.matrix, eps)
        vals.append(weighted_resolvent_norm(lu, w, w, tol=1e-9, seed=1).value)
    for coarse, fine in zip(vals, vals[1:]):
        assert abs(fine - coarse) / coarse <= 0.05


def test_readme_library_block_runs(small_box):
    # every name the README imports exists, and its example gives the dense norm
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library entry points")[1].split("```python\n")[1].split("```")[0]
    imports, example = block.strip().split("\n\n")
    *steps, last = example.splitlines()
    scope = {"V": catalog_potential("zero", 0.4, small_box), "E": 1.0, "h": 0.8,
             "disc": small_box, "s": 0.6, "eps": 0.2}
    exec(imports, scope)
    exec("\n".join(steps), scope)
    value = eval(last, scope)
    oracle = dense_resolvent_norm(scope["op"], 0.2, scope["w"], scope["w"])
    assert abs(value - oracle) <= 1e-6 * oracle
