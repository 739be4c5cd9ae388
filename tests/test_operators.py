from dataclasses import FrozenInstanceError

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from carlab import (
    BoxDiscretization,
    ConstructionError,
    assemble,
    catalog_potential,
    factor_shifted,
)


@pytest.fixture(scope="module")
def box12():
    return BoxDiscretization(L=1.5, n=12)


def test_spacing():
    disc = BoxDiscretization(L=2.0, n=65)
    assert disc.a == pytest.approx(4.0 / 64.0)
    assert disc.size == 65 * 65


def test_axis_exactly_odd_with_centre_node():
    # linspace is not mirror-exact: at (n, L) = (25, 6.44) its centre node
    # is 8.9e-16, not 0.  The axis must be odd bit for bit, keep the ends at
    # +-L, put odd n's centre node exactly at 0, and stay within 2 ulp of L
    # of linspace
    for L in (2.0, 2.5, 3.0, 6.44, 1.0 / 3.0, 1.5):
        for n in range(4, 400):
            x = BoxDiscretization(L=L, n=n).axis()
            np.testing.assert_array_equal(x, -x[::-1])
            assert x[0] == -L and x[-1] == L
            if n % 2:
                assert x[n // 2] == 0.0
            assert np.abs(x - np.linspace(-L, L, n)).max() <= 2.0 * np.spacing(L)


def test_invalid_boxes():
    with pytest.raises(ConstructionError):
        BoxDiscretization(L=0.0, n=16)
    with pytest.raises(ConstructionError):
        BoxDiscretization(L=1.0, n=3)


def test_stencil_annihilates_affine(box12):
    V = catalog_potential("radial_decay", 0.4, box12, c=1.0)
    op = assemble(V, 0.7, 0.3, box12, check_resolution=False)
    X, Y = box12.mesh()
    for poly in (np.ones_like(X), 1.0 + 2.0 * X - 0.5 * Y):
        v = poly.ravel()
        out = (op.matrix @ v) - (V.values - 0.7) * v
        interior = np.zeros((box12.n, box12.n), dtype=bool)
        interior[2:-2, 2:-2] = True
        assert np.abs(out[interior.ravel()]).max() <= 1e-12


def test_diagonal_is_v_minus_e(box12):
    V = catalog_potential("radial_decay", 0.4, box12, c=1.0)
    h = 0.3
    op = assemble(V, 1.0, h, box12, check_resolution=False)
    diag = op.matrix.diagonal()
    lap_diag = 4.0 * h**2 / box12.a**2
    assert np.allclose(diag - lap_diag, V.values - 1.0, rtol=0, atol=1e-14)


def test_discrete_sine_symbol(box12):
    # eigenvectors of the Dirichlet 5-point stencil are discrete sine modes
    # with symbol (4 h^2/a^2)(sin^2(j pi/(2(n+1))) + sin^2(k pi/(2(n+1))))
    n, a, h, E = box12.n, box12.a, 0.25, 1.0
    op = assemble(np.zeros(box12.size), E, h, box12, check_resolution=False)
    i = np.arange(1, n + 1)
    for j, k in ((1, 1), (2, 5), (7, 3)):
        vj = np.sin(i * j * np.pi / (n + 1))
        vk = np.sin(i * k * np.pi / (n + 1))
        v = np.outer(vj, vk).ravel()
        lam = (4.0 * h**2 / a**2) * (
            np.sin(j * np.pi / (2 * (n + 1))) ** 2 + np.sin(k * np.pi / (2 * (n + 1))) ** 2
        )
        assert np.abs(op.matrix @ v - (lam - E) * v).max() <= 1e-12


def test_resolution_gate(box12):
    with pytest.raises(ConstructionError, match="resolution too coarse"):
        assemble(np.zeros(box12.size), 1.0, 4.0 * box12.a * 0.99, box12)
    assemble(np.zeros(box12.size), 1.0, 4.0 * box12.a * 1.01, box12)


def test_factor_shifted_matches_dense_solve(box12, rng):
    V = catalog_potential("trapping_ring", 0.4, box12, E=1.0, A=2.0, rho=1.0, sigma=0.25)
    op = assemble(V, 1.0, 0.3, box12, check_resolution=False)
    rhs = rng.standard_normal(box12.size) + 1j * rng.standard_normal(box12.size)
    z = factor_shifted(op.matrix, 0.1).solve(rhs)
    dense = np.linalg.solve(op.shifted(0.1).toarray(), rhs)
    assert np.linalg.norm(z - dense) / np.linalg.norm(dense) <= 1e-10


@pytest.mark.parametrize("E,h", [(1.0, 0.4), (8.0, 0.12)])
def test_factor_ordering_cuts_fill(E, h):
    # the symmetric minimum-degree ordering suits the 5-point grid: at n = 64
    # it leaves 127k LU nonzeros where the default COLAMD leaves 221k-252k,
    # also where P is strongly indefinite (E = 8), since the LU pivots only
    # below 1% of a column and so keeps the symmetric structure
    disc = BoxDiscretization(L=2.5, n=64)
    op = assemble(np.zeros(disc.size), E, h, disc, check_resolution=False)
    lu = factor_shifted(op.matrix, h / 4)
    default = spla.splu(op.shifted(h / 4))
    assert lu.L.nnz + lu.U.nnz <= 0.75 * (default.L.nnz + default.U.nnz)


def test_real_part_symmetric(box12):
    V = catalog_potential("trapping_ring", 0.4, box12, E=1.0, A=2.0, rho=1.0, sigma=0.25)
    op = assemble(V, 1.0, 0.3, box12, check_resolution=False)
    assert (op.matrix - op.matrix.T).nnz == 0


def test_operator_is_frozen(box12):
    # nothing is cached on an operator, so it is safe to share
    op = assemble(np.zeros(box12.size), 1.0, 0.3, box12, check_resolution=False)
    with pytest.raises(FrozenInstanceError):
        op.h = 0.2
