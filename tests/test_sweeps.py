import itertools
import os
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from carlab import (
    BoxDiscretization,
    ConstructionError,
    PowerIterationError,
    SweepAbortedError,
    assemble,
    catalog_potential,
    dense_resolvent_norm,
    factor_shifted,
    sweep_h,
    weight_diag,
    weighted_resolvent_norm,
)
from carlab import resolvent
from carlab.cli import load_config
from carlab.resolvent import reflection_sectors


@pytest.fixture(scope="module")
def sweep_box():
    return BoxDiscretization(L=1.5, n=48)


@pytest.fixture(scope="module")
def zero_field(sweep_box):
    return catalog_potential("zero", 0.4, sweep_box)


def _interior(*args, **kwargs):
    return sweep_h(*args, modes=["interior"], **kwargs)["interior"]


def test_rows_follow_descending_hs(sweep_box, zero_field):
    hs = [0.4, 0.3, 0.22]
    result = _interior(zero_field, 1.0, 0.6, hs, eps_rule=1e-2, disc=sweep_box)
    assert [r.h for r in result.rows] == hs
    assert all(r.mode == "interior" and r.R is None for r in result.rows)


@pytest.mark.parametrize("h", [-0.4, 0.0, float("nan")])
def test_nonpositive_hs_rejected(sweep_box, zero_field, monkeypatch, h):
    # -0.4 used to give the h = 0.4 norm again, 0 a norm that broke the
    # poly fit, and nan ran into a singular LU
    factored = []
    monkeypatch.setattr(resolvent, "factor_shifted", lambda *args: factored.append(args))
    with pytest.raises(ValueError, match="hs must be positive"):
        _interior(zero_field, 1.0, 0.6, [0.4, h], eps_rule=1e-2, disc=sweep_box)
    assert not factored


def test_ascending_hs_rejected(sweep_box, zero_field):
    with pytest.raises(ValueError, match="descending"):
        _interior(zero_field, 1.0, 0.6, [0.2, 0.3], eps_rule=1e-2, disc=sweep_box)


def test_empty_hs_rejected(sweep_box, zero_field):
    with pytest.raises(ValueError, match="no sweep points"):
        _interior(zero_field, 1.0, 0.6, [], eps_rule=1e-2, disc=sweep_box)


def test_exterior_needs_radius(sweep_box, zero_field):
    with pytest.raises(ValueError, match="cutoff radius"):
        sweep_h(zero_field, 1.0, 0.6, [0.4], eps_rule=1e-2, modes=["exterior"], disc=sweep_box)


def test_exterior_cutoff_beyond_box_rejected(sweep_box, zero_field):
    # every exterior weight would be 0, every norm 0 and every fit NaN
    with pytest.raises(ConstructionError, match=r"exterior weight is zero.*R = 100.*radius 2.12"):
        sweep_h(zero_field, 1.0, 0.6, [0.4], eps_rule=1e-2, modes=["interior", "exterior"],
                R=100.0, disc=sweep_box)


def test_potential_off_the_box_rejected(sweep_box):
    # a sample from another box cannot be restricted to this one's sectors
    other = catalog_potential("zero", 0.4, BoxDiscretization(L=1.5, n=40))
    with pytest.raises(ConstructionError, match="one value per box node"):
        _interior(other, 1.0, 0.6, [0.4], eps_rule=1e-2, disc=sweep_box)


@pytest.mark.parametrize("modes", [[], ["interior", "interior"]])
def test_modes_nonempty_and_distinct(sweep_box, zero_field, modes):
    with pytest.raises(ValueError, match="nonempty, distinct"):
        sweep_h(zero_field, 1.0, 0.6, [0.4], eps_rule=1e-2, modes=modes, disc=sweep_box)


def test_modes_share_one_factorization_per_h(sweep_box, zero_field, monkeypatch):
    hs, R = [0.4, 0.3, 0.22], 0.5
    interior = _interior(zero_field, 1.0, 0.6, hs, eps_rule=1e-2, disc=sweep_box)
    exterior = sweep_h(zero_field, 1.0, 0.6, hs, eps_rule=1e-2, modes=["exterior"],
                       R=R, disc=sweep_box)["exterior"]
    calls, assembled = [], []
    splu, assemble_box = spla.splu, resolvent.assemble

    def counting_splu(*args, **kwargs):
        calls.append(args)
        return splu(*args, **kwargs)

    def counting_assemble(*args, **kwargs):
        assembled.append(args)
        return assemble_box(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting_splu)
    monkeypatch.setattr(resolvent, "assemble", counting_assemble)
    both = sweep_h(zero_field, 1.0, 0.6, hs, eps_rule=1e-2, modes=["interior", "exterior"],
                   R=R, disc=sweep_box)
    # one LU per h and sector of the square's symmetries (5 for radial
    # fields), shared by both modes, and one stencil for the whole sweep
    sectors = reflection_sectors(sweep_box, zero_field.values,
                                 weight_diag(sweep_box, 0.6), weight_diag(sweep_box, 0.6, R))
    assert len(sectors) == 5
    assert len(calls) == len(hs) * len(sectors)
    assert len(assembled) == 1
    sweep_h(zero_field, 1.0, 0.6, hs[:1], eps_rule=1e-2, disc=sweep_box)
    assert len(assembled) == 2
    assert list(both) == ["interior", "exterior"]
    assert both["interior"] == interior
    assert both["exterior"] == exterior


def test_box_gate_uses_largest_h(sweep_box, zero_field):
    # a = 3/47 > 0.05/4: the largest h governs the gate
    with pytest.raises(ConstructionError, match="resolution too coarse"):
        _interior(zero_field, 1.0, 0.6, [0.05, 0.04], eps_rule=1e-2, disc=sweep_box)


def test_eps_rule_callable(sweep_box, zero_field):
    result = _interior(zero_field, 1.0, 0.6, [0.4, 0.3], eps_rule=lambda h: h / 4.0, disc=sweep_box)
    assert [r.eps for r in result.rows] == [0.1, 0.075]


def test_determinism(sweep_box, zero_field):
    a = _interior(zero_field, 1.0, 0.6, [0.4, 0.3], eps_rule=1e-2, disc=sweep_box, seed=7)
    b = _interior(zero_field, 1.0, 0.6, [0.4, 0.3], eps_rule=1e-2, disc=sweep_box, seed=7)
    assert [r.norm for r in a.rows] == [r.norm for r in b.rows]


def test_abort_order_under_concurrency(sweep_box, zero_field, monkeypatch):
    # the h = 0.22 tasks run alongside and succeed, but the row that failed
    # first in row order is the one reported, with only the rows before it
    monkeypatch.setattr(resolvent, "POOL_MIN_UNKNOWNS", 0)

    def eps_rule(h):
        return -1.0 if h == 0.3 else 1e-2

    with pytest.raises(SweepAbortedError) as err:
        sweep_h(zero_field, 1.0, 0.6, [0.4, 0.3, 0.22], eps_rule=eps_rule,
                modes=["interior", "exterior"], R=0.5, disc=sweep_box)
    assert err.value.failed_h == 0.3
    assert [(r.h, r.mode) for r in err.value.partial_rows] == [(0.4, "interior"), (0.4, "exterior")]


def test_row_failure_aborts_with_partial(sweep_box, zero_field):
    def eps_rule(h):
        return 1e-2 if h > 0.25 else -1.0

    with pytest.raises(SweepAbortedError) as err:
        sweep_h(zero_field, 1.0, 0.6, [0.4, 0.3, 0.22], eps_rule=eps_rule,
                modes=["interior", "exterior"], R=0.5, disc=sweep_box)
    assert err.value.failed_h == 0.22
    assert [(r.h, r.mode) for r in err.value.partial_rows] == [
        (0.4, "interior"), (0.4, "exterior"), (0.3, "interior"), (0.3, "exterior"),
    ]


def test_fits_recomputed_from_rows(sweep_box, zero_field):
    result = _interior(zero_field, 1.0, 0.6, [0.4, 0.3, 0.22], eps_rule=1e-2, disc=sweep_box)
    f1 = result.fit("poly")
    f2 = result.fit("poly")
    assert f1 == f2  # same rows, same fit
    # the fit really is a least-squares solution of the stated model
    x = np.log(1.0 / result.hs())
    y = np.log(result.norms())
    slope = np.polyfit(x, y, 1)[0]
    assert f1.slope == pytest.approx(slope, rel=1e-10)
    with pytest.raises(ValueError, match="unknown fit model"):
        result.fit("cubic")


def test_plot_pairs_shape(sweep_box, zero_field):
    result = _interior(zero_field, 1.0, 0.6, [0.4, 0.3], eps_rule=1e-2, disc=sweep_box)
    pairs = result.plot_pairs()
    assert pairs.shape == (2, 2)
    assert pairs[0, 0] == pytest.approx(2.5)
    assert pairs[0, 1] == pytest.approx(np.log(result.rows[0].norm))


def _baseline_sweep():
    """sweep_h's arguments for configs/baseline.json: the two-mode ring."""
    cfg = load_config(str(Path(__file__).resolve().parents[1] / "configs" / "baseline.json"))
    rcfg = cfg["resolvent"]
    pot = {k: v for k, v in rcfg["potential"].items() if k not in ("id", "c")}
    disc = BoxDiscretization(L=rcfg["box"]["half_width"], n=rcfg["box"]["n"])
    V = catalog_potential(rcfg["potential"]["id"], cfg["problem"]["delta0"], disc,
                          E=cfg["problem"]["E"], **pot)
    return rcfg, dict(
        V=V, E=cfg["problem"]["E"], s=rcfg["s"], hs=rcfg["hs"],
        eps_rule=lambda h: h / rcfg["eps"]["value"], modes=rcfg["modes"], disc=disc,
        R=pot["rho"] + 3.0 * pot["sigma"], tol=rcfg["tol"], max_iter=rcfg["max_iter"],
        seed=cfg["seed"],
    )


def test_baseline_sweep_stops_once_converged(monkeypatch):
    # configs/baseline.json through sweep_h: each sector's Lanczos stops as
    # soon as its top Ritz residual is within tol/10.  A fixed 20-vector
    # Arnoldi took 22 full-box applications on every row, 220 over both
    # modes; the bound is 0.8 of that, counted in box-sized applications
    # (a sector application weighs its size over the box size)
    rcfg, args = _baseline_sweep()
    disc = args["disc"]
    work = []
    norm = resolvent.weighted_resolvent_norm

    def counting_norm(lu, *args, **kwargs):
        est = norm(lu, *args, **kwargs)
        work.append(est.iterations * lu.shape[0] / disc.size)
        return est

    monkeypatch.setattr(resolvent, "weighted_resolvent_norm", counting_norm)
    results = sweep_h(**args)
    rows = [row for result in results.values() for row in result.rows]
    assert len(rows) == 10
    assert all(row.residual <= rcfg["tol"] for row in rows)
    assert all(row.iterations <= rcfg["max_iter"] for row in rows)
    assert sum(work) <= 176


# ----------------------------------------------------------------------------
# reflection sectors
# ----------------------------------------------------------------------------

def _field(disc, kind):
    """A field2d sample of one symmetry class, with its sector count."""
    X, Y = disc.mesh()
    values, count = {
        "radial": (0.5 * np.exp(-2.0 * (X**2 + Y**2)), 5),
        "diagonal_centre": (0.2 * ((X - 0.3) ** 2 + (Y - 0.3) ** 2), 2),
        "even_anisotropic": (0.2 * (X**2 + 2.0 * Y**2), 4),
        "even_in_x": (0.2 * X**2 + 0.1 * Y, 2),
        "off_centre": (0.2 * ((X - 0.3) ** 2 + (Y - 0.2) ** 2), 1),
    }[kind]
    return replace(catalog_potential("zero", 0.4, disc), values=values.ravel()), count


@pytest.mark.parametrize("n", [24, 25])
@pytest.mark.parametrize("kind", ["radial", "even_anisotropic", "even_in_x", "diagonal_centre",
                                  "off_centre"])
def test_sectors_match_full_box(n, kind):
    # the sector split must reproduce the full-box norm: against Lanczos on
    # the assembled box operator and against the dense SVD
    disc = BoxDiscretization(L=2.0, n=n)
    V, count = _field(disc, kind)
    s, R, tol = 0.6, 1.2, 1e-11
    modes = {"interior": weight_diag(disc, s), "exterior": weight_diag(disc, s, R)}
    assert len(reflection_sectors(disc, V.values, *modes.values())) == count
    results = sweep_h(V, 1.0, s, [0.8], eps_rule=lambda h: h / 4.0, modes=list(modes),
                      disc=disc, R=R, tol=tol, seed=3)
    for mode, w in modes.items():
        for row in results[mode].rows:
            op = assemble(V, 1.0, row.h, disc, check_resolution=False)
            lu = factor_shifted(op.matrix, row.eps)
            full = weighted_resolvent_norm(lu, w, w, tol=tol, seed=3).value
            assert abs(row.norm - full) <= 1e-9 * full
            dense = dense_resolvent_norm(op, row.eps, w, w)
            assert abs(row.norm - dense) <= 1e-6 * dense
            assert row.residual <= tol


@pytest.mark.parametrize("n", [9, 10])
def test_sector_bases_orthonormal_and_decoupled(n):
    disc = BoxDiscretization(L=1.0, n=n)

    def orthonormal(S):
        return S.toarray() / np.sqrt(np.diff(S.indptr))

    # all four parity sectors together form an orthonormal basis of the box
    V4, _ = _field(disc, "even_anisotropic")
    full = np.hstack([orthonormal(S) for S, _ in reflection_sectors(disc, V4.values)])
    np.testing.assert_allclose(full.T @ full, np.eye(disc.size), atol=1e-15)
    # so do the 5 sectors of a radial field with the transpose of (even,
    # odd), the (odd, even) sector they leave out
    V, _ = _field(disc, "radial")
    sectors = reflection_sectors(disc, V.values)
    assert len(sectors) == 5
    bases = [orthonormal(S) for S, _ in sectors]
    transpose = np.arange(disc.size).reshape(n, n).T.ravel()
    full = np.hstack(bases + [bases[2][transpose]])
    np.testing.assert_allclose(full.T @ full, np.eye(disc.size), atol=1e-15)
    # on a radial field P leaves each sector invariant: no coupling across
    # sectors, and P acts on a sector as P[rep] S on its representative nodes
    P = assemble(V, 1.0, 0.5, disc, check_resolution=False).matrix.toarray()
    for S, rep in sectors:
        S = S.toarray()
        np.testing.assert_array_equal(S[rep], np.eye(len(rep)))
        np.testing.assert_allclose(P @ S, S @ (P[rep] @ S), rtol=0, atol=1e-13 * abs(P).max())
    for (Sa, _), (Sb, _) in itertools.permutations(sectors, 2):
        assert abs(orthonormal(Sa).T @ P @ orthonormal(Sb)).max() <= 1e-13 * abs(P).max()


def test_sector_cap_error_carries_row_estimate(sweep_box):
    # a cap that falls one application short of the row's total stops the
    # last sector before its certificate: the error must carry the largest
    # of the finished sector norms and the running top Ritz value
    V = catalog_potential("trapping_ring", 0.4, sweep_box, E=1.0, A=2.0, rho=0.6, sigma=0.2)
    row = _interior(V, 1.0, 0.6, [0.3], eps_rule=0.075, disc=sweep_box, seed=5).rows[0]
    with pytest.raises(SweepAbortedError) as err:
        _interior(V, 1.0, 0.6, [0.3], eps_rule=0.075, disc=sweep_box, seed=5,
                  max_iter=row.iterations - 1)
    cause = err.value.__cause__
    assert isinstance(cause, PowerIterationError)
    assert cause.iterations == row.iterations - 1
    assert abs(cause.estimate - row.norm) <= 1e-6 * row.norm
    assert cause.estimate <= (1.0 + 1e-9) * row.norm


# ----------------------------------------------------------------------------
# the (h, sector) thread pool
# ----------------------------------------------------------------------------

def _no_symmetry_sweep(n=24):
    """sweep_h's arguments for a field with no symmetry: one sector, the box."""
    disc = BoxDiscretization(L=2.0, n=n)
    V, count = _field(disc, "off_centre")
    assert count == 1
    return dict(V=V, E=1.0, s=0.6, hs=[1.0, 0.8, 0.7], eps_rule=lambda h: h / 4.0,
                modes=["interior", "exterior"], disc=disc, R=1.2, seed=3)


def _pool_size(monkeypatch, args) -> int:
    """max_workers of the pool that one sweep creates, 0 for none."""
    sizes, pool = [0], resolvent.ThreadPoolExecutor

    def recording_pool(max_workers):
        sizes.append(max_workers)
        return pool(max_workers=max_workers)

    monkeypatch.setattr(resolvent, "ThreadPoolExecutor", recording_pool)
    sweep_h(**args)
    monkeypatch.setattr(resolvent, "ThreadPoolExecutor", pool)
    return sizes[-1]


def test_pool_size_follows_sector_size(monkeypatch):
    # GIL-bound tasks on small sectors run on the calling thread however
    # many CPUs there are; from POOL_MIN_UNKNOWNS on, one worker per CPU
    # and task
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    baseline, small, whole = _baseline_sweep()[1], _no_symmetry_sweep(), _no_symmetry_sweep(48)
    assert max(len(rep) for _, rep in reflection_sectors(baseline["disc"],
                                                          baseline["V"].values)) == 1024
    assert _pool_size(monkeypatch, baseline) == 0
    assert _pool_size(monkeypatch, small) == 0  # one sector of 576 unknowns
    assert _pool_size(monkeypatch, whole) == 3  # 2304 unknowns, 3 tasks on 4 CPUs
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert _pool_size(monkeypatch, whole) == 2


@pytest.mark.parametrize("cpus", [1, 4])
@pytest.mark.parametrize("kind", ["baseline_ring", "no_symmetry"])
def test_pool_size_changes_no_result(monkeypatch, kind, cpus):
    # these small boxes run on the calling thread; pooled on one worker or
    # on four, more than this machine may have cores, the rows must be
    # equal to the last bit
    args = _baseline_sweep()[1] if kind == "baseline_ring" else _no_symmetry_sweep()
    unpooled = sweep_h(**args)
    monkeypatch.setattr(resolvent, "POOL_MIN_UNKNOWNS", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    assert sweep_h(**args) == unpooled


def test_concurrent_sweeps_agree(monkeypatch):
    # constructions are safe to share across threads: two sweeps at once,
    # each with its own pool, give the rows of one sweep alone
    monkeypatch.setattr(resolvent, "POOL_MIN_UNKNOWNS", 0)
    args = _baseline_sweep()[1]
    expected = sweep_h(**args)
    results = [None, None]

    def run(i):
        results[i] = sweep_h(**args)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120.0)
    assert not any(t.is_alive() for t in threads)
    assert results == [expected, expected]


def test_pooled_cap_error_matches_one_thread(sweep_box, monkeypatch):
    # a pooled task runs under the whole max_iter; the row that overruns
    # its cap is replayed on the calling thread, so the error is the one
    # the calling thread alone raises
    V = catalog_potential("trapping_ring", 0.4, sweep_box, E=1.0, A=2.0, rho=0.6, sigma=0.2)
    args = dict(eps_rule=0.075, disc=sweep_box, seed=5)
    row = _interior(V, 1.0, 0.6, [0.3], **args).rows[0]
    errors = []
    for threshold in (resolvent.POOL_MIN_UNKNOWNS, 0):
        monkeypatch.setattr(resolvent, "POOL_MIN_UNKNOWNS", threshold)
        with pytest.raises(SweepAbortedError) as err:
            _interior(V, 1.0, 0.6, [0.4, 0.3], max_iter=row.iterations - 1, **args)
        cause = err.value.__cause__
        errors.append((str(err.value), err.value.failed_h, err.value.partial_rows,
                       cause.estimate, cause.iterations))
    assert errors[0] == errors[1]
    assert errors[0][1] == 0.3
