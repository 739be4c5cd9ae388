from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from carlab import (
    BoxDiscretization,
    ConstructionError,
    SweepAbortedError,
    catalog_potential,
    sweep_h,
)
from carlab.cli import load_config


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


def test_ascending_hs_rejected(sweep_box, zero_field):
    with pytest.raises(ValueError, match="descending"):
        _interior(zero_field, 1.0, 0.6, [0.2, 0.3], eps_rule=1e-2, disc=sweep_box)


def test_empty_hs_rejected(sweep_box, zero_field):
    with pytest.raises(ValueError, match="no sweep points"):
        _interior(zero_field, 1.0, 0.6, [], eps_rule=1e-2, disc=sweep_box)


def test_exterior_needs_radius(sweep_box, zero_field):
    with pytest.raises(ValueError, match="cutoff radius"):
        sweep_h(zero_field, 1.0, 0.6, [0.4], eps_rule=1e-2, modes=["exterior"], disc=sweep_box)


@pytest.mark.parametrize("modes", [[], ["interior", "interior"]])
def test_modes_nonempty_and_distinct(sweep_box, zero_field, modes):
    with pytest.raises(ValueError, match="nonempty, distinct"):
        sweep_h(zero_field, 1.0, 0.6, [0.4], eps_rule=1e-2, modes=modes, disc=sweep_box)


def test_modes_share_one_factorization_per_h(sweep_box, zero_field, monkeypatch):
    hs, R = [0.4, 0.3, 0.22], 0.5
    interior = _interior(zero_field, 1.0, 0.6, hs, eps_rule=1e-2, disc=sweep_box)
    exterior = sweep_h(zero_field, 1.0, 0.6, hs, eps_rule=1e-2, modes=["exterior"],
                       R=R, disc=sweep_box)["exterior"]
    calls = []
    splu = spla.splu

    def counting_splu(*args, **kwargs):
        calls.append(args)
        return splu(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting_splu)
    both = sweep_h(zero_field, 1.0, 0.6, hs, eps_rule=1e-2, modes=["interior", "exterior"],
                   R=R, disc=sweep_box)
    assert len(calls) == len(hs)
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


def test_baseline_sweep_stops_once_converged():
    # configs/baseline.json through sweep_h: each row's Lanczos stops as soon
    # as its top Ritz residual is within tol/10.  A fixed 20-vector Arnoldi
    # took 22 applications on every row, 220 over both modes; the bound is
    # 0.8 of that
    cfg = load_config(str(Path(__file__).resolve().parents[1] / "configs" / "baseline.json"))
    rcfg = cfg["resolvent"]
    pot = {k: v for k, v in rcfg["potential"].items() if k not in ("id", "c")}
    disc = BoxDiscretization(L=rcfg["box"]["half_width"], n=rcfg["box"]["n"])
    V = catalog_potential(rcfg["potential"]["id"], cfg["problem"]["delta0"], disc,
                          E=cfg["problem"]["E"], **pot)
    results = sweep_h(
        V, cfg["problem"]["E"], rcfg["s"], rcfg["hs"], eps_rule=lambda h: h / rcfg["eps"]["value"],
        modes=rcfg["modes"], disc=disc, R=pot["rho"] + 3.0 * pot["sigma"],
        tol=rcfg["tol"], max_iter=rcfg["max_iter"], seed=cfg["seed"],
    )
    rows = [row for result in results.values() for row in result.rows]
    assert len(rows) == 10
    assert all(row.residual <= rcfg["tol"] for row in rows)
    assert sum(row.iterations for row in rows) <= 176
