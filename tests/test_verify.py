import numpy as np
import pytest

from carlab import (
    BoxDiscretization,
    ConstructionError,
    GridMismatchError,
    assemble,
    build_weight_tables,
    catalog_potential,
    catalog_radial,
    gluing_constants,
    shift_radius_bound,
    verify_E4_inequality,
    verify_barrier_facts,
    verify_psi_inequality,
    verify_shift_envelope,
)
from carlab.verify import e4_margin
from carlab.weights import (
    build_w,
    compute_g_and_h1,
    eval_g,
    eval_psi,
    eval_psi_prime,
    margin_scan_nodes,
)

from estimates import (
    bump,
    carleman_quadratic_form_test,
    combined_estimate_test,
    effective_potential,
)

# regression locks for the baseline construction (deterministic pipeline)
GLUING_K_BASELINE = 8.133538283982741
IMPLIED_C_ORIGIN_BUMP = 0.00013602326153405449  # tables and operator both at h1/2


@pytest.fixture(scope="module")
def verify_box(baseline_spec):
    return BoxDiscretization(L=2.0 * (baseline_spec.R1 + 1.0), n=65)


@pytest.fixture(scope="module")
def qf_setup(baseline_spec):
    # tables at h1/2 and an operator at the same h: phi solves the flow at op.h
    wt = build_weight_tables(baseline_spec)
    disc = BoxDiscretization(L=2.0 * (baseline_spec.R1 + 1.0), n=129)
    V = catalog_potential("zero", baseline_spec.delta0, disc)
    op = assemble(V, baseline_spec.E, wt.h, disc, check_resolution=False)
    return disc, op, wt


# ----------------------------------------------------------------------------
# profile inequality
# ----------------------------------------------------------------------------

def test_envelope_margin_negative_at_baseline(baseline_spec):
    # delta = delta0/2 is outside the certifiable regime: the middle-region
    # margin E/4 - Vplus - Vplus' w/w' is deeply negative near R0
    rep = verify_psi_inequality(baseline_spec, margin_scan_nodes(baseline_spec))
    assert not rep.passed
    assert rep.min_margin < -0.5


def test_envelope_margin_certified_at_large_energy(certified_spec):
    rep = verify_psi_inequality(certified_spec, margin_scan_nodes(certified_spec))
    assert rep.passed
    assert rep.min_margin >= 0.0


def test_instance_margin_dominates_envelope(baseline_spec, baseline_tables):
    r = baseline_tables.grid.nodes
    env = verify_psi_inequality(baseline_spec, r)
    for name, kw in (("zero", {}), ("radial_decay", {"c": 1.0})):
        V = catalog_radial(name, baseline_spec.delta0, r, **kw)
        inst = verify_psi_inequality(baseline_spec, r, potential=V)
        assert inst.min_margin >= env.min_margin - 1e-12


def test_instance_needs_matching_grid(baseline_spec, baseline_tables):
    r = np.linspace(0.1, 1.0, 50)
    V = catalog_radial("zero", baseline_spec.delta0, r)
    with pytest.raises(GridMismatchError, match="grid mismatch"):
        verify_psi_inequality(baseline_spec, r[:-1], potential=V)
    # the E/4 verifiers check the grid too: the reversed nodes have the right
    # count in the wrong order, the short sample one node too few
    wt = baseline_tables
    nodes = wt.grid.nodes
    for bad in (nodes[::-1], nodes[:-1]):
        ring = catalog_radial("trapping_ring", wt.spec.delta0, bad, A=2.0, rho=1.0, sigma=0.25)
        with pytest.raises(GridMismatchError, match="grid mismatch"):
            verify_E4_inequality(wt.spec, nodes, wt.h1, potential=ring)
        with pytest.raises(GridMismatchError, match="grid mismatch"):
            e4_margin(wt.spec, wt.h1, nodes, ring)


# ----------------------------------------------------------------------------
# effective potential
# ----------------------------------------------------------------------------

def test_vphi_identity(combo_tables):
    for wt in combo_tables.values():
        V = catalog_radial("radial_decay", wt.spec.delta0, wt.grid.nodes, c=1.0)
        table = effective_potential(V, wt)
        assert table.cross_residual <= 1e-10


def test_vphi_reduces_to_pole_beyond_r1(baseline_tables):
    wt = baseline_tables
    V = catalog_radial("zero", wt.spec.delta0, wt.grid.nodes)
    table = effective_potential(V, wt)
    tail = slice(wt.grid.i_r1, None)
    r = wt.grid.nodes[tail]
    assert np.allclose(table.vphi[tail], -wt.h**2 / (4.0 * r**2), rtol=0, atol=1e-15)


def test_vphi_grid_mismatch(baseline_tables):
    r = np.linspace(0.1, 1.0, 64)
    V = catalog_radial("zero", baseline_tables.spec.delta0, r)
    with pytest.raises(GridMismatchError, match="grid mismatch"):
        effective_potential(V, baseline_tables)


def test_vphi_recomputable_from_serialized_table(tmp_path, baseline_tables):
    # independent recomputation from the columnar file alone, checked at R0
    from carlab.reports import read_columnar, write_weight_table

    wt = baseline_tables
    path = tmp_path / "weights_table.txt"
    write_weight_table(path, wt)
    _, cols = read_columnar(path)
    i0 = wt.grid.i_r0
    h = wt.h
    phi2 = (cols["u"][i0] ** 2 - cols["psi"][i0]) / h
    V = catalog_radial("radial_decay", wt.spec.delta0, wt.grid.nodes, c=1.0)
    from_file = V.values[i0] - cols["u"][i0] ** 2 + h * phi2 - h * h / (4.0 * cols["r"][i0] ** 2)
    table = effective_potential(V, wt)
    assert from_file == pytest.approx(table.vphi[i0], rel=1e-13)


# ----------------------------------------------------------------------------
# E/4 inequality
# ----------------------------------------------------------------------------

def test_e4_envelope_certified(certified_tables):
    wt = certified_tables
    rep = verify_E4_inequality(wt.spec, wt.grid.nodes, wt.h1)
    assert rep.passed
    assert rep.min_margin >= -1e-12


def test_e4_negative_at_baseline(baseline_tables):
    # inherits the profile-inequality refutation at delta = delta0/2
    wt = baseline_tables
    rep = verify_E4_inequality(wt.spec, wt.grid.nodes, wt.h1)
    assert not rep.passed


def test_e4_plateau_branch_formula(certified_tables):
    # independent recomputation: (3E/4 + 1/delta0 - Vplus - (r/2) Vplus') w'
    wt = certified_tables
    s = wt.spec
    r = wt.grid.nodes[: wt.grid.i_r0 + 1]
    _, wp, _ = build_w(s, r)
    rho = 1.0 + r
    expected = (
        0.75 * s.E + s.plateau - rho ** (-s.delta0) - 0.5 * r * rho ** (-1.0 - s.delta0)
    ) * wp
    got = e4_margin(s, wt.h1, r)
    assert np.abs(got - expected).max() <= 1e-10


def test_e4_h2_scaling_of_origin_term(certified_tables):
    wt = certified_tables
    r = wt.grid.nodes
    h1 = wt.h1
    m_full = e4_margin(wt.spec, h1, r)
    m_half = e4_margin(wt.spec, h1 / 2.0, r)
    _, wp, _ = build_w(wt.spec, r)
    g = np.where(r > wt.spec.R0, eval_g(wt.spec, np.maximum(r, wt.spec.R0)), 0.0)
    expected_diff = (h1**2 - (h1 / 2.0) ** 2) * g * wp
    assert np.allclose(m_full - m_half, expected_diff, rtol=0, atol=1e-12)


def test_e4_monotone_in_h_where_g_negative(certified_tables, combo_tables):
    # the lemma behind the single evaluation at h1: 4 r^2 g(r) <= -1 for r > 0
    for wt in (certified_tables, *combo_tables.values()):
        r = wt.grid.nodes[wt.grid.nodes > wt.spec.R0]
        assert np.all(4.0 * r**2 * eval_g(wt.spec, r) <= -1.0)
    wt = certified_tables
    r = wt.grid.nodes
    neg = (r > wt.spec.R0) & (eval_g(wt.spec, np.maximum(r, wt.spec.R0)) < 0.0)
    hs = wt.h1 * 0.5 ** np.arange(4)
    prev = None
    for h in hs:  # descending
        m = e4_margin(wt.spec, h, r)
        if prev is not None:
            assert np.all(m[neg] >= prev[neg] - 1e-12)
        prev = m
    assert neg.any()


def test_e4_instance_dominates_envelope(certified_tables):
    wt = certified_tables
    r = wt.grid.nodes
    V = catalog_radial("radial_decay", wt.spec.delta0, r, c=1.0)
    inst = e4_margin(wt.spec, wt.h1, r, V)
    env = e4_margin(wt.spec, wt.h1, r)
    assert np.all(inst >= env - 1e-12)


def e4_reference(spec, h, r, V=None):
    """e4_margin's expression, evaluated whole for one h."""
    w, wp, _ = build_w(spec, r)
    rho = 1.0 + r
    v, dv = (rho ** (-spec.delta0), rho ** (-1.0 - spec.delta0)) if V is None \
        else (V.values, V.radial_derivative)
    T = np.where(r > spec.R0, h * h * eval_g(spec, np.maximum(r, spec.R0)) * wp, 0.0)
    return ((spec.E - v + eval_psi(spec, r)) * wp + (-dv + eval_psi_prime(spec, r)) * w + T
            - (spec.E / 4.0) * wp)


@pytest.mark.parametrize("tables", ["baseline_tables", "certified_tables"])
@pytest.mark.parametrize("instance", [False, True])
def test_e4_verify_equals_per_h_margins(request, tables, instance):
    # one evaluation at h1 is the minimum over all of (0, h1]: it is bitwise
    # the oracle at h1 and no larger than the margin at any smaller h
    wt = request.getfixturevalue(tables)
    r = wt.grid.nodes
    V = catalog_radial("trapping_ring", wt.spec.delta0, r, A=2.0, rho=1.0, sigma=0.25) \
        if instance else None
    rep = verify_E4_inequality(wt.spec, r, wt.h1, potential=V)
    ref = e4_reference(wt.spec, wt.h1, r, V)
    assert rep.min_margin == float(ref.min())
    assert rep.argmin == float(r[np.argmin(ref)])
    ladder = wt.h1 * 0.5 ** np.arange(7, -1, -1)
    spread = np.sqrt(np.linspace(wt.h1**2 / 64.0, wt.h1**2, 64))
    per_h = []
    for h in np.concatenate([ladder, spread]):
        m = e4_margin(wt.spec, h, r, V)
        assert np.array_equal(m, e4_reference(wt.spec, h, r, V))
        per_h.append(float(m.min()))
        assert rep.min_margin <= per_h[-1]
    assert rep.min_margin == pytest.approx(min(per_h[: ladder.size]), rel=0, abs=1e-12)


# ----------------------------------------------------------------------------
# barrier facts
# ----------------------------------------------------------------------------

def test_barrier_facts_all_combos(combo_tables):
    for wt in combo_tables.values():
        for rep in verify_barrier_facts(wt.spec, wt.grid.nodes):
            assert rep.passed, f"{rep.name}: {rep.min_margin}"


@pytest.mark.parametrize("tables", ["baseline_tables", "certified_tables"])
def test_chain_from_spec_equals_chain_from_tables(request, tables):
    # the verifiers rebuild w, w', m and h1 from the spec and the nodes; each
    # report equals the one the tables' own arrays give, bit for bit
    wt = request.getfixturevalue(tables)
    r = wt.grid.nodes
    h1 = compute_g_and_h1(wt.spec, wt.spec.E, extra_nodes=r).h1
    assert h1 == wt.h1
    w, wp, d = wt.w, wt.wprime, wt.spec.delta
    expected = {
        "barrier:wprime_positive": wp,
        "barrier:2w_over_r_minus_wprime": 2.0 * w / r - wp,
        "barrier:one_plus_delta_cap": (1.0 + d) * w / wp - (w**2 / wp + w**2),
        "barrier:w_over_wprime_vs_m2": max(2.0 / d, wt.spec.R0 / 2.0) * wt.m**2 - w / wp,
    }
    reports = verify_barrier_facts(wt.spec, r)
    assert [rep.name for rep in reports] == list(expected)
    for rep in reports:
        margins = expected[rep.name]
        assert (rep.min_margin, rep.argmin) == (float(margins.min()), float(r[np.argmin(margins)]))
    ring = catalog_radial("trapping_ring", wt.spec.delta0, r, A=2.0, rho=1.0, sigma=0.25)
    for V in (None, ring):
        margins = e4_margin(wt.spec, wt.h1, r, V)
        rep = verify_E4_inequality(wt.spec, r, h1, potential=V)
        assert (rep.min_margin, rep.argmin) == (float(margins.min()), float(r[np.argmin(margins)]))


# ----------------------------------------------------------------------------
# shift envelope
# ----------------------------------------------------------------------------

def test_shift_bound_value():
    assert shift_radius_bound(0.4) == pytest.approx(2.0 ** (1.0 / 1.4) - 1.0, rel=1e-15)
    assert shift_radius_bound(0.4) == pytest.approx(0.6406707, abs=1e-6)


def test_shift_passes_at_boundary(verify_box):
    x0 = [shift_radius_bound(0.4), 0.0]
    rep = verify_shift_envelope(x0, 0.4, verify_box)
    assert rep.passed


def test_shift_rejects_above_boundary(verify_box):
    x0 = [1.01 * shift_radius_bound(0.4), 0.0]
    with pytest.raises(ConstructionError, match="x0 too large"):
        verify_shift_envelope(x0, 0.4, verify_box)


def test_zero_shift_margin_is_one(verify_box):
    rep = verify_shift_envelope([0.0, 0.0], 0.4, verify_box)
    assert rep.min_margin == pytest.approx(1.0, rel=1e-15)


def test_shift_ratio_tends_to_one_along_ray():
    # far along the ray through x0 the two radii agree to leading order
    x0 = np.array([shift_radius_bound(0.4), 0.0])
    for rx in (1e3, 1e6):
        ratio = (1.0 + rx) / (1.0 + np.hypot(rx - x0[0], 0.0))
        assert min(2.0 - ratio**1.4, 2.0 - ratio**0.4) == pytest.approx(1.0, abs=1e-2)


def test_random_boundary_shifts_pass(verify_box, rng):
    bound = shift_radius_bound(0.4)
    for _ in range(20):
        th = rng.uniform(0.0, 2.0 * np.pi)
        rep = verify_shift_envelope([bound * np.cos(th), bound * np.sin(th)], 0.4, verify_box)
        assert rep.passed
    with pytest.raises(ConstructionError):
        verify_shift_envelope([1.01 * bound, 0.0], 0.4, verify_box)


# ----------------------------------------------------------------------------
# gluing constants
# ----------------------------------------------------------------------------

def test_gluing_r_exact(baseline_spec, verify_box):
    glue = gluing_constants(baseline_spec, [0.5, 0.0], verify_box)
    assert glue.R == baseline_spec.R1 + 0.5


def test_gluing_k_finite_and_certified(baseline_spec, verify_box):
    glue = gluing_constants(baseline_spec, [0.5, 0.0], verify_box)
    assert np.isfinite(glue.K)
    assert glue.edge_floor <= glue.k_weight_floor
    assert glue.edge_cap <= glue.k_weight_cap
    assert glue.K == pytest.approx(GLUING_K_BASELINE, rel=1e-12)


def test_gluing_rejects_zero_shift(baseline_spec, verify_box):
    with pytest.raises(ConstructionError, match="nonzero shift"):
        gluing_constants(baseline_spec, [0.0, 0.0], verify_box)


# ----------------------------------------------------------------------------
# quadratic-form tests
# ----------------------------------------------------------------------------

def test_qf_zero_function(qf_setup):
    disc, op, wt = qf_setup
    res = carleman_quadratic_form_test(np.zeros(disc.size), wt, op, eps=0.0)
    assert (res.lhs, res.rhs1, res.rhs2, res.implied_c) == (0.0, 0.0, 0.0, 0.0)


def test_qf_origin_bump_regression(qf_setup):
    disc, op, wt = qf_setup
    v = bump(disc, (0.0, 0.0), 1.0)
    res = carleman_quadratic_form_test(v, wt, op, eps=0.0)
    assert np.isfinite(res.implied_c)
    assert res.implied_c == pytest.approx(IMPLIED_C_ORIGIN_BUMP, rel=1e-12)


@pytest.mark.parametrize("lam", [2.0, 10.0, -3.0])
def test_qf_homogeneity(qf_setup, lam):
    disc, op, wt = qf_setup
    v = bump(disc, (0.5, -0.3), 0.8)
    a = carleman_quadratic_form_test(v, wt, op, eps=op.h / 2.0)
    b = carleman_quadratic_form_test(lam * v, wt, op, eps=op.h / 2.0)
    assert b.lhs == pytest.approx(lam**2 * a.lhs, rel=1e-12)
    assert b.implied_c == pytest.approx(a.implied_c, rel=1e-10)


def test_qf_support_gate(qf_setup):
    disc, op, wt = qf_setup
    v = np.ones(disc.size)
    with pytest.raises(ConstructionError, match="support touches boundary"):
        carleman_quadratic_form_test(v, wt, op, eps=0.0)


def test_forms_need_tables_at_the_operators_h(baseline_tables, qf_setup):
    # phi at one h and the operator at another would mix two problems
    disc, op, _ = qf_setup
    assert baseline_tables.h != op.h
    v = bump(disc, (0.0, 0.0), 1.0)
    with pytest.raises(GridMismatchError, match="tables built at h"):
        carleman_quadratic_form_test(v, baseline_tables, op, eps=0.0)
    with pytest.raises(GridMismatchError, match="tables built at h"):
        combined_estimate_test(v, baseline_tables, op, [0.5, 0.0], eps=0.0)


def test_bump_leaving_safe_region_rejected(qf_setup):
    disc, _, _ = qf_setup
    with pytest.raises(ConstructionError, match="safe region"):
        bump(disc, (disc.L, 0.0), 1.0)


# ----------------------------------------------------------------------------
# combined estimate
# ----------------------------------------------------------------------------

def test_combined_zero_function(qf_setup):
    disc, op, wt = qf_setup
    res = combined_estimate_test(np.zeros(disc.size), wt, op, [0.5, 0.0], eps=0.0)
    assert res.lhs_interior == res.lhs_exterior == res.rhs1 == res.rhs2 == 0.0
    assert res.implied_c == 0.0


def test_combined_exterior_support(qf_setup):
    disc, op, wt = qf_setup
    R = wt.spec.R1 + 0.5
    v = bump(disc, (R + 1.8, 0.0), 0.9)  # support entirely in |x| >= R
    res = combined_estimate_test(v, wt, op, [0.5, 0.0], eps=op.h / 2.0)
    assert res.lhs_interior == 0.0
    assert res.lhs_exterior > 0.0


def test_combined_requires_eps_below_h(qf_setup):
    disc, op, wt = qf_setup
    v = bump(disc, (0.0, 0.0), 1.0)
    with pytest.raises(ConstructionError, match="eps <= h"):
        combined_estimate_test(v, wt, op, [0.5, 0.0], eps=2.0 * op.h)
