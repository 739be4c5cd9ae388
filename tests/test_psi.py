import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from carlab import ConstructionError, ProblemParams, PsiSearch, PsiSpec, find_psi_constants
from carlab.weights import (
    barrier_coeff,
    continuity_residuals,
    default_r1,
    eval_psi,
    eval_psi_prime,
    margin_scan_nodes,
    psi_inequality_margin,
    validate_params,
)

# frozen continuity-exact constants at the default R1 policy (regression baseline)
BASELINE_TRIPLE = (0.05214759925088089, 0.10045563921841705, 2.2210200000000015)


def test_baseline_triple_regression(baseline_spec):
    B, R0, R1 = BASELINE_TRIPLE
    assert baseline_spec.B == pytest.approx(B, rel=1e-14)
    assert baseline_spec.R0 == pytest.approx(R0, rel=1e-14)
    assert baseline_spec.R1 == pytest.approx(R1, rel=1e-14)


def test_plateau_value(baseline_spec):
    assert eval_psi(baseline_spec, 0.0) == pytest.approx(2.5)


def test_continuity_residuals(baseline_spec):
    res0, res1 = continuity_residuals(baseline_spec)
    assert res0 <= 1e-10
    assert res1 <= 1e-10


def test_psi_vanishes_at_r1(baseline_spec):
    assert eval_psi(baseline_spec, baseline_spec.R1) == 0.0
    # the middle branch hits zero there too
    rho1 = 1.0 + baseline_spec.R1
    mid = baseline_spec.B / (1.0 - rho1 ** (-baseline_spec.delta)) - baseline_spec.E / 4.0
    assert abs(mid) <= 1e-10


def test_branch_difference_at_r0(baseline_spec):
    s = baseline_spec
    mid = s.B / (1.0 - (1.0 + s.R0) ** (-s.delta)) - s.E / 4.0
    assert abs(mid - s.plateau) <= 1e-10


def test_psi_nonincreasing_and_nonnegative(baseline_spec):
    r = np.linspace(0.0, 2.0 * baseline_spec.R1, 5000)
    vals = eval_psi(baseline_spec, r)
    assert np.all(vals >= 0.0)
    mid = (r > baseline_spec.R0) & (r < baseline_spec.R1)
    assert np.all(np.diff(vals[mid]) <= 1e-12)


def test_psi_prime_sign_and_support(baseline_spec):
    r = np.linspace(0.0, 2.0 * baseline_spec.R1, 2000)
    d = eval_psi_prime(baseline_spec, r)
    mid = (r > baseline_spec.R0) & (r < baseline_spec.R1)
    assert np.all(d[~mid] == 0.0)
    assert np.all(d[mid] < 0.0)


def test_middle_margin_reduction(baseline_spec):
    # on (R0, R1) the psi terms cancel: margin = E/4 - Vplus - Vplus' * coeff
    s = baseline_spec
    r = np.linspace(s.R0 * 1.001, s.R1 * 0.999, 300)
    rho = 1.0 + r
    expected = s.E / 4.0 - rho ** (-s.delta0) - rho ** (-1.0 - s.delta0) * barrier_coeff(s, r)
    got = psi_inequality_margin(s, r)
    assert np.allclose(got, expected, rtol=0, atol=1e-12)


def test_plateau_margin_lower_bound(baseline_spec):
    # on [0, R0]: V+ <= 1 and V+' * coeff <= coeff(R0), so the margin is at
    # least E/2 + 1/delta0 - 1 - coeff(R0) there
    s = baseline_spec
    r = np.linspace(0.0, s.R0, 400)
    got = psi_inequality_margin(s, r)
    bound = s.E / 2.0 + s.plateau - 1.0 - barrier_coeff(s, s.R0)
    assert np.all(got >= bound - 1e-12)
    assert bound > 0.0


def test_zero_potential_margin_dominates(baseline_spec):
    # dropping the nonnegative subtracted terms can only increase the margin
    r = margin_scan_nodes(baseline_spec, 2000)
    env = psi_inequality_margin(baseline_spec, r)
    inst = psi_inequality_margin(baseline_spec, r, (np.zeros_like(r), np.zeros_like(r)))
    assert np.all(inst >= env - 1e-12)
    coeff = barrier_coeff(baseline_spec, r)
    lower = baseline_spec.E / 2.0 - np.abs(eval_psi_prime(baseline_spec, r)) * coeff
    assert np.all(inst >= lower - 1e-12)


def test_search_certifies_large_energy(certified_params, certified_spec):
    r = margin_scan_nodes(certified_spec)
    assert psi_inequality_margin(certified_spec, r).min() >= 0.0
    res0, res1 = continuity_residuals(certified_spec)
    assert max(res0, res1) <= 1e-10
    assert certified_spec.E == certified_params.E


def test_search_fails_at_baseline_delta(baseline_params):
    # delta = delta0/2 = 0.2 is not small enough: on (R0, R1) the margin
    # requires Vplus(R0) + Vplus'(R0) coeff(R0) <= E/4 while continuity pins
    # R0 below (1 + E delta0/4)^(1/delta) - 1
    with pytest.raises(ConstructionError, match="no admissible R1"):
        find_psi_constants(baseline_params, PsiSearch(num_r1=64, margin_nodes=2000))


def test_search_certifies_tiny_delta_huge_r1():
    # the certificate exists for delta = 0.01 once R1 passes ~1e203
    p = validate_params(ProblemParams(E=1.0, delta0=0.4, s=0.505))
    spec = find_psi_constants(
        p, PsiSearch(r1_lo=1e200, r1_hi=1e306, num_r1=48, margin_nodes=4000)
    )
    assert spec.R1 > 1e202
    nodes = margin_scan_nodes(spec, 4000)
    margins = psi_inequality_margin(spec, nodes)
    assert np.all(np.isfinite(margins))
    assert margins.min() >= 0.0


def test_degenerate_r1_range_errors(baseline_params, baseline_spec):
    lo, hi = 0.5 * baseline_spec.R0, baseline_spec.R0
    with pytest.raises(ConstructionError, match="no admissible R1"):
        find_psi_constants(baseline_params, PsiSearch(r1_lo=lo, r1_hi=hi, num_r1=16, margin_nodes=500))


@pytest.mark.parametrize("bad", [{"num_r1": -1}, {"span": 0.0}])
def test_bad_search_settings_error(baseline_params, bad):
    # both once raised numpy's ValueError from geomspace
    with pytest.raises(ConstructionError, match="bad search"):
        find_psi_constants(baseline_params, PsiSearch(**bad))


def test_from_continuity_rejects_bad_r1(baseline_params):
    with pytest.raises(ConstructionError):
        PsiSpec.from_continuity(baseline_params, -1.0)


@settings(max_examples=60, deadline=None)
@given(
    E=st.floats(min_value=0.1, max_value=16.0),
    delta0=st.floats(min_value=0.05, max_value=0.49),
    frac=st.floats(min_value=0.05, max_value=0.95),
    r1_scale=st.floats(min_value=0.2, max_value=50.0),
)
def test_psi_profile_invariants_across_parameters(E, delta0, frac, r1_scale):
    # for any continuity-exact constants: 0 <= psi <= 1/delta0 everywhere,
    # plateau on [0, R0], zero on [R1, inf), nonincreasing in between
    p = validate_params(ProblemParams(E=E, delta0=delta0, s=(1.0 + frac * delta0) / 2.0))
    spec = PsiSpec.from_continuity(p, r1_scale * default_r1(p))
    r = np.unique(np.concatenate([
        np.linspace(0.0, 2.0 * spec.R1, 800), [spec.R0, spec.R1]
    ]))
    vals = eval_psi(spec, r)
    assert np.all(vals >= -1e-12)
    assert np.all(vals <= spec.plateau + 1e-10)
    assert np.all(vals[r <= spec.R0] == spec.plateau)
    assert np.all(vals[r >= spec.R1] == 0.0)
    mid = (r > spec.R0) & (r < spec.R1)
    assert np.all(np.diff(vals[mid]) <= 1e-10)


def test_scan_nodes_resolve_kinks(baseline_spec):
    nodes = margin_scan_nodes(baseline_spec, 1000)
    assert baseline_spec.R0 in nodes
    assert baseline_spec.R1 in nodes
    assert nodes[0] == 0.0
    assert np.all(np.diff(nodes) > 0)
