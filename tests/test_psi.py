import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import carlab.weights
from carlab import ConstructionError, ProblemParams, PsiSearch, PsiSpec, find_psi_constants
from carlab.weights import (
    _envelope_min,
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


# ----------------------------------------------------------------------------
# exact envelope minimum over [0, inf) and the search built on it
# ----------------------------------------------------------------------------

ROOT = Path(__file__).resolve().parents[1]
# E = 8, delta0 = 0.1, delta = 0.08: the envelope margin on [0, 2 R1] is
# positive at R1 = 1, but its tail reaches -2.83 near r = 1.9e8
FALSE_CERTIFICATE = (ProblemParams(E=8.0, delta0=0.1, s=0.54),
                     PsiSearch(r1_lo=1.0, r1_hi=1e6, num_r1=64))


def scan_search(p, search):
    """The constant search certified on margin_scan_nodes' [0, span R1]."""
    for r1 in np.geomspace(search.r1_lo, search.r1_hi, search.num_r1):
        spec = PsiSpec.from_continuity(p, r1)
        nodes = margin_scan_nodes(spec, search.margin_nodes, search.span)
        if psi_inequality_margin(spec, nodes).min() >= search.min_margin:
            return spec
    return None


def r_star(p):
    """Where G, the envelope's subtracted part, peaks: (q^(1/delta) - 1)."""
    q = p.delta0 * (1.0 - p.delta) / (p.delta0 - p.delta)
    with np.errstate(over="ignore"):
        return np.expm1(np.log(q) / p.delta)


def searched_points():
    """(params, search) of every shipped or benchmarked config that searches,
    and of the README's small-delta regime."""
    configs = [json.loads(path.read_text()) for path in sorted((ROOT / "configs").glob("*.json"))]
    reference = json.loads((ROOT / "perfbench" / "reference" / "construct-verify.json").read_text())
    configs += [item["config"] for item in reference["inputs"]]
    configs.append({"problem": {"E": 1.0, "delta0": 0.4, "s": 0.505}, "weights": {"search": {}}})
    points = {}
    for cfg in configs:
        search = cfg.get("weights", {}).get("search")
        if search is not None:
            points[ProblemParams(**cfg["problem"]), PsiSearch(**search)] = None
    return list(points)


def test_exact_minimum_against_scans():
    # never above the 10k scan on [0, 2 R1], and equal to a scan on
    # [0, 4 max(R1, r*)] refined around its argmin, for 50 draws x 32 R1
    rng = np.random.default_rng(20261019)
    checked = 0
    for _ in range(50):
        d0 = rng.uniform(0.01, 0.49)
        p = validate_params(ProblemParams(E=float(np.exp(rng.uniform(np.log(0.1), np.log(16.0)))),
                                          delta0=d0, s=(1.0 + rng.uniform(0.02, 0.98) * d0) / 2.0))
        for r1 in np.geomspace(1e-3, 1e306, 32):
            spec = PsiSpec.from_continuity(p, r1)
            exact = _envelope_min(spec)
            scan = psi_inequality_margin(spec, margin_scan_nodes(spec)).min()
            assert exact <= scan + 1e-12 * (1.0 / p.delta0 + p.E)
            span = 4.0 * max(r1, r_star(p)) / r1
            if not np.isfinite(span * r1):
                continue
            nodes = margin_scan_nodes(spec, 10_000, span)
            m = psi_inequality_margin(spec, nodes)
            i = int(np.argmin(m))
            fine = np.linspace(nodes[max(i - 1, 0)], nodes[min(i + 1, nodes.size - 1)], 10_000)
            refined = min(m[i], psi_inequality_margin(spec, fine).min())
            assert exact == pytest.approx(refined, rel=1e-9, abs=0.0)
            checked += 1
    assert checked >= 1500


@pytest.mark.parametrize("point", searched_points(),
                         ids=lambda pt: f"E{pt[0].E}-d0{pt[0].delta0}-s{pt[0].s}-n{pt[1].num_r1}")
def test_search_picks_the_scan_search_constants(point):
    # wherever the scan's certificate was true the exact search is bit-identical
    p, search = point
    assert find_psi_constants(p, search) == scan_search(p, search)


def test_false_certificate_is_rejected():
    p, search = FALSE_CERTIFICATE
    spec = scan_search(p, search)
    assert spec.R1 == 1.0  # the sampled scan accepted it
    r = np.array([r_star(p)])
    assert 1e8 < r[0] < 1e9 and psi_inequality_margin(spec, r)[0] < -2.8
    with pytest.raises(ConstructionError, match="no admissible R1.*best envelope margin -2.828"):
        find_psi_constants(p, search)


def test_search_margin_calls_do_not_grow_with_candidates(monkeypatch):
    # the search visits the same 213 candidates as one margin call per
    # candidate did, in 4 calls of 8 radii per candidate of a block of 64,
    # and a first-candidate hit costs the first block's one call
    calls = []
    margin = carlab.weights.psi_inequality_margin

    def counted(spec, r, potential=None):
        calls.append(np.shape(r))
        return margin(spec, r, potential)

    monkeypatch.setattr(carlab.weights, "psi_inequality_margin", counted)
    p = validate_params(ProblemParams(E=1.0, delta0=0.4, s=0.505))
    spec = find_psi_constants(p)
    visited = int(np.flatnonzero(np.geomspace(1.0, 1e306, 320) == spec.R1)[0]) + 1
    assert visited == loop_search(p, PsiSearch(), count=True)[1] == 213
    assert calls == [(8, 64)] * 4
    calls.clear()
    assert find_psi_constants(*FIRST_CANDIDATE_HIT).R1 == FIRST_CANDIDATE_HIT[1].r1_lo
    assert calls == [(8, 64)]


def _envelope_min_per_candidate(spec):
    """`_envelope_min` of one candidate as a scalar computation: the oracle."""
    d, d0 = spec.delta, spec.delta0
    q_minus_1 = d * (1.0 - d0) / (d0 - d)
    log_q = float(np.log1p(q_minus_1))
    with np.errstate(over="ignore"):
        r_star = float(np.expm1(log_q / d))
    lo_mid, hi_mid = np.nextafter(spec.R0, np.inf), np.nextafter(spec.R1, 0.0)
    r = [0.0, spec.R0, lo_mid, hi_mid, spec.R1,
         min(r_star, spec.R0), min(max(r_star, lo_mid), hi_mid)]
    tail = np.inf
    if np.isfinite(r_star):
        r.append(max(r_star, spec.R1))
    else:
        tail = spec.E / 2.0 - np.exp(-d0 / d * log_q) * (1.0 + q_minus_1 / d)
    return min(float(psi_inequality_margin(spec, r).min()), tail)


def loop_search(p, search, count=False):
    """The constant search one candidate and one margin call at a time: the
    oracle for the blocked search.  count=True also returns the candidates visited."""
    best = -np.inf
    for i, r1 in enumerate(np.geomspace(search.r1_lo, search.r1_hi, search.num_r1)):
        spec = PsiSpec.from_continuity(p, r1)
        m = _envelope_min_per_candidate(spec)
        if m >= search.min_margin:
            return (spec, i + 1) if count else spec
        best = max(best, m)
    raise ConstructionError(
        "no admissible R1 in range "
        f"[{search.r1_lo:.3g}, {search.r1_hi:.3g}]: best envelope margin {best:.6g} "
        f"(delta = {p.delta} is not small enough for E = {p.E}, delta0 = {p.delta0})"
    )


def outcome(search_fn, p, search):
    try:
        return search_fn(p, search)
    except ConstructionError as exc:
        return f"ConstructionError: {exc}"


FIRST_CANDIDATE_HIT = (ProblemParams(E=8.0, delta0=0.45, s=0.55),
                       PsiSearch(r1_lo=1.0, r1_hi=1e6, num_r1=64))
SEARCH_ERROR_CASES = {
    # no admissible candidate: the "best envelope margin" message
    "baseline-no-certificate": (ProblemParams(E=1.0, delta0=0.4, s=0.6), PsiSearch(num_r1=64)),
    "false-certificate": FALSE_CERTIFICATE,
    "below-R0": (ProblemParams(E=1.0, delta0=0.4, s=0.6),
                 PsiSearch(r1_lo=0.05, r1_hi=0.1, num_r1=16)),
    "small-delta-short-range": (ProblemParams(E=1.0, delta0=0.4, s=0.505),
                                PsiSearch(r1_hi=1e200, num_r1=300)),
    # the first candidate rounds R0 to 0: "need R1 > R0 > 0"
    "R0-underflows": (FIRST_CANDIDATE_HIT[0], PsiSearch(r1_lo=5e-324, r1_hi=1e6, num_r1=64)),
    # the second candidate, in the second block, fails the continuity gate
    "continuity-gate": (ProblemParams(E=1.0, delta0=0.4, s=0.505),
                        PsiSearch(r1_lo=5.6234132e-316, r1_hi=1e6, num_r1=320)),
}


@pytest.mark.parametrize("point", searched_points() + [FIRST_CANDIDATE_HIT],
                         ids=lambda pt: f"E{pt[0].E}-d0{pt[0].delta0}-s{pt[0].s}-n{pt[1].num_r1}")
def test_blocked_search_equals_the_per_candidate_loop(point):
    assert outcome(find_psi_constants, *point) == outcome(loop_search, *point)


@pytest.mark.parametrize("case", sorted(SEARCH_ERROR_CASES))
def test_blocked_search_raises_the_per_candidate_loop_error(case):
    p, search = SEARCH_ERROR_CASES[case]
    expected = outcome(loop_search, p, search)
    assert expected.startswith("ConstructionError: ")
    if case == "continuity-gate":
        first, second = np.geomspace(search.r1_lo, search.r1_hi, search.num_r1)[:2]
        assert _envelope_min(PsiSpec.from_continuity(p, first)) < 0.0
        with pytest.raises(ConstructionError, match="continuity residuals") as exc:
            PsiSpec.from_continuity(p, second)
        assert expected == f"ConstructionError: {exc.value}"
    if case == "R0-underflows":
        assert "need R1 > R0 > 0" in expected
    assert outcome(find_psi_constants, p, search) == expected


def test_blocked_envelope_min_equals_the_per_candidate_oracle():
    # one margin call over k rows of radii gives each row's scalar minimum bit for bit
    rng = np.random.default_rng(27)
    for _ in range(24):
        d0 = rng.uniform(0.01, 0.49)
        p = validate_params(ProblemParams(E=float(np.exp(rng.uniform(np.log(0.1), np.log(16.0)))),
                                          delta0=d0, s=(1.0 + rng.uniform(0.02, 0.98) * d0) / 2.0))
        r1 = np.geomspace(1e-3, 1e306, 64)
        block = carlab.weights._spec_block(p, r1)
        oracle = [_envelope_min_per_candidate(PsiSpec.from_continuity(p, x)) for x in r1]
        assert np.array_equal(_envelope_min(block), oracle)


def test_closed_form_tail_beyond_float_range():
    # at delta0 = 1e-3, rho* = q^(1/delta) is about e^1386: the tail's
    # infimum comes from the closed form, checked here in log(rho)
    p = validate_params(ProblemParams(E=1.0, delta0=1e-3, s=(1.0 + 5e-4) / 2.0))
    assert r_star(p) == np.inf
    spec = PsiSpec.from_continuity(p, 1e6)
    d, d0 = p.delta, p.delta0

    def tail(x):  # E/2 - G(rho) at x = log(rho)
        return p.E / 2.0 - np.exp(-d0 * x) * (1.0 + np.expm1(d * x) / d)

    x = np.linspace(np.log1p(spec.R1), 4000.0, 200_001)
    i = int(np.argmin(tail(x)))
    closed = p.E / 2.0 - (d0 * (1.0 - d) / (d0 - d)) ** (1.0 - d0 / d) / d0
    assert tail(x).min() >= closed - 1e-12
    assert tail(np.linspace(x[i - 1], x[i + 1], 10_001)).min() == pytest.approx(closed, abs=1e-9)
    finite = psi_inequality_margin(spec, margin_scan_nodes(spec)).min()
    assert closed < finite
    assert _envelope_min(spec) == pytest.approx(closed, rel=1e-12)
