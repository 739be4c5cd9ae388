"""Signed-margin verification of the inequality chain and quadratic-form tests.

Every verifier reports the minimum signed margin over a grid together with
its location; a check passes iff min_margin >= -tolerance.  Envelope mode
substitutes the worst admissible potential values, certifying an inequality
for the whole decay class at once; instance mode checks one sampled
potential.
"""

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .box import BoxDiscretization
from .errors import (
    CertificationError,
    ConstructionError,
    GridMismatchError,
)
from .potentials import PotentialSample
from .weights import (
    PsiSpec,
    WeightTables,
    build_w,
    eval_g,
    eval_m,
    eval_psi,
    eval_psi_prime,
    phi_at,
    psi_inequality_margin,
)

if TYPE_CHECKING:  # resolvent loads scipy; an assembled operator has loaded it already
    from .resolvent import DiscreteOperator

DEFAULT_TOL = 1e-12


@dataclass(frozen=True)
class MarginReport:
    name: str
    min_margin: float
    argmin: tuple | float
    grid_size: int
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.min_margin >= -self.tolerance

    def to_dict(self) -> dict:
        argmin = self.argmin if isinstance(self.argmin, float) else list(self.argmin)
        return {
            "name": self.name,
            "min_margin": self.min_margin,
            "argmin": argmin,
            "grid_size": self.grid_size,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


def _report(name, margins, locations, tolerance) -> MarginReport:
    i = int(np.argmin(margins))
    loc = locations[i]
    loc = float(loc) if np.isscalar(loc) or getattr(loc, "ndim", 1) == 0 else tuple(map(float, loc))
    return MarginReport(
        name=name,
        min_margin=float(margins[i]),
        argmin=loc,
        grid_size=int(len(margins)),
        tolerance=tolerance,
    )


def _kind(potential: PotentialSample | None, r: np.ndarray) -> str:
    """The report kind: "envelope", or "instance:<name>" for a radial sample
    on exactly the nodes r; any other sample raises GridMismatchError."""
    if potential is None:
        return "envelope"
    if potential.mode != "radial" or not np.array_equal(potential.r, r):
        raise GridMismatchError(
            f"grid mismatch: instance mode needs a radial sample on the {r.size} verified nodes"
        )
    return f"instance:{potential.name}"


# ----------------------------------------------------------------------------
# profile inequality
# ----------------------------------------------------------------------------

def verify_psi_inequality(
    spec: PsiSpec,
    nodes,
    potential: PotentialSample | None = None,
    tolerance: float = DEFAULT_TOL,
) -> MarginReport:
    """Margin of psi - V - (dV - psi') w/w' + E/2 >= 0 over the nodes.

    potential=None uses the worst-case envelopes; a radial-mode sample must
    share the nodes.
    """
    r = np.asarray(nodes, dtype=float)
    kind = _kind(potential, r)
    sample = None if potential is None else (potential.values, potential.radial_derivative)
    margins = psi_inequality_margin(spec, r, sample)
    return _report(f"psi_inequality[{kind}]", margins, r, tolerance)


# ----------------------------------------------------------------------------
# effective potential
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class EffectivePotentialTable:
    vphi: np.ndarray
    h: float
    cross_residual: float


def effective_potential(V: PotentialSample, wt: WeightTables) -> EffectivePotentialTable:
    """V_phi = V - (phi')^2 + h phi'' - h^2/(4 r^2) on the table grid.

    phi'' is substituted from the flow equation, phi'' = ((phi')^2 - psi)/h,
    so the table route and the identity route V - psi - h^2/(4 r^2) agree up
    to float association; the residual between them is reported.
    """
    r = wt.grid.nodes
    _kind(V, r)
    h = wt.h
    phi2 = (wt.u**2 - wt.psi) / h
    pole = h * h / (4.0 * r**2)
    vphi = V.values - wt.u**2 + h * phi2 - pole
    ident = V.values - wt.psi - pole
    return EffectivePotentialTable(
        vphi=vphi, h=h, cross_residual=float(np.abs(vphi - ident).max())
    )


# ----------------------------------------------------------------------------
# E/4 lower bound on d/dr (w (E - V_phi))
# ----------------------------------------------------------------------------

def e4_margin(
    spec: PsiSpec,
    h: float,
    nodes: np.ndarray,
    potential: PotentialSample | None = None,
) -> np.ndarray:
    """Pointwise margin of the expansion identity

        d/dr(w(E - V_phi)) = (E - V + psi) w' + (-dV + psi') w + T(r)

    against (E/4) w', where T = 0 on the plateau (w' - 2w/r = 0 exactly
    there) and T = h^2 g(r) w' beyond R0.  Envelope mode substitutes
    V -> (1+r)^-delta0 and dV -> +(1+r)^-(1+delta0).
    """
    r = np.asarray(nodes, dtype=float)
    _kind(potential, r)  # a sample must sit on exactly these nodes
    if potential is None:
        V, dV = (1.0 + r) ** (-spec.delta0), (1.0 + r) ** (-1.0 - spec.delta0)
    else:
        V, dV = potential.values, potential.radial_derivative
    w, wp, _ = build_w(spec, r)
    ab = (spec.E - V + eval_psi(spec, r)) * wp + (-dV + eval_psi_prime(spec, r)) * w
    g = eval_g(spec, np.maximum(r, spec.R0))
    return ab + np.where(r > spec.R0, h * h * g * wp, 0.0) - (spec.E / 4.0) * wp


def verify_E4_inequality(
    spec: PsiSpec,
    nodes,
    h1: float,
    potential: PotentialSample | None = None,
    tolerance: float = DEFAULT_TOL,
) -> MarginReport:
    """Minimum E/4 margin over the nodes, certified for every h in (0, h1].

    One evaluation at h = h1 suffices.  4 r^2 g(r) <= -1 for all r > 0,
    because (1+r)((1+r)^delta - 1) >= delta (1+r) ln(1+r) >= delta r; so
    g < 0, and T = h^2 g w' (zero on the plateau) only falls as h grows.
    At every node the margin is smallest at h1, in floating point too, since
    rounding is monotone.
    """
    r = np.asarray(nodes, dtype=float)
    return _report(f"e4_inequality[{_kind(potential, r)}]",
                   e4_margin(spec, h1, r, potential), r, tolerance)


def verify_barrier_facts(spec: PsiSpec, nodes, tolerance: float = DEFAULT_TOL) -> list:
    """Pointwise barrier facts on the nodes:

    w' > 0; 2w/r - w' >= 0; w^2/w' + w^2 <= (1+delta) w/w';
    w/w' <= max(2/delta, R0/2) m^2.
    """
    r = np.asarray(nodes, dtype=float)
    w, wp, _ = build_w(spec, r)
    m2_cap = max(2.0 / spec.delta, spec.R0 / 2.0) * eval_m(spec.delta, r) ** 2
    return [
        _report("barrier:wprime_positive", wp, r, 0.0),
        _report("barrier:2w_over_r_minus_wprime", 2.0 * w / r - wp, r, tolerance),
        _report("barrier:one_plus_delta_cap",
                (1.0 + spec.delta) * w / wp - (w**2 / wp + w**2), r, tolerance),
        _report("barrier:w_over_wprime_vs_m2", m2_cap - w / wp, r, tolerance),
    ]


# ----------------------------------------------------------------------------
# origin shift and gluing
# ----------------------------------------------------------------------------

def shift_radius_bound(delta0: float) -> float:
    """Largest admissible shift 2^(1/(1+delta0)) - 1."""
    return 2.0 ** (1.0 / (1.0 + delta0)) - 1.0


def verify_shift_envelope(
    x0,
    delta0: float,
    disc: BoxDiscretization,
    tolerance: float = DEFAULT_TOL,
) -> MarginReport:
    """Check ((1+|x|)/(1+|x-x0|))^p <= 2 for p in {delta0, 1+delta0} on the
    grid; this is what keeps the shifted potential inside the decay class."""
    x0 = np.asarray(x0, dtype=float)
    r0 = float(np.hypot(*x0))
    bound = shift_radius_bound(delta0)
    # one-ulp slack so points constructed on the admissible circle pass
    if r0 > bound * (1.0 + 4.0 * np.finfo(float).eps):
        raise ConstructionError(
            f"x0 too large: |x0| = {r0:.6g} exceeds 2^(1/(1+delta0)) - 1 = {bound:.6g}"
        )
    X, Y = disc.mesh()
    rx = np.hypot(X, Y).ravel()
    rs = np.hypot(X - x0[0], Y - x0[1]).ravel()
    ratio = (1.0 + rx) / (1.0 + rs)
    margins = np.minimum(2.0 - ratio ** (1.0 + delta0), 2.0 - ratio**delta0)
    pts = np.column_stack([X.ravel(), Y.ravel()])
    return _report("shift_envelope", margins, pts, tolerance)


@dataclass(frozen=True)
class GluingConstants:
    K: float
    R: float
    k_weight_floor: float   # sup m^-2 / (w' + w'(|.-x0|))
    k_weight_cap: float     # sup (m^2 + m(|.-x0|)^2) / m^2
    edge_floor: float
    edge_cap: float


def gluing_constants(spec: PsiSpec, x0, disc: BoxDiscretization) -> GluingConstants:
    """Constants of the two-center gluing step.

    K bounds m^-2 <= K (w' + w'(|.-x0|)) and m^2 + m(|.-x0|)^2 <= K m^2
    pointwise (first powers of w' in the floor ratio: these are the forms
    the added estimates consume, and the only ones with finite suprema on
    unbounded domains; both ratios tend to 1/(2 delta) and 2).  R is the
    radius beyond which both phases are flat: R = R1 + |x0| by the support
    of phi'.  The grid maximum is certified against the decreasing edge
    envelope; if the edge value exceeds the interior maximum the grid is too
    small.
    """
    x0 = np.asarray(x0, dtype=float)
    r0 = float(np.hypot(*x0))
    if r0 <= 0.0:
        raise ConstructionError("gluing needs a nonzero shift x0")
    X, Y = disc.mesh()
    rx = np.hypot(X, Y).ravel()
    rs = np.hypot(X - x0[0], Y - x0[1]).ravel()
    # edge envelope: beyond the farthest node both ratios are decreasing in
    # |x|; bound w'(|x - x0|) >= w'(|x| + |x0|) by monotonicity of w'
    r_edge = float(rx.max())
    _, wp_e, _ = build_w(spec, r_edge)
    _, wp_es, _ = build_w(spec, r_edge + r0)
    if not wp_e + wp_es > 0.0:
        raise ConstructionError(
            f"edge envelope underflows: w' is 0 at the box corner |x| = {r_edge:.3g} "
            f"(half-width {disc.L:.3g}); shrink verify.box.half_width"
        )
    _, wp_x, _ = build_w(spec, rx)
    _, wp_s, _ = build_w(spec, rs)
    m2 = eval_m(spec.delta, rx) ** 2
    m2_s = eval_m(spec.delta, rs) ** 2
    floor = (1.0 / m2) / (wp_x + wp_s)
    cap = (m2 + m2_s) / m2
    k_floor = float(floor.max())
    k_cap = float(cap.max())
    edge_floor = float((1.0 / eval_m(spec.delta, r_edge) ** 2) / (wp_e + wp_es))
    edge_cap = float(1.0 + (eval_m(spec.delta, r_edge + r0) / eval_m(spec.delta, r_edge)) ** 2)
    if edge_floor > k_floor or edge_cap > k_cap:
        raise CertificationError(
            "tail not certified: edge envelope exceeds interior max "
            f"(floor {edge_floor:.4g} vs {k_floor:.4g}, cap {edge_cap:.4g} vs {k_cap:.4g})"
        )
    return GluingConstants(
        K=max(k_floor, k_cap),
        R=spec.R1 + r0,
        k_weight_floor=k_floor,
        k_weight_cap=k_cap,
        edge_floor=edge_floor,
        edge_cap=edge_cap,
    )


# ----------------------------------------------------------------------------
# quadratic-form tests
# ----------------------------------------------------------------------------

BOUNDARY_MARGIN_CELLS = 3


@dataclass(frozen=True)
class QuadFormResult:
    lhs: float
    rhs1: float
    rhs2: float
    implied_c: float


def _form_arrays(v, wt: WeightTables, op: "DiscreteOperator", eps: float, name: str):
    """r, m^2, |v|^2 and |(P - i eps) v|^2 at the nodes, once eps >= 0, the
    tables' phi solves the flow at the operator's h, the box reaches
    2 (R1 + 1) (past the flat region of phi, for the indicator split) and v
    fits the grid with support BOUNDARY_MARGIN_CELLS inside the wall."""
    if eps < 0.0:
        raise ConstructionError(f"eps must be nonnegative, got {eps}")
    if op.h != wt.h:
        raise GridMismatchError(f"tables built at h = {wt.h!r}, operator at h = {op.h!r}")
    disc = op.disc
    need = 2.0 * (wt.spec.R1 + 1.0)
    if disc.L < need * (1.0 - 1e-12):
        raise ConstructionError(
            f"box half-width {disc.L:.4g} below 2 (R1 + 1) = {need:.4g}"
        )
    v = np.asarray(v, dtype=complex).ravel()
    if v.size != disc.size:
        raise GridMismatchError("test function does not match the grid")
    k = BOUNDARY_MARGIN_CELLS
    v2d = v.reshape(disc.n, disc.n)
    if np.any(v2d[:k]) or np.any(v2d[-k:]) or np.any(v2d[:, :k]) or np.any(v2d[:, -k:]):
        raise ConstructionError(f"support touches boundary in {name}")
    r = disc.radii()
    return r, eval_m(wt.spec.delta, r) ** 2, np.abs(v) ** 2, np.abs(op.apply_shifted(eps, v)) ** 2


def _implied_c(lhs, rhs1, rhs2, h, eps) -> float:
    """The smallest C with lhs <= C (rhs1/h^2 + eps rhs2/h); 0 when v = 0."""
    denom = rhs1 / h**2 + eps * rhs2 / h
    return lhs / denom if denom > 0.0 else 0.0


def carleman_quadratic_form_test(
    v: np.ndarray,
    wt: WeightTables,
    op: "DiscreteOperator",
    eps: float = 0.0,
) -> QuadFormResult:
    """Evaluate both sides of the exponential-weight estimate on one sample.

    lhs  = sum w'(|x|) e^(2 phi/h) |v|^2 da
    rhs1 = sum m(|x|)^2 e^(2 phi/h) |(P - i eps) v|^2 da
    rhs2 = sum e^(2 phi/h) |v|^2 da
    implied_c = lhs / (rhs1/h^2 + eps rhs2/h); 0 when v = 0.
    """
    r, m2, av2, pv2 = _form_arrays(v, wt, op, eps, "quadratic form test")
    h = op.h
    da = op.disc.cell_area()
    expw = np.exp(2.0 * phi_at(wt, r) / h)
    _, wp, _ = build_w(wt.spec, r)
    lhs = float(np.sum(wp * expw * av2) * da)
    rhs1 = float(np.sum(m2 * expw * pv2) * da)
    rhs2 = float(np.sum(expw * av2) * da)
    return QuadFormResult(lhs=lhs, rhs1=rhs1, rhs2=rhs2,
                          implied_c=_implied_c(lhs, rhs1, rhs2, h, eps))


@dataclass(frozen=True)
class CombinedResult:
    lhs_interior: float
    lhs_exterior: float
    rhs1: float
    rhs2: float
    implied_c: float


def combined_estimate_test(
    v: np.ndarray,
    wt: WeightTables,
    op: "DiscreteOperator",
    x0,
    eps: float,
) -> CombinedResult:
    """Evaluate the glued two-center estimate

        e^(-C0/h) |m^-1 1_{<=R} v|^2 + |m^-1 1_{>=R} v|^2
            <= C (1/h^2 |m (P - i eps) v|^2 + eps/h |v|^2)

    with C0 = 2 max phi and R = R1 + |x0|, reporting the smallest C that
    makes it hold for this v.  The proof renormalizes to eps <= h, which is
    enforced as a precondition.
    """
    h = op.h
    if eps > h:
        raise ConstructionError(f"combined estimate needs eps <= h, got eps = {eps}, h = {h}")
    r, m2, av2, pv2 = _form_arrays(v, wt, op, eps, "combined estimate test")
    R = wt.spec.R1 + float(np.hypot(*np.asarray(x0, dtype=float)))
    da = op.disc.cell_area()
    inv_m2 = 1.0 / m2
    lhs_i = math.exp(-wt.C0 / h) * float(np.sum(inv_m2 * av2 * (r <= R)) * da)
    lhs_e = float(np.sum(inv_m2 * av2 * (r >= R)) * da)
    rhs1 = float(np.sum(m2 * pv2) * da)
    rhs2 = float(np.sum(av2) * da)
    return CombinedResult(lhs_interior=lhs_i, lhs_exterior=lhs_e, rhs1=rhs1, rhs2=rhs2,
                          implied_c=_implied_c(lhs_i + lhs_e, rhs1, rhs2, h, eps))


# ----------------------------------------------------------------------------
# discrete test functions
# ----------------------------------------------------------------------------

def bump(disc: BoxDiscretization, center, radius: float, amplitude: float = 1.0) -> np.ndarray:
    """Compactly supported mollifier exp(1 - 1/(1 - t^2)) on t = |x - c|/radius.

    Vanishes identically outside the disk, so the boundary-margin check is
    exact, not a numerical cutoff.
    """
    cx, cy = float(center[0]), float(center[1])
    k = BOUNDARY_MARGIN_CELLS + 1
    inner = disc.L - k * disc.a
    if np.hypot(cx, cy) + radius > inner:
        raise ConstructionError(
            f"bump support [{radius:.3g} around ({cx:.3g},{cy:.3g})] leaves the "
            f"safe region |x| <= {inner:.3g}"
        )
    X, Y = disc.mesh()
    t2 = ((X - cx) ** 2 + (Y - cy) ** 2) / radius**2
    out = np.zeros_like(X)
    mask = t2 < 1.0
    out[mask] = amplitude * np.exp(1.0 - 1.0 / (1.0 - t2[mask]))
    return out.ravel()


def bump_ensemble(disc: BoxDiscretization, count: int, rng, r_outer: float) -> list:
    """Seeded ensemble of random bumps inside |x| <= r_outer."""
    out = []
    k = BOUNDARY_MARGIN_CELLS + 1
    inner = min(r_outer, disc.L - k * disc.a)
    for _ in range(count):
        radius = rng.uniform(0.15, 0.45) * inner
        rc = rng.uniform(0.0, inner - radius)
        th = rng.uniform(0.0, 2.0 * np.pi)
        amp = rng.uniform(0.5, 2.0)
        out.append(bump(disc, (rc * np.cos(th), rc * np.sin(th)), radius, amp))
    return out
