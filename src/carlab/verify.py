"""Signed-margin verification of the inequality chain.

Every verifier reports the minimum signed margin over a grid together with
its location; a check passes iff min_margin >= -tolerance.  Envelope mode
substitutes the worst admissible potential values, certifying an inequality
for the whole decay class at once; instance mode checks one sampled
potential.
"""

from dataclasses import dataclass

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
    build_w,
    eval_g,
    eval_m,
    eval_psi,
    eval_psi_prime,
    psi_inequality_margin,
)

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
