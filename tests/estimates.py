"""Test oracles for the weighted estimates: the effective potential, the
exponential-weight and glued two-center quadratic forms, and the compact
bumps they are sampled on.

No command reads these; test_verify.py and test_acceptance.py use them, and
a sampled implied constant bounds the estimate's sharp constant from below.
"""

import math
from dataclasses import dataclass

import numpy as np

from carlab.errors import ConstructionError, GridMismatchError
from carlab.verify import _kind
from carlab.weights import build_w, eval_m

BOUNDARY_MARGIN_CELLS = 3


def phi_at(wt, r):
    """phi(|x|) for arbitrary radii: linear interpolation of the table,
    exactly max phi = C0/2 beyond R1 (phi is constant there)."""
    r = np.asarray(r, dtype=float)
    out = np.interp(r, wt.grid.nodes, wt.phi, left=0.0, right=wt.C0 / 2.0)
    # below r_min the integral of u from 0 is linear to first order in u0
    small = r < wt.grid.nodes[0]
    if np.any(small):
        out = np.where(small, 0.5 * (wt.u0 + np.interp(r, wt.grid.nodes, wt.u)) * r, out)
    return float(out) if out.ndim == 0 else out


# ----------------------------------------------------------------------------
# effective potential
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class EffectivePotentialTable:
    vphi: np.ndarray
    h: float
    cross_residual: float


def effective_potential(V, wt) -> EffectivePotentialTable:
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
# quadratic-form tests
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadFormResult:
    lhs: float
    rhs1: float
    rhs2: float
    implied_c: float


def _form_arrays(v, wt, op, eps: float, name: str):
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
    pv = op.matrix @ v - 1j * eps * v
    return r, eval_m(wt.spec.delta, r) ** 2, np.abs(v) ** 2, np.abs(pv) ** 2


def _implied_c(lhs, rhs1, rhs2, h, eps) -> float:
    """The smallest C with lhs <= C (rhs1/h^2 + eps rhs2/h); 0 when v = 0."""
    denom = rhs1 / h**2 + eps * rhs2 / h
    return lhs / denom if denom > 0.0 else 0.0


def carleman_quadratic_form_test(v, wt, op, eps: float = 0.0) -> QuadFormResult:
    """Evaluate both sides of the exponential-weight estimate on one sample.

    lhs  = sum w'(|x|) e^(2 phi/h) |v|^2 da
    rhs1 = sum m(|x|)^2 e^(2 phi/h) |(P - i eps) v|^2 da
    rhs2 = sum e^(2 phi/h) |v|^2 da
    implied_c = lhs / (rhs1/h^2 + eps rhs2/h); 0 when v = 0.
    """
    r, m2, av2, pv2 = _form_arrays(v, wt, op, eps, "quadratic form test")
    h = op.h
    da = op.disc.a * op.disc.a
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


def combined_estimate_test(v, wt, op, x0, eps: float) -> CombinedResult:
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
    da = op.disc.a * op.disc.a
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

def bump(disc, center, radius: float, amplitude: float = 1.0) -> np.ndarray:
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


def bump_ensemble(disc, count: int, rng, r_outer: float) -> list:
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
