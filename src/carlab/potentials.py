"""Potential samples and the admissibility envelope checks.

A PotentialSample holds V and its radial derivative either on a radial grid
(used by the inequality verifiers) or on a 2D box grid (used by the
discretized operator).  The envelope flags V <= c(1+r)^-delta0 and
|grad V| <= c(1+r)^-(1+delta0) are always recomputed here, never trusted
from input.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConstructionError

CATALOG = ("zero", "radial_decay", "trapping_ring")


@dataclass(frozen=True)
class PotentialSample:
    mode: str                      # "radial" or "field2d"
    r: np.ndarray                  # node radii (flattened for field2d)
    values: np.ndarray
    radial_derivative: np.ndarray
    grad_norm: np.ndarray          # |grad V| at nodes
    delta0: float
    c: float                       # envelope constant the sample is checked against
    envelope_ok: bool
    worst_ratio: float             # max over nodes of the two envelope ratios
    name: str = "custom"


def _envelope_ratios(r, V, grad_norm, delta0, c):
    rho = 1.0 + r
    ratio_v = V * rho**delta0 / c
    ratio_g = grad_norm * rho ** (1.0 + delta0) / c
    return ratio_v, ratio_g


def make_sample(mode, r, V, dV, grad_norm, delta0, c, name="custom") -> PotentialSample:
    ratio_v, ratio_g = _envelope_ratios(r, V, grad_norm, delta0, c)
    worst = float(max(ratio_v.max(), ratio_g.max()))
    return PotentialSample(
        mode=mode, r=r, values=V, radial_derivative=dV, grad_norm=grad_norm,
        delta0=delta0, c=c, envelope_ok=bool(worst <= 1.0 + 1e-12),
        worst_ratio=worst, name=name,
    )


def _radial_formulas(name, r, delta0, c, params):
    """Exact V and dV/dr for the catalog entries on radii r."""
    r = np.asarray(r, dtype=float)
    if name == "zero":
        return np.zeros_like(r), np.zeros_like(r)
    if name == "radial_decay":
        V = (c / 2.0) * (1.0 + r**2) ** (-delta0 / 2.0)
        dV = -(c / 2.0) * delta0 * r * (1.0 + r**2) ** (-delta0 / 2.0 - 1.0)
        return V, dV
    if name == "trapping_ring":
        try:
            A = params["A"]
            rho_ring = params["rho"]
            sigma = params["sigma"]
        except KeyError as exc:
            raise ConstructionError(
                f"trapping_ring needs parameters A, rho, sigma (missing {exc})"
            ) from exc
        if not (sigma > 0.0 and rho_ring > 0.0 and A > 0.0):
            raise ConstructionError(
                f"trapping_ring needs positive A, rho, sigma, got "
                f"A={A}, rho={rho_ring}, sigma={sigma}"
            )
        V = A * np.exp(-((r - rho_ring) ** 2) / sigma**2)
        dV = -2.0 * (r - rho_ring) / sigma**2 * V
        return V, dV
    raise ConstructionError(f"unknown potential id '{name}', expected one of {CATALOG}")


def catalog_radial(name, delta0, r, c=1.0, E=None, **params) -> PotentialSample:
    """Catalog potential sampled on a radial grid with exact derivatives."""
    V, dV = _radial_formulas(name, r, delta0, c, params)
    _require_barrier_above_energy(name, E, params)
    if name == "trapping_ring":
        # a Gaussian decays faster than any polynomial: report the tightest c
        c = _fitted_c(r, V, np.abs(dV), delta0)
    return _within_envelope(
        make_sample("radial", np.asarray(r, float), V, dV, np.abs(dV), delta0, c, name)
    )


def _require_barrier_above_energy(name, E, params):
    if name == "trapping_ring" and E is not None and not (params["A"] > E):
        raise ConstructionError(
            f"trapping ring needs barrier height A > E, got A = {params['A']}, E = {E}"
        )


def _fitted_c(r, V, grad_norm, delta0):
    rho = 1.0 + np.asarray(r, float)
    c = max(float((V * rho**delta0).max()), float((grad_norm * rho ** (1.0 + delta0)).max()))
    return max(c, np.finfo(float).tiny)


def _within_envelope(sample: PotentialSample) -> PotentialSample:
    """The sample itself, or a ConstructionError naming its worst node."""
    if not sample.envelope_ok:
        ratio_v, ratio_g = _envelope_ratios(
            sample.r, sample.values, sample.grad_norm, sample.delta0, sample.c
        )
        i = int(np.argmax(np.maximum(ratio_v, ratio_g)))
        raise ConstructionError(
            f"envelope violated for '{sample.name}': ratio {sample.worst_ratio:.4g} "
            f"at r = {sample.r[i]:.6g}"
        )
    return sample


def catalog_potential(name, delta0, disc, c=1.0, E=None, **params) -> PotentialSample:
    """Catalog potential sampled on a 2D box grid.

    The radial derivative is the polar projection dV = Vx cos(theta) +
    Vy sin(theta) assembled from finite-difference gradients of the sampled
    field (set to 0 at the origin node where theta is undefined); for the
    trapping ring the envelope constant is fitted from the grid.
    """
    X, Y = disc.mesh()
    r2d = np.hypot(X, Y)
    V2d, _ = _radial_formulas(name, r2d, delta0, c, params)
    _require_barrier_above_energy(name, E, params)
    gx, gy = np.gradient(V2d, disc.a, disc.a, edge_order=2)
    with np.errstate(invalid="ignore", divide="ignore"):
        cos_t = np.where(r2d > 0, X / r2d, 0.0)
        sin_t = np.where(r2d > 0, Y / r2d, 0.0)
    dV = gx * cos_t + gy * sin_t
    grad_norm = np.hypot(gx, gy)
    r = r2d.ravel()
    V = V2d.ravel()
    dVf = dV.ravel()
    gn = grad_norm.ravel()
    if name == "trapping_ring":
        c = _fitted_c(r, V, gn, delta0)
    return _within_envelope(make_sample("field2d", r, V, dVf, gn, delta0, c, name))
