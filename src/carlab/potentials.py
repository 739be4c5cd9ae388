"""Potential samples and the admissibility envelope check.

A PotentialSample holds V and its radial derivative, both from the exact
radial formulas, either on a radial grid (used by the inequality verifiers)
or at the nodes of a 2D box grid (used by the discretized operator); for a
radial V, |grad V| = |dV/dr|.  The envelope V <= C(1+r)^-delta0 and
|grad V| <= C(1+r)^-(1+delta0) is always recomputed here, never trusted
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
    c: float                       # envelope constant the sample is checked against
    name: str = "custom"


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
        ring = f"A={A}, rho={rho_ring}, sigma={sigma}"
        if not (sigma > 0.0 and rho_ring > 0.0 and A > 0.0):
            raise ConstructionError(f"trapping_ring needs positive A, rho, sigma, got {ring}")
        if not np.finfo(float).tiny <= sigma * sigma < np.inf:
            raise ConstructionError(f"trapping_ring sigma^2 leaves the float range at {ring}")
        # far from the ring the exponent overflows to -inf and V is 0, so dV is too
        with np.errstate(over="ignore", invalid="ignore"):
            V = A * np.exp(-((r - rho_ring) ** 2) / sigma**2)
            dV = np.where(V > 0.0, -2.0 * (r - rho_ring) / sigma**2 * V, 0.0)
        if not np.isfinite(dV).all():
            raise ConstructionError(f"trapping_ring dV/dr overflows at {ring}")
        return V, dV
    raise ConstructionError(f"unknown potential id '{name}', expected one of {CATALOG}")


def _sample(mode, name, delta0, r, c, E, params) -> PotentialSample:
    """The catalog potential at radii r, or a ConstructionError naming its worst node.

    The envelope constant is |c|; a Gaussian ring decays faster than any
    polynomial, so for it the tightest constant over r is reported instead.
    """
    r = np.asarray(r, dtype=float)
    if name != "trapping_ring" and not np.isfinite(c):
        raise ConstructionError(f"envelope constant of '{name}' is not finite: c = {c}")
    V, dV = _radial_formulas(name, r, delta0, c, params)
    if name == "trapping_ring" and E is not None and not (params["A"] > E):
        raise ConstructionError(
            f"trapping ring needs barrier height A > E, got A = {params['A']}, E = {E}"
        )
    rho = 1.0 + r
    with np.errstate(over="ignore"):  # an overflow leaves C infinite, rejected below
        scaled = np.maximum(V * rho**delta0, np.abs(dV) * rho ** (1.0 + delta0))
    bound = float(scaled.max()) if name == "trapping_ring" else abs(c)
    ok = scaled <= bound * (1.0 + 1e-12)
    if not ok.all():
        i = int(np.argmax(np.where(ok, -np.inf, scaled)))
        raise ConstructionError(
            f"envelope violated for '{name}': max(V (1+r)^d0, |dV| (1+r)^(1+d0)) = "
            f"{scaled[i]:.4g} exceeds C = {bound:.4g} at r = {r[i]:.6g}"
        )
    if not np.isfinite(bound):
        raise ConstructionError(f"envelope constant of '{name}' is not finite: C = {bound}")
    return PotentialSample(mode=mode, r=r, values=V, radial_derivative=dV, c=bound, name=name)


def catalog_radial(name, delta0, r, c=1.0, E=None, **params) -> PotentialSample:
    """Catalog potential sampled on a radial grid."""
    return _sample("radial", name, delta0, r, c, E, params)


def catalog_potential(name, delta0, disc, c=1.0, E=None, **params) -> PotentialSample:
    """Catalog potential sampled at the nodes of a 2D box grid, flattened."""
    return _sample("field2d", name, delta0, disc.radii(), c, E, params)
