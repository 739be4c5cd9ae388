"""The square Dirichlet box and its radial weight, in numpy alone.

The verifiers' shift and gluing checks and the CLI's weights and verify
commands need only the box's nodes, so this module keeps them apart from
resolvent.py, whose sparse LU loads scipy.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConstructionError


@dataclass(frozen=True)
class BoxDiscretization:
    """Square [-L, L]^2 with n nodes per axis, spacing a = 2L/(n-1).

    The axis is odd bit for bit with ends at +-L, and odd n places a node
    exactly at the origin, which the shift fixtures and the test suite's
    bump oracles rely on; sweeps accept any n >= 4.
    """

    L: float
    n: int

    def __post_init__(self):
        if not (self.L > 0.0):
            raise ConstructionError(f"box half-width must be positive, got {self.L}")
        if self.n < 4:
            raise ConstructionError(f"need at least 4 nodes per axis, got {self.n}")

    @property
    def a(self) -> float:
        return 2.0 * self.L / (self.n - 1)

    @property
    def size(self) -> int:
        return self.n * self.n

    def axis(self) -> np.ndarray:
        x = np.linspace(-self.L, self.L, self.n)
        return 0.5 * (x - x[::-1])  # moves no node by more than 2 ulp of L

    def mesh(self):
        x = self.axis()
        return np.meshgrid(x, x, indexing="ij")

    def radii(self) -> np.ndarray:
        X, Y = self.mesh()
        return np.hypot(X, Y).ravel()


def weight_diag(disc: BoxDiscretization, s: float, R: float | None = None) -> np.ndarray:
    """Diagonal weight (1+|x|)^-s per node, optionally cut to the exterior |x| >= R."""
    r = disc.radii()
    vals = (1.0 + r) ** (-s)
    return vals if R is None else np.where(r >= R, vals, 0.0)
