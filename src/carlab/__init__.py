"""carlab: Carleman weight construction, inequality certification, and
weighted resolvent-norm sweeps for 2D semiclassical Schrodinger operators.

The resolvent names below load scipy on first use (PEP 562), so the
construction and the verifiers run on numpy alone."""

from .box import BoxDiscretization, weight_diag
from .errors import (
    CarlabError,
    CertificationError,
    ConfigError,
    ConstructionError,
    GridMismatchError,
    ParameterError,
    PowerIterationError,
    SolverError,
    SweepAbortedError,
)
from .potentials import PotentialSample, catalog_potential, catalog_radial
from .verify import (
    GluingConstants,
    MarginReport,
    gluing_constants,
    shift_radius_bound,
    verify_barrier_facts,
    verify_E4_inequality,
    verify_psi_inequality,
    verify_shift_envelope,
)
from .weights import (
    ProblemParams,
    PsiSearch,
    PsiSpec,
    RadialGrid,
    WeightTables,
    build_w,
    build_weight_tables,
    compute_g_and_h1,
    default_r1,
    eval_m,
    eval_psi,
    find_psi_constants,
    radial_grid,
    solve_phi_riccati,
    validate_params,
)

__version__ = "0.1.0"

_RESOLVENT = (
    "DiscreteOperator",
    "NormEstimate",
    "SweepResult",
    "assemble",
    "dense_resolvent_norm",
    "factor_shifted",
    "sweep_h",
    "weighted_resolvent_norm",
)


def __getattr__(name):
    if name in _RESOLVENT:
        from . import resolvent

        return getattr(resolvent, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted([*globals(), *_RESOLVENT])
