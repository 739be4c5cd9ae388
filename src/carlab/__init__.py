"""carlab: Carleman weight construction, inequality certification, and
weighted resolvent-norm sweeps for 2D semiclassical Schrodinger operators."""

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
from .resolvent import (
    BoxDiscretization,
    DiscreteOperator,
    NormEstimate,
    SweepResult,
    assemble,
    dense_resolvent_norm,
    factor_shifted,
    sweep_h,
    weight_diag,
    weighted_resolvent_norm,
)
from .verify import (
    CombinedResult,
    EffectivePotentialTable,
    GluingConstants,
    MarginReport,
    QuadFormResult,
    bump,
    bump_ensemble,
    carleman_quadratic_form_test,
    combined_estimate_test,
    effective_potential,
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
