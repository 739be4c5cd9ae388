"""Radial weight construction.

Builds the piecewise profile psi, the phase phi solving the Riccati equation
(phi')^2 - h phi'' = psi backward from phi'(R1) = 0, the barrier w with its
matching constant c0, the polynomial weight m, and the thresholds h1 and
C0 = 2 max phi. Everything here is a pure function of its inputs.

The constant search takes its R1 candidates in blocks and the Riccati
residual gate takes its three smooth pieces in one pass; both give bit for
bit the numbers of one candidate and one piece at a time, which the tests
keep as oracles.
"""

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import CertificationError, ConstructionError, ParameterError
from .kernels import riccati_backward

CONTINUITY_TOL = 1e-10
# R1 candidates per margin call of the constant search
SEARCH_BLOCK = 64


# ----------------------------------------------------------------------------
# problem parameters
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class ProblemParams:
    """Energy and decay exponents; delta = 2s - 1 is derived."""

    E: float
    delta0: float
    s: float

    @property
    def delta(self) -> float:
        return 2.0 * self.s - 1.0


def validate_params(p: ProblemParams) -> ProblemParams:
    """Check the admissibility normalization 0 < delta < delta0 < 1/2, E > 0.

    Returns p unchanged on success; raises ParameterError naming the violated
    constraint otherwise.
    """
    if not (p.E > 0.0):
        raise ParameterError(f"E <= 0: energy must be positive, got {p.E}")
    if not (p.delta0 < 0.5):
        raise ParameterError(f"delta0 >= 1/2: got delta0 = {p.delta0}")
    if not (p.delta0 > 0.0):
        raise ParameterError(f"delta0 <= 0: got delta0 = {p.delta0}")
    if not (p.delta > 0.0):
        raise ParameterError(
            f"delta <= 0: delta = 2*s - 1 must be positive, got s = {p.s}"
        )
    if not (p.delta < p.delta0):
        raise ParameterError(
            f"delta >= delta0: got delta = {p.delta}, delta0 = {p.delta0}"
        )
    return p


# ----------------------------------------------------------------------------
# psi profile
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class PsiSpec:
    """Solved constants of the piecewise profile psi.

    psi(r) = 1/delta0            for r <= R0
           = B/(1-(1+r)^-delta) - E/4   for R0 < r < R1
           = 0                   for r >= R1
    """

    B: float
    R0: float
    R1: float
    delta: float
    delta0: float
    E: float

    @property
    def plateau(self) -> float:
        return 1.0 / self.delta0

    def __post_init__(self):
        if not (self.R1 > self.R0 > 0.0):
            raise ConstructionError(
                f"need R1 > R0 > 0, got R0 = {self.R0}, R1 = {self.R1}"
            )
        res0, res1 = continuity_residuals(self)
        if not (res0 <= CONTINUITY_TOL and res1 <= CONTINUITY_TOL):
            raise ConstructionError(
                f"continuity residuals ({res0:.3e}, {res1:.3e}) exceed {CONTINUITY_TOL}"
            )

    @classmethod
    def from_continuity(cls, p: ProblemParams, r1: float) -> "PsiSpec":
        """Solve the two continuity equations exactly for a given R1.

        B = (E/4)(1 - (1+R1)^-delta) makes psi vanish at R1; R0 then solves
        B/(1-(1+R0)^-delta) - E/4 = 1/delta0.
        """
        validate_params(p)
        if not (r1 > 0.0):
            raise ConstructionError(f"R1 must be positive, got {r1}")
        B, R0 = _continuity_constants(p, r1)
        return cls(B=float(B), R0=float(R0), R1=float(r1),
                   delta=p.delta, delta0=p.delta0, E=p.E)


def _continuity_constants(p: ProblemParams, r1):
    """B and R0 of `PsiSpec.from_continuity` for a scalar or an array of R1."""
    B = (p.E / 4.0) * barrier_outer(p.delta, r1)
    # R0 solves 1 - (1+R0)^-d = B/(1/delta0 + E/4), in log form
    return B, np.expm1(-np.log1p(-B / (1.0 / p.delta0 + p.E / 4.0)) / p.delta)


def default_r1(p: ProblemParams) -> float:
    """Deterministic R1 policy for margin-uncertified constructions.

    Continuity pins 1+R0 below rho_lim = (1 + E*delta0/4)^(1/delta); taking
    1+R1 = 2*rho_lim keeps the middle region proportionate at any scale.
    """
    validate_params(p)
    try:
        rho_lim = (1.0 + p.E * p.delta0 / 4.0) ** (1.0 / p.delta)
    except OverflowError:
        raise ConstructionError(
            f"default R1 overflows: (1 + E delta0/4)^(1/delta) is beyond the float "
            f"range at E = {p.E}, delta0 = {p.delta0}, delta = {p.delta}"
        ) from None
    return 2.0 * rho_lim - 1.0


def barrier_outer(delta: float, r):
    """1 - (1+r)^-delta in the expm1 form.

    The plain subtraction carries ulp(1) absolute error, which the profile
    residuals amplify by (1/delta0 + E/4)^2/B; the expm1 form keeps the
    error relative, so small-delta, small-E corners stay well conditioned.
    """
    return -np.expm1(-delta * np.log1p(r))


def eval_psi(spec: PsiSpec, r):
    """Evaluate psi; accepts scalars or arrays, r >= 0."""
    r = np.asarray(r, dtype=float)
    mid = (r > spec.R0) & (r < spec.R1)
    out = np.where(r <= spec.R0, spec.plateau, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        mid_val = spec.B / barrier_outer(spec.delta, r) - spec.E / 4.0
    out = np.where(mid, mid_val, out)
    return float(out) if out.ndim == 0 else out


def eval_psi_prime(spec: PsiSpec, r):
    """Exact piecewise derivative of psi; zero outside the open middle interval."""
    r = np.asarray(r, dtype=float)
    rho = 1.0 + r
    mid = (r > spec.R0) & (r < spec.R1)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = -spec.B * spec.delta * rho ** (-1.0 - spec.delta) / (
            barrier_outer(spec.delta, r) ** 2
        )
    out = np.where(mid, val, 0.0)
    return float(out) if out.ndim == 0 else out


def continuity_residuals(spec: PsiSpec) -> tuple[float, float]:
    """Branch differences at R0 and R1 (both zero for exact constants)."""
    mid0 = spec.B / barrier_outer(spec.delta, spec.R0) - spec.E / 4.0
    mid1 = spec.B / barrier_outer(spec.delta, spec.R1) - spec.E / 4.0
    return abs(mid0 - spec.plateau), abs(mid1 - 0.0)


def barrier_coeff(spec: PsiSpec, r):
    """The ratio w/w' of the outer barrier branch, (1-(1+r)^-d)/(d (1+r)^-1-d).

    Equals (1+r)((1+r)^d - 1)/d; finite and increasing, 0 at r = 0.
    """
    r = np.asarray(r, dtype=float)
    d = spec.delta
    out = (1.0 + r) * np.expm1(d * np.log1p(r)) / d
    return float(out) if out.ndim == 0 else out


def psi_prime_times_coeff(spec: PsiSpec, r):
    """The exact product psi'(r) * (w/w')(r).

    On (R0, R1) it collapses to -B/(1-(1+r)^-delta) = -(psi + E/4), which
    stays finite at radii where the standalone coefficient overflows; zero
    elsewhere.
    """
    r = np.asarray(r, dtype=float)
    mid = (r > spec.R0) & (r < spec.R1)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = -spec.B / barrier_outer(spec.delta, r)
    out = np.where(mid, val, 0.0)
    return float(out) if out.ndim == 0 else out


def psi_inequality_margin(spec: PsiSpec, r, potential=None):
    """Signed margin of the profile inequality at radii r.

    margin = psi - V - (dV - psi')*(w/w') + E/2, nonnegative iff the
    inequality holds.  With potential=None the worst admissible envelope is
    substituted: V -> (1+r)^-delta0 and dV -> +(1+r)^-(1+delta0), certifying
    the inequality for the whole decay class at once (the coefficient w/w'
    is nonnegative and psi' enters with its true sign).  The envelope
    products are evaluated in reduced form, (1+r)^(delta-delta0) terms only,
    so the scan stays finite out to the float range (the constant search
    visits R1 beyond 1e300 at small delta).  Otherwise potential must be a
    (V, dV) pair of arrays aligned with r.
    """
    r = np.asarray(r, dtype=float)
    rho = 1.0 + r
    pp_coeff = psi_prime_times_coeff(spec, r)
    if potential is None:
        V = rho ** (-spec.delta0)
        dv_coeff = rho ** (-spec.delta0) * np.expm1(spec.delta * np.log1p(r)) / spec.delta
    else:
        V, dV = potential
        V = np.asarray(V, dtype=float)
        dv_coeff = np.asarray(dV, dtype=float) * barrier_coeff(spec, r)
    return eval_psi(spec, r) - V - dv_coeff + pp_coeff + spec.E / 2.0


def margin_scan_nodes(spec: PsiSpec, num: int = 10_000, span: float = 2.0) -> np.ndarray:
    """Scan grid over [0, span*R1]: geometric so every decade between the
    kinks is resolved even when R1 is astronomically large, with exact nodes
    at R0 and R1 and one-ulp neighbors on each side."""
    lo = min(1e-8, spec.R0 * 1e-6)
    body = np.geomspace(lo, span * spec.R1, max(num - 8, 16))
    extras = np.array([
        0.0,
        np.nextafter(spec.R0, 0.0), spec.R0, np.nextafter(spec.R0, np.inf),
        np.nextafter(spec.R1, 0.0), spec.R1, np.nextafter(spec.R1, np.inf),
        span * spec.R1,
    ])
    return np.unique(np.concatenate([body, extras]))


@dataclass(frozen=True)
class PsiSearch:
    """Search settings for the constant search: the R1 candidates and the
    margin they must reach.  margin_nodes and span are checked but no longer
    read: the search certifies each candidate on [0, inf) exactly."""

    r1_lo: float = 1.0
    r1_hi: float = 1e306
    num_r1: int = 320
    margin_nodes: int = 10_000
    span: float = 2.0
    min_margin: float = 0.0


def _envelope_min(spec):
    """Exact minimum of the envelope margin over r in [0, inf).

    On each branch the margin is kappa - G(1+r), with kappa = 1/delta0 + E/2
    on [0, R0], E/4 on (R0, R1) and E/2 on [R1, inf), and
    G(rho) = rho^-delta0 + (rho^(delta-delta0) - rho^-delta0)/delta.  G rises
    up to rho* = q^(1/delta), q = delta0 (1-delta)/(delta0-delta), and falls
    after it, so each branch attains its minimum at rho* clamped into it (the
    open middle branch at its one-ulp inner ends).  One margin call at those
    radii certifies the whole half-line.  Where rho* is beyond the float
    range the tail's infimum E/2 - G(rho*) comes from the closed form
    G(rho*) = q^(-delta0/delta) (1 + (q-1)/delta).

    spec may be a `_spec_block` of k candidates: one margin call on the 8 x k
    radii then gives the k minima.
    """
    d, d0 = spec.delta, spec.delta0
    q_minus_1 = d * (1.0 - d0) / (d0 - d)
    log_q = float(np.log1p(q_minus_1))
    with np.errstate(over="ignore"):
        r_star = float(np.expm1(log_q / d))
    lo_mid, hi_mid = np.nextafter(spec.R0, np.inf), np.nextafter(spec.R1, 0.0)
    r = [np.zeros_like(spec.R0), spec.R0, lo_mid, hi_mid, spec.R1,
         np.minimum(r_star, spec.R0), np.minimum(np.maximum(r_star, lo_mid), hi_mid)]
    tail = np.inf
    if np.isfinite(r_star):
        r.append(np.maximum(r_star, spec.R1))
    else:
        tail = spec.E / 2.0 - np.exp(-d0 / d * log_q) * (1.0 + q_minus_1 / d)
    m = np.minimum(psi_inequality_margin(spec, np.array(r)).min(axis=0), tail)
    return float(m) if m.ndim == 0 else m


def _spec_block(p: ProblemParams, r1: np.ndarray) -> SimpleNamespace:
    """PsiSpec's fields for an array of candidate R1, unchecked."""
    B, R0 = _continuity_constants(p, r1)
    return SimpleNamespace(B=B, R0=R0, R1=r1, delta=p.delta, delta0=p.delta0, E=p.E,
                           plateau=1.0 / p.delta0)


def find_psi_constants(p: ProblemParams, search: PsiSearch = PsiSearch()) -> PsiSpec:
    """Scan R1 upward; return the first continuity-exact triple whose
    worst-case envelope margin is nonnegative on all of [0, inf).

    The inequality is certifiable only when delta is small enough relative
    to (E, delta0); when the scan exhausts the range the failure is reported
    rather than inferring a smallness threshold.  The candidates go in
    blocks of SEARCH_BLOCK, each with `PsiSpec.from_continuity`'s
    arithmetic and checks done for the whole block and one `_envelope_min`
    call.  The first candidate of a block that fails a check or passes the
    margin ends the search through `PsiSpec.from_continuity` itself, as one
    candidate at a time would, so the result and every error are the same.
    """
    validate_params(p)
    if not (0.0 < search.r1_lo < search.r1_hi):
        raise ConstructionError(
            f"bad R1 range [{search.r1_lo}, {search.r1_hi}]"
        )
    if search.num_r1 < 0 or not search.span > 0.0:
        raise ConstructionError(f"bad search: num_r1 = {search.num_r1}, span = {search.span}")
    best = -np.inf
    r1s = np.geomspace(search.r1_lo, search.r1_hi, search.num_r1)
    for lo in range(0, r1s.size, SEARCH_BLOCK):
        r1 = r1s[lo:lo + SEARCH_BLOCK]
        with np.errstate(all="ignore"):  # candidates past the first hit may overflow
            spec = _spec_block(p, r1)
            res0, res1 = continuity_residuals(spec)
            ok = (spec.R1 > spec.R0) & (spec.R0 > 0.0) \
                & (res0 <= CONTINUITY_TOL) & (res1 <= CONTINUITY_TOL)
            m = _envelope_min(spec)
        ends = np.flatnonzero(~ok | (m >= search.min_margin))
        if ends.size:
            return PsiSpec.from_continuity(p, r1[ends[0]])
        best = max(best, *m.tolist())  # in candidate order, so nan is skipped as before
    raise ConstructionError(
        "no admissible R1 in range "
        f"[{search.r1_lo:.3g}, {search.r1_hi:.3g}]: best envelope margin {best:.6g} "
        f"(delta = {p.delta} is not small enough for E = {p.E}, delta0 = {p.delta0})"
    )


# ----------------------------------------------------------------------------
# radial grid
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class RadialGrid:
    """Strictly increasing nodes with exact entries at R0 and R1."""

    nodes: np.ndarray
    i_r0: int
    i_r1: int

    def __post_init__(self):
        d = np.diff(self.nodes)
        if not np.all(d > 0):
            raise ConstructionError("grid nodes must be strictly increasing")
        if self.nodes[0] <= 0.0:
            raise ConstructionError("grid must start at r_min > 0")


def _cheb_cluster(a: float, b: float, n: int) -> np.ndarray:
    # cosine map clusters quadratically at both endpoints
    xi = 0.5 * (1.0 - np.cos(np.linspace(0.0, np.pi, n)))
    return a + (b - a) * xi


def _logcheb_cluster(a: float, b: float, n: int) -> np.ndarray:
    # geometric overall with quadratic clustering at both endpoints; the
    # upper end hosts the h-scale adjustment layer below R0
    return np.exp(_cheb_cluster(np.log(a), np.log(b), n))


def radial_grid(
    spec: PsiSpec,
    r_min: float | None = None,
    r_max: float | None = None,
    n_inner: int = 400,
    n_mid: int = 2400,
    n_outer: int = 800,
) -> RadialGrid:
    """Three-segment grid: log-spaced on (0, R0] with end clustering
    (refines toward the origin pole and toward the kink at R0),
    endpoint-clustered on [R0, R1] (psi' jumps there), uniform on
    [R1, r_max].  r_max defaults to 2*R1."""
    if min(n_inner, n_mid, n_outer) < 5:
        raise ConstructionError("need at least 5 nodes per grid segment")
    if r_max is None:
        r_max = 2.0 * spec.R1
    if r_max < 2.0 * spec.R1:
        raise ConstructionError("r_max must be at least 2*R1")
    if r_min is None:
        r_min = min(1e-4, spec.R0 / 64.0)
    if not (0.0 < r_min < spec.R0):
        raise ConstructionError("need 0 < r_min < R0")
    seg1 = _logcheb_cluster(r_min, spec.R0, n_inner)
    seg2 = _cheb_cluster(spec.R0, spec.R1, n_mid)
    seg3 = np.linspace(spec.R1, r_max, n_outer)
    nodes = np.concatenate([seg1, seg2[1:], seg3[1:]])
    # exact kink nodes by construction
    nodes[n_inner - 1] = spec.R0
    i_r1 = n_inner + n_mid - 2
    nodes[i_r1] = spec.R1
    return RadialGrid(nodes=nodes, i_r0=n_inner - 1, i_r1=i_r1)


# ----------------------------------------------------------------------------
# barrier w, weight m, threshold h1
# ----------------------------------------------------------------------------

def matching_c0(spec: PsiSpec) -> float:
    """Quadratic-branch constant making w continuous at R0."""
    return float(barrier_outer(spec.delta, spec.R0)) / spec.R0**2


def build_w(spec: PsiSpec, r):
    """Barrier w and its exact piecewise derivative.

    w = c0 r^2 on [0, R0], 1 - (1+r)^-delta beyond; w' = 2 c0 r and
    delta (1+r)^-(1+delta).  w is continuous at R0 by the choice of c0;
    w' jumps there, and the node at exactly R0 takes the left branch so
    that w' - 2w/r = 0 holds on the whole plateau segment.
    """
    r = np.asarray(r, dtype=float)
    c0 = matching_c0(spec)
    rho = 1.0 + r
    inner = r <= spec.R0
    w = np.where(inner, c0 * np.square(np.minimum(r, spec.R0)), barrier_outer(spec.delta, r))
    wp = np.where(inner, 2.0 * c0 * r, spec.delta * rho ** (-1.0 - spec.delta))
    if w.ndim == 0:
        return float(w), float(wp), c0
    return w, wp, c0


def wprime_jump(spec: PsiSpec) -> float:
    """Jump of w' at R0 (right branch minus left branch)."""
    c0 = matching_c0(spec)
    left = 2.0 * c0 * spec.R0
    right = spec.delta * (1.0 + spec.R0) ** (-1.0 - spec.delta)
    return right - left


def eval_m(delta: float, r):
    """Polynomial weight (1 + r^2)^((1+delta)/4)."""
    out = (1.0 + np.asarray(r, dtype=float) ** 2) ** ((1.0 + delta) / 4.0)
    return float(out) if out.ndim == 0 else out


def eval_g(spec: PsiSpec, r):
    """Correction profile g(r) = (1/(4r^2))(1 - (2/d)((1+r)^(1+d)-(1+r))/r).

    On (R0, inf) the origin-pole term satisfies
    (h^2/(4r^2))(w' - 2w/r) = h^2 g w'.
    """
    r = np.asarray(r, dtype=float)
    d = spec.delta
    diff = (1.0 + r) * np.expm1(d * np.log1p(r))  # (1+r)^(1+d) - (1+r)
    out = (1.0 - (2.0 / d) * diff / r) / (4.0 * r**2)
    return float(out) if out.ndim == 0 else out


def g_tail_bound(spec: PsiSpec, r: float) -> float:
    """Monotone envelope |g| <= (1/(2d))(1+r)^(1+d)/r^3 + 1/(4r^2), valid and
    decreasing for large r; evaluated at the grid edge it certifies that no
    larger |g| values exist beyond the grid."""
    rho = 1.0 + r
    den = 2.0 * spec.delta * r**3
    if den == 0.0:
        raise ConstructionError(
            f"g tail bound underflows: 2 delta r^3 is 0 at the grid edge r = {r:.3g} "
            f"(R1 = {spec.R1:.3g}); r^3 leaves the float range below r = 1.7e-108"
        )
    return (rho ** (1.0 + spec.delta)) / den + 1.0 / (4.0 * r**2)


@dataclass(frozen=True)
class GTable:
    g_sup: float
    h1: float


def compute_g_and_h1(
    spec: PsiSpec,
    E: float,
    r_max: float | None = None,
    num: int = 10_000,
    extra_nodes: np.ndarray | None = None,
) -> GTable:
    """Maximize |g| on [R0, r_max] (default 10*R1) and derive the admissible
    threshold h1 = sqrt(E/(4 sup|g|)).

    extra_nodes (e.g. the weight-table grid) are merged into the scan so that
    every node later compared against h1 satisfies |g| <= g_sup exactly.
    """
    if r_max is None:
        r_max = 10.0 * spec.R1
    r = np.geomspace(spec.R0, r_max, num)
    r[0], r[-1] = spec.R0, r_max
    if extra_nodes is not None:
        extra = np.asarray(extra_nodes, dtype=float)
        extra = extra[(extra >= spec.R0) & (extra <= r_max)]
        r = np.unique(np.concatenate([r, extra]))
    tail = g_tail_bound(spec, r_max)  # raises before eval_g can divide by r^2 = 0
    g_sup = float(np.abs(eval_g(spec, r)).max())
    if tail > g_sup:
        raise CertificationError(
            f"tail bound {tail:.3e} exceeds grid max {g_sup:.3e} (extend r_max)"
        )
    h1 = float(np.sqrt(E / (4.0 * g_sup)))
    return GTable(g_sup=g_sup, h1=h1)


# ----------------------------------------------------------------------------
# Riccati solve and assembled tables
# ----------------------------------------------------------------------------

def solve_phi_riccati(
    spec: PsiSpec,
    h: float,
    grid: RadialGrid,
    residual_tol: float = 1e-6,
):
    """Solve u' = (u^2 - psi)/h backward from u(R1) = 0 on the grid.

    The backward flow contracts onto the branch u ~ sqrt(psi); the kernel's
    error estimate sets its Magnus steps per span, so the h-scale adjustment
    layer is resolved with no step setting.  u is identically zero on
    [R1, r_max] (psi vanishes there and the terminal value is zero), which
    also means the support of phi' is [0, R1]: any continuous psi positive
    on (R0, R1) forces u > 0 strictly below R1.

    Returns (u, phi, u0, residual): u at the grid nodes, phi the cumulative
    trapezoid integral of u with phi(0) = 0, u0 the value integrated down to
    r = 0, and the sup finite-difference residual |u^2 - h u' - psi| over
    interior nodes (5-point stencils confined to each smooth segment).
    """
    if h <= 0.0:
        raise ConstructionError(f"h must be positive, got {h}")
    r = grid.nodes
    # prepend r = 0 so phi(0) = 0 is exact and u(0) comes from the same flow;
    # integrate only [0, R1] from u(R1) = 0, the tail is exactly zero
    r_ext = np.concatenate([[0.0], r])
    u_ext = np.zeros(r_ext.size)
    u_ext[: grid.i_r1 + 2] = riccati_backward(
        r_ext[: grid.i_r1 + 2], h, psi=lambda x: eval_psi(spec, x)
    )
    u0 = float(u_ext[0])
    u = u_ext[1:]
    if u.min() < -1e-12:
        raise ConstructionError(f"nonnegativity violated: min u = {u.min():.3e}")
    u = np.maximum(u, 0.0)
    phi_ext = np.concatenate([[0.0], np.cumsum(0.5 * (u_ext[1:] + u_ext[:-1]) * np.diff(r_ext))])
    phi = phi_ext[1:]
    resid = riccati_residual(spec, grid, h, u)
    if not (resid <= residual_tol):
        raise ConstructionError(f"residual above tolerance: {resid:.3e} > "
                                f"{residual_tol:.1e} (refine the grid)")
    return u, phi, u0, resid


def _lagrange5_derivative(x: np.ndarray, y: np.ndarray, pieces) -> np.ndarray:
    """Derivative of the local 5-point Lagrange interpolant at every node of
    each piece [lo, hi), the pieces' nodes in order, one after another.

    Windows are clamped at piece ends, so the stencil is one-sided there
    but never leaves the piece.  At node x_p of its window the full double
    sum l_a' = sum_b prod_c (x_p - x_c)/(x_a - x_c) / (x_a - x_b) is zero in
    every term with the factor (x_p - x_p), so only the others are formed,
    each in the sum's own multiply and add order: for a = p the products
    are 1 and l_p' = sum_b 1/(x_p - x_b); for a != p only b = p is left.
    """
    i = np.concatenate([np.arange(lo, hi) for lo, hi in pieces])
    j0 = np.concatenate([np.clip(np.arange(lo, hi) - 2, lo, hi - 5) for lo, hi in pieces])
    d = np.empty(i.size)
    for p in range(5):  # the node's position in its window: 2 but near piece ends
        at = np.flatnonzero(i - j0 == p)
        win = j0[at]
        xs = [x[win + c] for c in range(5)]
        others = [c for c in range(5) if c != p]
        dx = {c: xs[p] - xs[c] for c in others}
        acc = 0.0
        for a in range(5):
            if a == p:
                la = sum(1.0 / dx[b] for b in others)
            else:
                f = [dx[c] / (xs[a] - xs[c]) for c in others if c != a]
                la = f[0] * f[1] * f[2] / (xs[a] - xs[p])
            acc = acc + y[win + a] * la
        d[at] = acc
    return d


def riccati_residual(spec: PsiSpec, grid: RadialGrid, h: float, u: np.ndarray) -> float:
    """Sup of |u^2 - h u' - psi| with u' from 5-point stencils per smooth piece.

    The kinks of psi at R0 and R1 are exact grid nodes, so stencils never
    straddle a derivative jump.
    """
    r = grid.nodes
    pieces = [(0, grid.i_r0 + 1), (grid.i_r0, grid.i_r1 + 1), (grid.i_r1, r.size)]
    if min(hi - lo for lo, hi in pieces) < 5:
        raise ConstructionError("need at least 5 nodes per grid segment")
    i = np.concatenate([np.arange(lo, hi) for lo, hi in pieces])
    res = np.abs(u[i] ** 2 - h * _lagrange5_derivative(r, u, pieces) - eval_psi(spec, r[i]))
    # segment endpoints coincide with kinks; one-sided stencils there are
    # still within the smooth piece, so include everything; a nan anywhere
    # makes the sup nan, which fails the gate
    return float(res.max())


@dataclass(frozen=True)
class WeightTables:
    """Grid samples of every radial weight for one value of h."""

    spec: PsiSpec
    grid: RadialGrid
    h: float
    psi: np.ndarray
    u: np.ndarray          # phi'
    phi: np.ndarray
    w: np.ndarray
    wprime: np.ndarray
    m: np.ndarray
    c0: float
    h1: float
    C0: float
    g_sup: float
    u0: float
    riccati_resid: float
    wprime_jump: float

    @property
    def r(self) -> np.ndarray:
        return self.grid.nodes


def build_weight_tables(
    spec: PsiSpec,
    h: float | None = None,
    grid: RadialGrid | None = None,
    residual_tol: float = 1e-6,
) -> WeightTables:
    """Assemble all radial tables for one h; pure and deterministic.

    h = None takes h1/2, from the g/h1 scan the tables record anyway.
    """
    if grid is None:
        grid = radial_grid(spec)
    r = grid.nodes
    gt = compute_g_and_h1(spec, spec.E, extra_nodes=r)
    if h is None:
        h = gt.h1 / 2.0
    u, phi, u0, resid = solve_phi_riccati(spec, h, grid, residual_tol)
    w, wp, c0 = build_w(spec, r)
    return WeightTables(
        spec=spec,
        grid=grid,
        h=h,
        psi=eval_psi(spec, r),
        u=u,
        phi=phi,
        w=w,
        wprime=wp,
        m=eval_m(spec.delta, r),
        c0=c0,
        h1=gt.h1,
        C0=2.0 * float(phi[-1]),
        g_sup=gt.g_sup,
        u0=u0,
        riccati_resid=resid,
        wprime_jump=wprime_jump(spec),
    )
