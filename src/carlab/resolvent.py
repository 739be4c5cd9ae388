"""Discretized operator, its shifted LU, weighted norms, and h-sweeps.

P = -h^2 Lap + V - E on a truncated box with homogeneous Dirichlet walls,
5-point stencil; the box and its weight live in box.py, which needs numpy
only, and this is the one module that loads scipy.  The -i*eps shift is
applied at factorization time by factor_shifted, and one LU of P - i*eps
serves every right-hand side.  Every shifted matrix is written into a fixed
CSC pattern by _Pattern.shifted and factored by _factor, the one splu call.
The weighted norm takes any LU: sweeps factor one matrix per sector of the
square's symmetries (an eighth of the box for radial inputs) and hand that
LU to every mode and, as its trans="H" solve, to the Lanczos norm's adjoint.
A sweep's (h, sector) problems are independent, and SuperLU releases the
GIL while it factors and solves, so sweep_h runs them on one thread per
available CPU when the sectors are large enough to pay for it.  Each task
returns its estimates or raises, and the calling thread reduces them in
row order.
"""

import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import get_lapack_funcs

from .box import BoxDiscretization, weight_diag
from .errors import (
    ConstructionError,
    PowerIterationError,
    SolverError,
    SweepAbortedError,
)
from .potentials import PotentialSample

# Symmetric minimum degree suits the 5-point grid.  Pivoting only below 1%
# of a column keeps that structure where P is indefinite: at E = 8, h = 0.12,
# n = 64 full partial pivoting swaps rows and leaves 4.4M LU nonzeros, not 127k.
# relax=1 and panel_size=1 turn off SuperLU's relaxed supernodes and 10-column
# panels, which only pad the stored factors of these 2D sector matrices and
# slow their factorization; L.nnz + U.nnz stay the same.  The 25 sector LUs of
# one sweep (min of 4 runs, 2-core Xeon) took 17.7 instead of 24.4 ms on the
# n = 64 ring, and 38 instead of 52, 82 instead of 173 and 427 instead of
# 582 ms on free boxes with n = 96, 128 and 256.
PERMC_SPEC = "MMD_AT_PLUS_A"
LU_OPTIONS = dict(permc_spec=PERMC_SPEC, diag_pivot_thresh=0.01, relax=1, panel_size=1,
                  options={"SymmetricMode": True})
_STEBZ, _STEIN = get_lapack_funcs(("stebz", "stein"), (np.zeros(1),))  # for _top_ritz_pair
# A sweep whose largest sector has fewer unknowns runs its tasks on the
# calling thread.  Such tasks spend most of their time in Python under the
# GIL, and each short solve hands the GIL to another thread: on a shared
# 2-core Xeon, two workers left the n = 64 ring sweep's median op flat
# (1024 unknowns) but lengthened its p90 by a fifth, and one worker thread
# was slower than none; n = 128 (4096) gained a quarter.  Sizes in between
# were not measured.
POOL_MIN_UNKNOWNS = 2048


@dataclass(frozen=True)
class DiscreteOperator:
    """Sparse symmetric real part of P; factor_shifted(matrix, eps) applies the shift."""

    matrix: sp.csc_matrix
    h: float
    disc: BoxDiscretization

    def shifted(self, eps: float) -> sp.csc_matrix:
        pattern, data = _Pattern.of(self.matrix)
        return pattern.shifted(data, eps)


@dataclass(frozen=True)
class _Pattern:
    """A square CSC structure in canonical order that stores every diagonal
    entry; diag holds the data positions of the diagonal."""

    indices: np.ndarray
    indptr: np.ndarray
    diag: np.ndarray

    @classmethod
    def of(cls, matrix) -> tuple:
        """(pattern, real data) of a square sparse matrix; a diagonal entry
        the matrix does not store is stored as 0."""
        mat = sp.csc_matrix(matrix, dtype=float, copy=True)
        mat.sum_duplicates()
        n, diag = mat.shape[0], _diagonal(mat.indices, mat.indptr)
        if diag.size < n:
            missing, coo = np.setdiff1d(np.arange(n), mat.indices[diag]), mat.tocoo()
            mat = sp.csc_matrix((np.r_[coo.data, np.zeros(missing.size)],
                                 (np.r_[coo.row, missing], np.r_[coo.col, missing])), shape=(n, n))
            diag = _diagonal(mat.indices, mat.indptr)
        return cls(mat.indices, mat.indptr, diag), mat.data

    def shifted(self, data: np.ndarray, eps: float) -> sp.csc_matrix:
        """Complex CSC of data - i*eps on the diagonal, on this structure: the
        same sums as matrix - i*eps*I without sparse arithmetic."""
        shifted = data.astype(complex)
        shifted[self.diag] -= 1j * eps
        n = len(self.indptr) - 1
        return sp.csc_matrix((shifted, self.indices, self.indptr), shape=(n, n))


def _diagonal(indices, indptr) -> np.ndarray:
    """Data positions of the stored diagonal entries of a canonical CSC."""
    return np.flatnonzero(indices == np.repeat(np.arange(len(indptr) - 1), np.diff(indptr)))


def _factor(mat: sp.csc_matrix):
    """Sparse LU under LU_OPTIONS; SolverError if singular."""
    try:
        return spla.splu(mat, **LU_OPTIONS)
    except RuntimeError as exc:  # "Factor is exactly singular", e.g. on overflowed entries
        raise SolverError(f"factorization failed: {exc}") from exc


def factor_shifted(matrix: sp.csc_matrix, eps: float):
    """Sparse LU of matrix - i*eps under LU_OPTIONS; SolverError if singular."""
    pattern, data = _Pattern.of(matrix)
    return _factor(pattern.shifted(data, eps))


def assemble(
    V: PotentialSample | np.ndarray,
    E: float,
    h: float,
    disc: BoxDiscretization,
    check_resolution: bool = True,
) -> DiscreteOperator:
    """Assemble -h^2 Lap + V - E with the 5-point Dirichlet stencil.

    The stencil annihilates affine functions away from the boundary, so the
    operator reproduces (V - E) p exactly on degree <= 1 samples there.
    check_resolution enforces a <= h/4; disable it for the unit-h Laplacian
    a sweep scales to each of its rows, which it validates at the sweep
    level, and for operators compared with a dense reference on coarse boxes.
    """
    if check_resolution and disc.a > h / 4.0:
        raise ConstructionError(
            f"resolution too coarse: spacing a = {disc.a:.4g} exceeds h/4 = {h / 4:.4g}"
        )
    if isinstance(V, PotentialSample):
        if V.mode != "field2d":
            raise ConstructionError("assemble needs a field2d potential sample")
        v = V.values
    else:
        v = np.asarray(V, dtype=float).ravel()
    if v.size != disc.size:
        raise ConstructionError(
            f"potential has {v.size} samples, grid has {disc.size} nodes"
        )
    n = disc.n
    lap1 = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n), format="csr") / disc.a**2
    eye = sp.identity(n, format="csr")
    lap = sp.kron(lap1, eye) + sp.kron(eye, lap1)
    mat = (h * h * lap + sp.diags(v - E)).tocsc()
    return DiscreteOperator(matrix=mat, h=h, disc=disc)


# ----------------------------------------------------------------------------
# weighted norms
# ----------------------------------------------------------------------------

def _top_ritz_pair(alpha: list, beta: list) -> tuple:
    """Top eigenpair (theta, s) of the symmetric tridiagonal (alpha, beta):
    the LAPACK calls eigh_tridiagonal(select="i") makes for the last index,
    dstebz by index in block order, then dstein, with the same arguments."""
    d, e = np.asarray(alpha, dtype=float), np.asarray(beta, dtype=float)
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise SolverError("Lanczos recurrence is not finite")
    if d.size == 1:
        return d, np.ones((1, 1))
    m, w, iblock, isplit, info = _STEBZ(d, e, 2, 0.0, 1.0, d.size, d.size, 0.0, "B")
    s, info_s = _STEIN(d, e, w[:m], iblock, isplit)
    if info or info_s:
        raise SolverError(f"tridiagonal eigensolver failed (info {info}, {info_s})")
    return w[:m], s


@dataclass(frozen=True)
class NormEstimate:
    value: float
    iterations: int
    residual: float


def weighted_resolvent_norm(
    lu,
    w_left: np.ndarray,
    w_right: np.ndarray,
    tol: float = 1e-8,
    max_iter: int = 2000,
    seed: int = 0,
) -> NormEstimate:
    """Largest singular value of A = W_L M^-1 W_R by Lanczos on the
    Hermitian A*A, started from a vector drawn from seed.

    lu is any factorization of a square complex M with .shape and
    .solve(b, trans=), such as scipy's splu of P - i eps, and the diagonal
    weights are arrays of M's size.  A is scale / solve / scale with lu,
    and A* uses the same LU through its trans="H" solve.  Each step is
    reorthogonalized twice against the whole basis, which also resolves the
    box's symmetry-degenerate top modes.  The top Ritz pair (theta, s) comes
    from direct dstebz/dstein calls, and the iteration stops once beta_k |s_k|
    <= tol/10 theta, or on breakdown.  One more application certifies it by the
    Hermitian eigenpair residual |A*A z - lam z| <= tol * lam, which bounds
    the eigenvalue error.  iterations counts A*A applications, at most
    max_iter; past it, or past a missed certificate, PowerIterationError
    carries sqrt of the latest top Ritz value as its estimate.
    """
    if not (tol > 0.0):
        raise SolverError(f"tol must be positive, got {tol}")
    wl2, wr = w_left ** 2, w_right
    if not np.any(wl2) or not np.any(wr):
        return NormEstimate(value=0.0, iterations=0, residual=0.0)
    applied, rayleigh, theta = 0, 0.0, np.zeros(1)

    def failed(why):  # the estimate is the latest top Ritz value
        est = math.sqrt(max(theta[0], 0.0))
        return PowerIterationError(f"{why}; estimate {est:.6e}", estimate=est, iterations=applied)

    def apply_gram(x):
        nonlocal applied, rayleigh
        if applied >= max_iter:
            raise failed(f"max_iter exceeded ({max_iter})")
        applied += 1
        y = wr * lu.solve(wl2 * lu.solve(wr * x), trans="H")
        rayleigh = float(np.vdot(x, y).real / np.vdot(x, x).real)
        return y

    n = lu.shape[0]
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    basis = np.empty((32, n), dtype=complex)  # rows q_0..q_k, doubled when full
    basis[0] = v0 / np.linalg.norm(v0)
    alpha, beta = [], []
    for k in itertools.count():
        y = apply_gram(basis[k])
        alpha.append(rayleigh)  # q_k^H A*A q_k, as q_k is a unit vector
        for _ in range(2):  # Gram-Schmidt against every q_j, in place
            y -= np.conj(basis[:k + 1] @ np.conj(y)) @ basis[:k + 1]
        theta, s = _top_ritz_pair(alpha, beta)
        beta.append(float(np.linalg.norm(y)))
        if beta[-1] * abs(s[-1, 0]) <= tol / 10.0 * theta[0]:  # breakdown meets it too
            break
        if k + 1 == len(basis):
            basis = np.concatenate([basis, np.empty_like(basis)])
        basis[k + 1] = y / beta[-1]
    z = s[:, 0] @ basis[:k + 1]
    z = z / np.linalg.norm(z)
    y = apply_gram(z)
    # a quotient that underflowed to 0 certifies nothing
    rel = float(np.linalg.norm(y - rayleigh * z)) / rayleigh if rayleigh > 0.0 else math.inf
    if not rel <= tol:
        raise failed(f"eigenpair residual {rel:.2e} above tol {tol:.1e}")
    return NormEstimate(value=math.sqrt(rayleigh), iterations=applied, residual=rel)


def dense_resolvent_norm(op, eps, w_left, w_right) -> float:
    """Dense SVD oracle for small grids."""
    A = np.linalg.inv(op.shifted(eps).toarray())
    A = w_left[:, None] * A * w_right[None, :]
    return float(np.linalg.svd(A, compute_uv=False)[0])


def _axis_halves(n):
    """Even and odd parity bases e_i +- e_{n-1-i} of one axis and their
    representative nodes i; for odd n the centre node joins the even half."""
    eye, m = np.eye(n), n // 2
    return [(sp.csr_matrix(np.sign(eye + eye[::-1])[:, :n - m]), np.arange(n - m)),
            (sp.csr_matrix((eye - eye[::-1])[:, :m]), np.arange(m))]


def reflection_sectors(disc: BoxDiscretization, *fields) -> list:
    """(S, rep) per sector of the square's symmetries that every field (one
    value per node) respects exactly: x -> -x, y -> -y and, if every field
    equals its transpose, x <-> y.  S extends values at the representative
    nodes rep to the box by symmetry (entries +-1, S[rep] = I), so S scaled
    by 1/sqrt(column counts) is an orthonormal basis, P S = S P[rep] S and a
    symmetric diagonal W has W S = S diag(W[rep]).  Under x <-> y the parity
    sector (odd, even) is dropped as the transpose of (even, odd), and each
    square sector, (even, even), (odd, odd) or the whole box, splits into its
    symmetric and antisymmetric halves: radial fields give 5 sectors.
    """
    n = disc.n
    grids = [np.reshape(f, (n, n)) for f in fields]
    axis, whole = _axis_halves(n), [(sp.identity(n, format="csr"), np.arange(n))]

    def halves(flip):
        return axis if all(np.array_equal(g, flip(g)) for g in grids) else whole

    pairs = list(itertools.product(halves(lambda g: g[::-1]), halves(lambda g: g[:, ::-1])))
    transposed = all(np.array_equal(g, g.T) for g in grids)
    if transposed and len(pairs) == 4:
        del pairs[2]  # (odd, even); a field even in x and transpose symmetric is even in y
    sectors = []
    for (bx, rx), (by, ry) in pairs:
        S, rep = sp.kron(bx, by, format="csc"), (rx[:, None] * n + ry).ravel()
        if transposed and rx is ry:  # a square sector: split it by x <-> y
            i, j = np.triu_indices(len(rx))
            upper, lower, off = i * len(rx) + j, j * len(rx) + i, i < j  # columns e_ij, e_ji
            sectors += [((S[:, upper] + S[:, lower]).sign(), rep[upper]),  # e_ii + e_ii is 2 e_ii
                        (S[:, upper[off]] - S[:, lower[off]], rep[upper[off]])]
        else:
            sectors.append((S, rep))
    return sectors


# ----------------------------------------------------------------------------
# sweeps
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    h: float
    eps: float
    mode: str
    s: float
    R: float | None
    norm: float
    iterations: int
    residual: float


@dataclass(frozen=True)
class FitSummary:
    model: str       # "exp": ln norm ~ slope / h; "poly": ln norm ~ slope ln(1/h)
    slope: float
    intercept: float
    r_squared: float | None  # None below 3 rows


@dataclass(frozen=True)
class SweepResult:
    rows: tuple

    def norms(self) -> np.ndarray:
        return np.array([r.norm for r in self.rows])

    def hs(self) -> np.ndarray:
        return np.array([r.h for r in self.rows])

    def fit(self, model: str) -> FitSummary:
        """Least-squares fit recomputed from the rows on every call; one or
        two rows lie on a line whatever the shape, so they get no R^2."""
        hs = self.hs()
        y = np.log(self.norms())
        if model == "exp":
            x = 1.0 / hs
        elif model == "poly":
            x = np.log(1.0 / hs)
        else:
            raise ValueError(f"unknown fit model '{model}'")
        A = np.vstack([x, np.ones_like(x)]).T
        (slope, intercept), *_ = np.linalg.lstsq(A, y, rcond=None)
        r2 = None
        if len(self.rows) >= 3:
            pred = A @ np.array([slope, intercept])
            ss_res = float(((y - pred) ** 2).sum())
            ss_tot = float(((y - y.mean()) ** 2).sum())
            r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
        return FitSummary(model=model, slope=float(slope), intercept=float(intercept), r_squared=r2)

    def plot_pairs(self) -> np.ndarray:
        """(1/h, ln norm) pairs for external plotting."""
        return np.column_stack([1.0 / self.hs(), np.log(self.norms())])


def sweep_h(
    V: PotentialSample,
    E: float,
    s: float,
    hs,
    eps_rule=1e-6,
    modes=("interior",),
    *,
    disc: BoxDiscretization,
    R: float | None = None,
    tol: float = 1e-8,
    max_iter: int = 2000,
    seed: int = 0,
) -> dict:
    """One weighted-norm row per h (descending) and mode, as {mode: SweepResult}.

    eps_rule is a constant or a callable h -> eps.  One bare 5-point stencil
    is assembled per sweep and restricted once to each symmetry sector of
    the box that V and every weight respect (reflection_sectors), whose CSC
    pattern and diagonal positions are kept.  Per h a task writes h^2
    stencil + (V - E)[rep] - i eps into a fresh data array on that pattern,
    factors it once, and that LU goes to weighted_resolvent_norm for every mode.
    A row's norm and residual are the largest over sectors, and iterations
    sums them under max_iter.  The box is validated once against the largest
    h (spacing a <= max(hs)/4); later rows reuse the grid, where the
    points-per-wavelength count only grows milder than the a <= h/4 rule.
    A mode whose weight is zero on the whole box raises ConstructionError.

    Each (h, sector) task factors its sector matrix, runs every mode under
    the whole max_iter and returns only the estimates or raises, so at most
    one LU per thread is alive.  Once the largest sector has
    POOL_MIN_UNKNOWNS unknowns, the tasks run on a thread pool with one
    worker per CPU the process may use (eps_rule is then called from the
    workers), and no worker outlives the call; smaller ones run on the
    calling thread.  The calling thread takes the results and errors in row
    and sector order and reduces them; a mode whose summed iterations pass
    max_iter raises PowerIterationError with the row's largest norm so far
    as its estimate.  Rows, errors and SweepAbortedError's partial rows are
    therefore exactly those of one thread.
    """
    hs = [float(h) for h in hs]
    if not hs:
        raise ValueError("no sweep points")
    if not all(h > 0.0 for h in hs):
        raise ValueError("hs must be positive")
    if any(b >= a for a, b in zip(hs, hs[1:])):
        raise ValueError("hs must be strictly descending")
    if not modes or len(set(modes)) != len(modes) or not set(modes) <= {"interior", "exterior"}:
        raise ValueError(f"modes must be nonempty, distinct, interior or exterior; got {modes}")
    if "exterior" in modes and R is None:
        raise ValueError("exterior mode needs a cutoff radius R")
    if disc.a > max(hs) / 4.0:
        raise ConstructionError(
            f"resolution too coarse: spacing a = {disc.a:.4g} exceeds "
            f"max(h)/4 = {max(hs) / 4:.4g}"
        )
    cutoffs = {mode: R if mode == "exterior" else None for mode in modes}
    weights = {mode: weight_diag(disc, s, cutoff) for mode, cutoff in cutoffs.items()}
    for mode, w in weights.items():
        if not np.any(w):
            raise ConstructionError(f"the {mode} weight is zero at every node: cutoff R = {R}, "
                                    f"largest node radius {disc.radii().max():.6g}")
    if V.mode != "field2d" or V.values.size != disc.size:
        raise ConstructionError("sweep needs a field2d potential with one value per box node")
    lap = assemble(np.zeros(disc.size), 0.0, 1.0, disc, check_resolution=False).matrix.tocsr()
    sectors = []  # ((pattern, stencil data), (V - E)[rep], {mode: scaled weights}); not S
    for S, rep in reflection_sectors(disc, V.values, *weights.values()):
        # on the orthonormal basis S/k, A is W k (P[rep] S - i eps)^-1 W / k:
        # the irrational k rounds in the weights, not in the nearly singular P
        k = np.sqrt(np.diff(S.indptr))
        sectors.append((_Pattern.of(lap[rep] @ S), V.values[rep] - E,
                        {mode: (w[rep] * k, w[rep] / k) for mode, w in weights.items()}))

    def sector_norms(task):  # one task: the estimates leave it, the LU does not
        h, ((pattern, stencil), shift, scaled) = task
        eps = float(eps_rule(h)) if callable(eps_rule) else float(eps_rule)
        if not (eps > 0.0):
            raise SolverError(f"eps rule produced nonpositive eps = {eps} at h = {h}")
        data = stencil * (h * h)
        data[pattern.diag] += shift
        lu = _factor(pattern.shifted(data, eps))
        return eps, {mode: weighted_resolvent_norm(lu, w_left, w_right, tol, max_iter, seed)
                     for mode, (w_left, w_right) in scaled.items()}

    pool = None
    if max(len(shift) for _, shift, _ in sectors) >= POOL_MIN_UNKNOWNS:
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        pool = ThreadPoolExecutor(max_workers=min(cpus or 1, len(hs) * len(sectors)))
    try:
        # the builtin map runs each task when the reduction reaches it
        results = (map if pool is None else pool.map)(sector_norms,
                                                       itertools.product(hs, sectors))
        rows = []
        for h in hs:
            try:
                found = dict.fromkeys(modes, (0.0, 0, 0.0))
                for eps, estimates in itertools.islice(results, len(sectors)):
                    for mode, est in estimates.items():
                        best, used, resid = found[mode]
                        best, used = max(best, est.value), used + est.iterations
                        if used > max_iter:
                            raise PowerIterationError(
                                f"max_iter exceeded ({max_iter}) over the row's sectors; "
                                f"estimate {best:.6e}", estimate=best, iterations=max_iter)
                        found[mode] = best, used, max(resid, est.residual)
                for mode, (norm, iterations, residual) in found.items():
                    rows.append(SweepRow(h=h, eps=eps, mode=mode, s=s, R=cutoffs[mode],
                                         norm=norm, iterations=iterations, residual=residual))
            except SolverError as exc:
                raise SweepAbortedError(
                    f"sweep row h = {h} failed: {exc}", partial_rows=rows, failed_h=h
                ) from exc
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return {mode: SweepResult(rows=tuple(r for r in rows if r.mode == mode)) for mode in modes}
