"""Exception hierarchy shared across the workbench."""


class CarlabError(Exception):
    """Base class for workbench failures."""


class ParameterError(CarlabError):
    """A problem parameter violates the admissibility normalization."""


class ConstructionError(CarlabError):
    """A weight construction (constant search, Riccati solve) failed."""


class CertificationError(CarlabError):
    """A tail/envelope certificate could not be closed on the given grid."""


class GridMismatchError(CarlabError):
    """Tables sampled on different grids were combined."""


class SolverError(CarlabError):
    """A linear solve or norm estimation failed."""


class PowerIterationError(SolverError):
    """Lanczos norm hit max_iter or missed its certificate; carries the last estimate."""

    def __init__(self, message, estimate=None, iterations=None):
        super().__init__(message)
        self.estimate = estimate
        self.iterations = iterations


class SweepAbortedError(SolverError):
    """A sweep row failed; carries the rows completed so far."""

    def __init__(self, message, partial_rows=None, failed_h=None):
        super().__init__(message)
        self.partial_rows = partial_rows or []
        self.failed_h = failed_h


class ConfigError(CarlabError):
    """Invalid run configuration (usage error)."""
