"""Exception types raised across the package.

Every error is a subclass of HypgeoError so callers (and the CLI) can
distinguish domain problems from convergence problems with one except
clause each.
"""


class HypgeoError(Exception):
    """Base class for all package errors."""


class DomainError(HypgeoError):
    """An argument lies outside the mathematical domain of the operation."""


# ---- metric_space -----------------------------------------------------

class NonPositiveEigenvalue(DomainError):
    """Inertia values defining the metric must be strictly positive."""


class NotOnC(DomainError):
    """Covector components violate the unit-energy constraint surface."""


# ---- geodesic_engine --------------------------------------------------

class NegativeTime(DomainError):
    """Times must be non-negative."""


# ---- root_solver ------------------------------------------------------

class NoRootFound(HypgeoError):
    """A phase bracket is empty or NaN, so it holds no root."""


class UndefinedAtEquator(DomainError):
    """Space-like covectors with pbar3 = 0 never leave the symmetry plane."""


class NotTimeLike(DomainError):
    """Conjugate points exist only along time-like geodesics."""


# ---- optimality -------------------------------------------------------

class OnCutLocus(HypgeoError):
    """The target lies on the cut locus; the logarithm is not unique."""


class IdentityTarget(DomainError):
    """The logarithm of the identity is the zero covector at t = 0."""


class NoConvergence(HypgeoError):
    """Iteration failed to reach the requested tolerance."""

    def __init__(self, message: str, best_residual: float | None = None):
        super().__init__(message)
        self.best_residual = best_residual
