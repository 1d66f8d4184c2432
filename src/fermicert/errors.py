"""Exception types shared across the package."""


class SiteNotInLattice(ValueError):
    """A site identifier is not part of the given site set."""


class CertificationError(RuntimeError):
    """A measured quantity exceeded its certified bound.

    Carries the worst offending point as (where, measured, bound).
    """

    def __init__(self, message, where, measured, bound):
        super().__init__(message)
        self.where = where
        self.measured = measured
        self.bound = bound


class AmbiguousKernelError(RuntimeError):
    """Eigenvalues cluster around the kernel tolerance; the kernel cannot
    be identified reliably."""

    def __init__(self, message, eigenvalues, tol):
        super().__init__(message)
        self.eigenvalues = eigenvalues
        self.tol = tol


class GapClosureError(RuntimeError):
    """The protecting spectral gap dropped below its declared floor along a
    parameter path.  ``location`` is the bisected crossing estimate and
    ``bracket`` the interval that contains it."""

    def __init__(self, message, location, bracket, gap):
        super().__init__(message)
        self.location = location
        self.bracket = bracket
        self.gap = gap
