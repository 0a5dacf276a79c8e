"""Exception and warning types shared across the package."""


class CDSurfaceError(Exception):
    """Base class for all package-specific errors."""


class InvalidArgumentError(CDSurfaceError, ValueError):
    """An argument violates a documented precondition."""


class PoleError(CDSurfaceError):
    """Evaluation requested at (or numerically on top of) a pole."""


class UnsupportedFamilyError(CDSurfaceError):
    """Operation not available for this weight family."""


class SingularSystemError(CDSurfaceError):
    """A moment linear system is numerically singular: the requested
    orthogonal polynomials need not exist (non-Hermitian pairing)."""


class InconsistentParametersError(CDSurfaceError):
    """Derived quantities violate an assertion that positive parameters
    should guarantee; indicates an implementation bug."""


class SizeGuardError(CDSurfaceError):
    """The exact tiling oracle's a-priori cost exceeds its guard."""


class NearContourWarning(UserWarning):
    """Evaluation point too close to a quadrature contour for full accuracy."""
