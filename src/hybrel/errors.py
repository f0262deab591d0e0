"""Exception hierarchy for the hybrel package."""


class HybrelError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameterError(HybrelError, ValueError):
    """A parameter violates a documented precondition."""


class UnsupportedDimensionError(HybrelError):
    """The requested operation is only available at lower dimension."""


class AmbiguousRootError(HybrelError):
    """The belief-degree equation changed sign more than once.

    Carries the pre-scan trace so callers can inspect where
    monotonicity broke down.
    """

    def __init__(self, message, scan=None):
        super().__init__(message)
        self.scan = tuple(scan) if scan is not None else ()


class AccuracyError(HybrelError):
    """A quadrature failed its convergence check under node doubling."""


class DegenerateGradientError(HybrelError):
    """The limit-state gradient vanished where a direction is required."""


class NonFiniteResponseError(HybrelError):
    """The limit state returned NaN or an infinity at a point."""


class UndefinedAngleError(HybrelError):
    """Angle features are undefined at the origin."""


class InvalidGeometryError(HybrelError):
    """A benchmark's geometric parameters produced a non-physical state."""
