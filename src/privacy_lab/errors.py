"""Exception types shared across the package."""


class PrivacyLabError(Exception):
    """Base class for all errors raised by this package."""


class ParamError(PrivacyLabError, ValueError):
    """A market-parameter validation failure. `field` names the offender."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


class InconclusiveResolution(PrivacyLabError, RuntimeError):
    """Statistical error, or double precision, too coarse to resolve
    adjacent profit-grid points.

    Increase the path count or widen the grid spacing and rerun.
    """
