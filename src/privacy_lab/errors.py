"""Exception types shared across the package."""


class PrivacyLabError(Exception):
    """Base class for all errors raised by this package."""


class ParamError(PrivacyLabError, ValueError):
    """A market-parameter validation failure. `field` names the offender."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


class NonPositiveSigmaV(ParamError):
    def __init__(self, value):
        super().__init__("sigma_v", f"sigma_v must be > 0, got {value!r}")


class NonPositiveSigmaU(ParamError):
    def __init__(self, value):
        super().__init__("sigma_u", f"sigma_u must be > 0, got {value!r}")


class NegativeSigmaEps(ParamError):
    def __init__(self, value):
        super().__init__("sigma_eps", f"sigma_eps must be >= 0, got {value!r}")


class NonFiniteInput(ParamError):
    def __init__(self, field: str, value):
        super().__init__(field, f"{field} must be finite, got {value!r}")


class NoConvergence(PrivacyLabError, RuntimeError):
    """Iterative solver exhausted its iteration budget."""

    def __init__(self, max_iter: int, message: str = ""):
        super().__init__(message or f"no convergence after {max_iter} iterations")
        self.max_iter = max_iter


class InconclusiveResolution(PrivacyLabError, RuntimeError):
    """Statistical error too large to resolve adjacent profit-grid points.

    Increase the path count or widen the grid spacing and rerun.
    """
