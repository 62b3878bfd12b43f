"""Exception types shared across the package."""


class VcompError(Exception):
    """Base class for all package-specific errors."""


class NonIdentifiableError(VcompError):
    """Variance components are not identifiable for this design (singular expected Hessian)."""


class DegenerateDataError(VcompError):
    """Observations carry no information (e.g. y = 0)."""


class UnsupportedLawError(VcompError):
    """Coordinate law outside the supported family set."""


class NumericalError(VcompError):
    """A numeric computation produced non-finite values."""


class TailGridError(VcompError):
    """Tail experiment saw zero exceedances at every threshold; the r grid is too coarse."""


class ConfigError(VcompError):
    """Malformed or unknown configuration input."""
