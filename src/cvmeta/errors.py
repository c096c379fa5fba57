"""Exception types shared across the package."""

__all__ = [
    "CvMetaError",
    "DomainError",
    "DegenerateWeightsError",
    "UndefinedMomentsError",
    "DataFormatError",
    "ConfigError",
    "NumericFailureError",
]


class CvMetaError(Exception):
    """Base class for all package-specific errors."""


class DomainError(CvMetaError, ValueError):
    """An argument lies outside the mathematical domain of a function."""


class DegenerateWeightsError(CvMetaError, ValueError):
    """Study weights collapse so that the moment estimator is undefined."""


class UndefinedMomentsError(CvMetaError, ValueError):
    """Delta-method moments are undefined at the supplied estimates.

    Raised when the heterogeneity estimate is zero or the pooled effect
    is exactly zero; callers should fall back to degenerate intervals.
    """


class DataFormatError(CvMetaError, ValueError):
    """Input data (CSV rows, columns, values) cannot be parsed."""


class ConfigError(CvMetaError, ValueError):
    """A simulation scenario configuration is invalid."""


class NumericFailureError(CvMetaError, RuntimeError):
    """An internal numeric routine failed to converge or left the float range."""
