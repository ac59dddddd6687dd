"""Exception types shared across the package."""


class PostschedError(Exception):
    """Base class for all package-specific errors."""


class InsufficientDataError(PostschedError):
    """No in-window observations to estimate a delay distribution from."""


class UndefinedMetricError(PostschedError):
    """A similarity metric is undefined for the given inputs
    (zero variance, zero vector, or an empty cohort)."""


class IngestError(PostschedError):
    """Input files violate the canonical format beyond tolerated limits."""


class ConfigError(PostschedError):
    """A run configuration failed validation; the message names the field."""
