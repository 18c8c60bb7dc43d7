"""Exception and warning types shared across the package.

Invalid arguments raise plain ValueError everywhere; the classes here cover
failures that appear only at run time (integration blow-ups, fits that do
not converge, unreadable data files).
"""


class ConfigError(ValueError):
    """A run configuration is invalid; the message names the field path."""


class NumericError(RuntimeError):
    """A numeric routine produced NaN/Inf or lost required precision."""


class IntegrationError(NumericError):
    """Time propagation failed to reach its tolerance."""


class FitError(RuntimeError):
    """A fit failed to converge or produced an unusable optimum."""


class DataError(RuntimeError):
    """A data file is missing, malformed, or inconsistent with its header."""


class FitWarning(UserWarning):
    """A fit converged but with suspect quality (e.g. huge reduced chi^2)."""


class DataQualityWarning(UserWarning):
    """Input data is usable but looks degraded (clipping, sparse errors)."""
