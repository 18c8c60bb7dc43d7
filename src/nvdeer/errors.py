"""Exception and warning types shared across the package.

Invalid arguments raise plain ValueError everywhere; the classes here cover
failures that appear only at run time (integration blow-ups, fits that do
not converge, unreadable data files).  The CLI exits 2 on ConfigError and
KernelReachError (naming the keys that set the drive, field and sweep),
3 on DataError and on a ValueError from a fit's input checks, and 4 on
NumericError and FitError.
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


class KernelReachError(ValueError):
    """The line operator's longest period cannot cover the pump's reach."""
