"""Exception types raised by the spdc package."""


class SpdcError(Exception):
    """Base class for all errors raised by this package."""


class WavelengthRangeError(SpdcError, ValueError):
    """Wavelength outside the validity range of a dispersion model."""


class DomainError(SpdcError, ValueError):
    """Input outside the mathematical domain of an operation."""


class DegenerateConfigurationError(SpdcError, ValueError):
    """Beam/crystal parameters make a denominator vanish (or nearly so)."""


class DegenerateDispersionError(SpdcError, ValueError):
    """Signal and idler group indices coincide.

    The linear phase-matching model divides by |ng_1 - ng_2|; callers hitting
    this should switch to the quadratic-phase numeric path
    (``rates.pairs_degenerate_numeric`` / CLI ``--degenerate``).
    """


class QuadratureError(SpdcError, RuntimeError):
    """Numerical integration failed to reach the requested tolerance.

    Attributes:
        estimate: achieved error estimate (relative, when available).
    """

    def __init__(self, message, estimate=None):
        super().__init__(message)
        self.estimate = estimate


class ConfigError(SpdcError, ValueError):
    """Experiment configuration failed validation. Message names the field."""
