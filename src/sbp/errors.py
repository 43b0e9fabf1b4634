"""Error taxonomy shared across the library."""


class SbpError(Exception):
    """Base class for all library errors."""


class DimensionError(SbpError, ValueError):
    """Operand shapes do not conform."""


class ConfigurationError(SbpError, ValueError):
    """Invalid configuration (bad ratio, unknown mode, bad config file key, ...)."""


class ContractViolationError(SbpError, RuntimeError):
    """A documented contract was violated (cache from another layer, mismatched gradient keys, ...)."""


class NumericError(SbpError, ArithmeticError):
    """An operation produced non-finite values."""
