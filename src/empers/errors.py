"""Error types shared across the package and mapped to CLI exit codes."""


class ConfigError(ValueError):
    """Invalid configuration (bad field values, inconsistent settings). Exit code 2."""


class DataError(ValueError):
    """Invalid or malformed input data (files, matrices, measures). Exit code 3."""


class NumericalError(ArithmeticError):
    """Numerical failure (non-finite values, diverging optimization). Exit code 4."""

