"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: usage/config problems exit 2, data
problems exit 3, numerical failures exit 4.  This module imports nothing.
"""


class TghError(Exception):
    """Base class for all package-specific errors."""


class UsageError(TghError):
    """A command-line argument is malformed or out of range."""


class ConfigError(TghError):
    """Experiment configuration is malformed or violates the schema."""


class DataError(TghError):
    """Dataset ingestion, splitting, or standardization failed."""


class SolverError(TghError):
    """The transform inverse solver could not bracket or converge."""


class NumericalError(TghError):
    """A numerical invariant was violated (e.g. non-finite training loss)."""
