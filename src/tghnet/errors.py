"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: usage/config problems exit 2, data
problems exit 3, numerical failures exit 4.  This module imports contextlib only.
"""

from contextlib import contextmanager


class TghError(Exception):
    """Base class for all package-specific errors.  row, when set, is the
    index tuple of the entry the error is about in the arrays of the call
    it leaves; the message names it where its text reads {row}."""

    def __init__(self, text: str, row: tuple | None = None):
        super().__init__(text)
        self.row = row

    def __str__(self) -> str:
        if self.row is None:  # a path or a value in the text may read {row}
            return self.args[0]
        row = tuple(map(int, self.row))
        return self.args[0].replace("{row}", str(row[0] if len(row) == 1 else row))


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


@contextmanager
def row_map(index):
    """A TghError leaving the block at row (r, ...) leaves at (index[r], ...); rowless, as is."""
    try:
        yield
    except TghError as exc:
        if exc.row:
            exc.row = (index[exc.row[0]], *exc.row[1:])
        raise
