"""Exception and warning types shared across the package."""

from __future__ import annotations


class CycloratError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(CycloratError):
    """Base class for data-validation failures."""


class LengthMismatchError(ValidationError):
    """A vector's length does not match the menu it is indexed over."""


class NonFiniteError(ValidationError):
    """A vector contains NaN or infinite entries."""


class NegativeEntryError(ValidationError):
    """A probability entry is below the negative-dust tolerance."""


class BadSumError(ValidationError):
    """Probability entries do not sum to one within tolerance."""


class MixedMenusError(ValidationError):
    """Records span more than one menu where a single menu is required."""


class EmptyDatasetError(ValidationError):
    """No observations were supplied."""


class RecordValidationError(ValidationError):
    """One or more records failed validation.

    ``record_errors`` holds ``(record_index, error)`` pairs, indices 1-based.
    """

    def __init__(self, record_errors):
        self.record_errors = list(record_errors)
        lines = ", ".join(f"record {i}: {e}" for i, e in self.record_errors)
        super().__init__(f"{len(self.record_errors)} invalid record(s): {lines}")


class ZeroStrengthError(CycloratError):
    """Every strength component evaluated to zero."""


class TableLookupError(CycloratError):
    """A custom-table model was queried at a value vector it does not list."""


class IndexOutOfRangeError(CycloratError):
    """A cycle refers to an observation index outside 1..n."""


class NotCyclicallyMonotoneError(CycloratError):
    """Potentials cannot be built: the data contain a negative cycle.

    The offending cycle is attached as ``witness``.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class InconsistentPairError(ValidationError):
    """Stored binary choice probabilities p(x,y) and p(y,x) do not sum to one."""


class NoProgressError(CycloratError):
    """The iterative solver stalled above the requested optimality gap."""


class DuplicateValuesWarning(UserWarning):
    """Two observations share a value vector but report different probabilities."""
