"""Exception and warning types shared across the package.

A failure has a class of its own only when it carries data a caller reads
or asks for a different response; any other raises ``ValidationError``
(malformed input) or ``CycloratError``, with a message naming what failed.
"""

from __future__ import annotations


class CycloratError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(CycloratError):
    """Base class for data-validation failures."""


class RecordValidationError(ValidationError):
    """One or more records failed validation.

    ``record_errors`` holds ``(record_index, error)`` pairs, indices 1-based.
    """

    def __init__(self, record_errors):
        self.record_errors = list(record_errors)
        lines = ", ".join(f"record {i}: {e}" for i, e in self.record_errors)
        super().__init__(f"{len(self.record_errors)} invalid record(s): {lines}")


class NotCyclicallyMonotoneError(CycloratError):
    """Potentials cannot be built: the data contain a negative cycle.

    The offending cycle is attached as ``witness``.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NoProgressError(CycloratError):
    """The iterative solver stalled above the requested optimality gap."""


class DuplicateValuesWarning(UserWarning):
    """Two observations share a value vector but report different probabilities."""
