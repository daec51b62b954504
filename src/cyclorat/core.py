"""Shared domain types, validation, and numeric conventions.

Every other module works with the types defined here: a ``Menu`` fixes the
alternative labels and their order, and a ``Dataset`` over it holds the
observations as two read-only n-by-|A| matrices, the value vectors v^i
(one real value per alternative) and the choice probabilities p^i, row i
for observation i.

Numeric conventions:

* probability vectors are renormalized so their entries sum to one at the
  bit level (|sum - 1| <= 1e-15 * length) and validation is idempotent;
* cycle sums, witnesses and scalar certificates that feed tolerance checks
  use compensated (exactly rounded) summation via ``math.fsum``; the
  edge-weight matrix is one matrix product with a stated rounding bound
  (see ``monotonicity.edge_weights``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import FrozenInstanceError, dataclass
from typing import Sequence

import numpy as np

from .errors import (
    BadSumError,
    DuplicateValuesWarning,
    EmptyDatasetError,
    LengthMismatchError,
    NegativeEntryError,
    NonFiniteError,
    RecordValidationError,
)

#: Default tolerance for simplex validation (negative dust, sum deviation).
TOL_SIMPLEX = 1e-9
#: Default per-edge slack in monotonicity tests: cycle means >= -TOL_CM pass.
TOL_CM = 1e-9
#: Default certified optimality gap for iterative solvers.
TOL_OPT = 1e-8

# Bit-level slack per coordinate allowed after exact renormalization.
_EXACT_SUM_SLACK = 1e-15


def comp_dot(x, y) -> float:
    """Inner product with compensated summation of the rounded products."""
    prod = np.multiply(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    return math.fsum(prod.tolist())


def _check_vector(raw, *, name: str) -> np.ndarray:
    arr = np.asarray(raw, dtype=float)
    if arr.ndim != 1:
        raise LengthMismatchError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size < 2:
        raise LengthMismatchError(f"{name} needs at least two entries, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"{name} contains non-finite entries")
    return arr


def exact_simplex_array(nonneg: np.ndarray) -> np.ndarray:
    """Rescale a non-negative vector so it sums to one at the bit level.

    Divides by the compensated sum, then pushes the residual into the
    largest entry so ``fsum(out)`` is within one ulp of 1.
    """
    s = math.fsum(nonneg.tolist())
    out = nonneg / s
    resid = 1.0 - math.fsum(out.tolist())
    out[int(np.argmax(out))] += resid
    return out


@dataclass(frozen=True, eq=False)
class Menu:
    """A finite set of alternatives with a fixed ordering.

    The ordering is shared by every vector indexed over the menu.
    """

    id: str
    alternatives: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "alternatives", tuple(self.alternatives))
        if len(self.alternatives) < 2:
            raise LengthMismatchError(
                f"menu {self.id!r} needs at least two alternatives, got {len(self.alternatives)}"
            )
        if len(set(self.alternatives)) != len(self.alternatives):
            raise ValueError(f"menu {self.id!r} has duplicate alternative labels")

    @property
    def size(self) -> int:
        return len(self.alternatives)

    def __eq__(self, other):
        return (
            isinstance(other, Menu)
            and self.id == other.id
            and self.alternatives == other.alternatives
        )

    def __repr__(self):
        return f"Menu({self.id!r}, {list(self.alternatives)!r})"


def validate_simplex(raw, tol: float = TOL_SIMPLEX) -> np.ndarray:
    """Validate and normalize a raw probability vector.

    Entries in ``[-tol, 0)`` are treated as numerical dust: clamped to zero,
    after which the vector is rescaled to sum to one exactly.  The function is
    idempotent: feeding the output back in returns an identical vector, and
    alternatives are never reordered.

    Raises ``NegativeEntryError`` for entries below ``-tol``, ``BadSumError``
    when the sum deviates from one by more than ``tol``, and
    ``LengthMismatchError`` / ``NonFiniteError`` for malformed input.
    """
    arr = _check_vector(raw, name="probability vector")
    low = int(np.argmin(arr))
    if arr[low] < -tol:
        raise NegativeEntryError(
            f"entry {float(arr[low])!r} at position {low} is below -{tol:g}"
        )
    total = math.fsum(arr.tolist())
    if abs(total - 1.0) > tol:
        raise BadSumError(f"entries sum to {total!r}, expected 1 within {tol:g}")
    clamped = np.where(arr < 0.0, 0.0, arr)
    if np.array_equal(clamped, arr) and abs(total - 1.0) <= _EXACT_SUM_SLACK * arr.size:
        return arr
    return exact_simplex_array(clamped)


class Dataset:
    """Observations over one menu: read-only n-by-|A| matrices of value
    vectors and of choice probabilities.

    ``values`` and ``probs`` are the matrices, or rows of them, and are
    copied.  Row i of each is observation i + 1; these positions (1..n) are
    the indices used in witness cycles and reports.
    """

    def __init__(self, menu: Menu, values, probs):
        if not len(values):
            raise EmptyDatasetError(f"dataset over menu {menu.id!r} has no observations")
        if len(values) != len(probs):
            raise LengthMismatchError(f"{len(values)} value rows vs {len(probs)} probability rows")
        try:
            V, P = np.array(values, dtype=float), np.array(probs, dtype=float)
        except ValueError:  # ragged rows, named below, or a cell that is no number
            V = P = np.empty(0)
        if not V.shape == P.shape == (len(values), menu.size):
            for k, pair in enumerate(zip(values, probs)):
                for row in pair:
                    if len(row) != menu.size:
                        raise LengthMismatchError(
                            f"observation {k + 1} has {len(row)} entries, menu has {menu.size}"
                        )
            V, P = np.array(values, dtype=float), np.array(probs, dtype=float)  # raises on a non-number
        self._hold(menu, V, P)

    def _hold(self, menu: Menu, values: np.ndarray, probs: np.ndarray) -> Dataset:
        # Freezes and keeps these float matrices themselves: no check, no copy.
        values.flags.writeable = probs.flags.writeable = False
        self.__dict__.update(menu=menu, _values=values, _probs=probs)
        return self

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    @property
    def n(self) -> int:
        return self._values.shape[0]

    @property
    def values_matrix(self) -> np.ndarray:
        """n-by-|A| matrix of value vectors (read-only)."""
        return self._values

    @property
    def probs_matrix(self) -> np.ndarray:
        """n-by-|A| matrix of choice probabilities (read-only)."""
        return self._probs

    def __eq__(self, other):
        return (
            isinstance(other, Dataset)
            and self.menu == other.menu
            and np.array_equal(self._values, other._values)
            and np.array_equal(self._probs, other._probs)
        )

    def __repr__(self):
        return f"Dataset(menu={self.menu.id!r}, n={self.n}, size={self.menu.size})"


def validate_dataset(
    menu_id: str,
    values: Sequence[Sequence[float]],
    probs: Sequence[Sequence[float]],
    *,
    alternatives: Sequence[str] | None = None,
    tol: float = TOL_SIMPLEX,
) -> Dataset:
    """Validate parallel rows of values and probabilities into a Dataset.

    Row k of ``values`` and of ``probs`` is record k + 1.  Per-record
    failures are aggregated into a single ``RecordValidationError`` carrying
    these 1-based indices.  Duplicate value vectors with differing
    probabilities are kept (cycle sums remain well defined) but trigger a
    ``DuplicateValuesWarning``, since such data cannot come from a
    single-valued choice map.

    The rows are screened as two n-by-|A| matrices: a row of finite values
    and probabilities in [0, 1] whose compensated sum is within the bit-level
    slack of one is what ``validate_simplex`` returns unchanged.  Every other
    record (all of them, if the rows are ragged) goes through the scalar
    validators, so results and errors are theirs.

    Values above float max / (32 n) in magnitude raise ``NonFiniteError``:
    |W_ij| <= 2 max|v|, and policy values and cycle sums are within 24 n max|v|.
    """
    if len(values) != len(probs):
        raise LengthMismatchError(f"{len(values)} value rows vs {len(probs)} probability rows")
    if not len(values):
        raise EmptyDatasetError("no records supplied")

    if alternatives is None:
        alternatives = tuple(f"a{k + 1}" for k in range(len(values[0])))
    menu = Menu(menu_id, tuple(alternatives))

    shape = (len(values), menu.size)
    raw_values, raw_probs = values, probs
    try:
        values, probs = np.array(raw_values, dtype=float), np.array(raw_probs, dtype=float)
    except (TypeError, ValueError):
        values = probs = np.empty(0)
    if values.shape == probs.shape == shape:
        clean = np.isfinite(values).all(axis=1) & (probs.min(axis=1) >= 0.0) & (probs.max(axis=1) <= 1.0)
        rows = np.flatnonzero(clean)
        totals = np.fromiter(map(math.fsum, probs[rows].tolist()), float, rows.size)
        clean[rows[np.abs(totals - 1.0) > _EXACT_SUM_SLACK * menu.size]] = False
        redo = np.flatnonzero(~clean).tolist()
    else:
        values, probs, redo = np.empty(shape), np.empty(shape), range(shape[0])
    failures: list[tuple[int, Exception]] = []
    for k in redo:
        try:
            v = _check_vector(raw_values[k], name="value vector")
            if v.size != menu.size:
                raise LengthMismatchError(f"{v.size} values against a menu of size {menu.size}")
            p = validate_simplex(raw_probs[k], tol)
            if p.size != menu.size:
                raise LengthMismatchError(
                    f"{p.size} probabilities against a menu of size {menu.size}"
                )
            values[k], probs[k] = v, p
        except Exception as exc:  # aggregated below with record indices
            failures.append((k + 1, exc))
    if failures:
        raise RecordValidationError(failures)
    vmax, bound = float(np.max(np.abs(values))), np.finfo(float).max / (32 * shape[0])
    if vmax > bound:
        raise NonFiniteError(
            f"menu {menu.id!r} has values up to {vmax:.6g} in magnitude, above "
            f"float max / (32 n) = {bound:.6g}, where cycle sums can overflow"
        )

    # Rows are keyed by their bytes, so -0.0 and 0.0 differ.
    row = np.dtype((np.void, values.itemsize * menu.size))
    value_keys, prob_keys = values.view(row).ravel(), probs.view(row).ravel()
    _, first, group = np.unique(value_keys, return_index=True, return_inverse=True)
    first = first[group]  # each row's first row with the same values
    for k in np.flatnonzero(prob_keys != prob_keys[first]).tolist():
        warnings.warn(
            f"observations {first[k] + 1} and {k + 1} share a value vector "
            "but differ in probabilities",
            DuplicateValuesWarning,
            stacklevel=2,
        )

    return Dataset.__new__(Dataset)._hold(menu, values, probs)  # matrices of its own, checked
