"""Shared domain types, validation, and numeric conventions.

Every other module works with the types defined here: a ``Menu`` fixes the
alternative labels and their order, and a ``Dataset`` over it holds the
observations as two read-only n-by-|A| matrices, the value vectors v^i
(one real value per alternative) and the choice probabilities p^i, row i
for observation i.  Its constructor validates them, so every Dataset holds
finite values and rows on the probability simplex.

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

import numpy as np

from .errors import DuplicateValuesWarning, RecordValidationError, ValidationError

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


def _check_tol(tol: float) -> None:
    if math.isnan(tol):  # NaN fails every comparison, so it would turn checks off
        raise ValueError("tol must not be NaN")


def _check_vector(raw, *, name: str) -> np.ndarray:
    arr = np.asarray(raw, dtype=float)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size < 2:
        raise ValidationError(f"{name} needs at least two entries, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    return arr


def check_value_scale(menu_id: str, values, n: int) -> None:
    """Raise ``ValidationError`` if the value entries of n observations exceed
    float max / (32 n) in magnitude: |W_ij| <= 2 max|v|, and policy values and
    cycle sums are within 24 n max|v|."""
    vmax, bound = float(np.max(np.abs(values), initial=0.0)), np.finfo(float).max / (32 * n)
    if vmax > bound:
        raise ValidationError(
            f"menu {menu_id!r} has values up to {vmax:.6g} in magnitude, above "
            f"float max / (32 n) = {bound:.6g}, where cycle sums can overflow"
        )


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


@dataclass(frozen=True)
class Menu:
    """A finite set of alternatives with a fixed ordering.

    The ordering is shared by every vector indexed over the menu.
    """

    id: str
    alternatives: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "alternatives", tuple(self.alternatives))
        if len(self.alternatives) < 2:
            raise ValidationError(
                f"menu {self.id!r} needs at least two alternatives, got {len(self.alternatives)}"
            )
        if len(set(self.alternatives)) != len(self.alternatives):
            raise ValidationError(f"menu {self.id!r} has duplicate alternative labels")

    @property
    def size(self) -> int:
        return len(self.alternatives)

    def __repr__(self):
        return f"Menu({self.id!r}, {list(self.alternatives)!r})"


def validate_simplex(raw, tol: float = TOL_SIMPLEX) -> np.ndarray:
    """Validate and normalize a raw probability vector.

    Entries in ``[-tol, 0)`` are treated as numerical dust: clamped to zero,
    after which the vector is rescaled to sum to one exactly.  The function is
    idempotent: feeding the output back in returns an identical vector, and
    alternatives are never reordered.

    Raises ``ValidationError`` for entries below ``-tol``, a sum that
    deviates from one by more than ``tol``, or malformed input, and
    ``ValueError`` for a NaN ``tol``.
    """
    _check_tol(tol)
    arr = _check_vector(raw, name="probability vector")
    low = int(np.argmin(arr))
    if arr[low] < -tol:
        raise ValidationError(f"entry {float(arr[low])!r} at position {low} is below -{tol:g}")
    total = math.fsum(arr.tolist())
    if abs(total - 1.0) > tol:
        raise ValidationError(f"entries sum to {total!r}, expected 1 within {tol:g}")
    clamped = np.where(arr < 0.0, 0.0, arr)
    if np.array_equal(clamped, arr) and abs(total - 1.0) <= _EXACT_SUM_SLACK * arr.size:
        return arr
    return exact_simplex_array(clamped)


# A function apart from Dataset.__init__ because bench/tracer.py times it,
# by this name, as the benchmark's core.validate layer.
def validate_dataset(menu: Menu, values, probs) -> tuple[np.ndarray, np.ndarray]:
    """What ``Dataset(menu, values, probs)`` runs: C-ordered float copies of
    the rows, checked and renormalized.

    Row k of ``values`` and ``probs`` is observation k + 1, the index used
    in witness cycles, reports and the ``RecordValidationError`` that
    collects every failing record.  The rows are screened as two matrices:
    a row of finite values and probabilities in [0, 1] whose compensated
    sum is within the bit-level slack of one is what ``validate_simplex``
    returns unchanged; every other record (all of them, if the rows are
    ragged) goes through the scalar validators at ``TOL_SIMPLEX``.  Values
    beyond ``check_value_scale`` are rejected.  Duplicate value vectors with
    differing probabilities are kept but trigger a
    ``DuplicateValuesWarning``: no single-valued choice map gives such data.
    """
    if len(values) != len(probs):
        raise ValidationError(f"{len(values)} value rows vs {len(probs)} probability rows")
    if not len(values):
        raise ValidationError("no records supplied")

    shape = (len(values), menu.size)
    raw_values, raw_probs = values, probs
    try:
        values = np.array(raw_values, dtype=float, order="C")
        probs = np.array(raw_probs, dtype=float, order="C")
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
                raise ValidationError(f"{v.size} values against a menu of size {menu.size}")
            p = validate_simplex(raw_probs[k])
            if p.size != menu.size:
                raise ValidationError(f"{p.size} probabilities against a menu of size {menu.size}")
            values[k], probs[k] = v, p
        except Exception as exc:  # aggregated below with record indices
            failures.append((k + 1, exc))
    if failures:
        raise RecordValidationError(failures)
    check_value_scale(menu.id, values, shape[0])

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
            stacklevel=3,  # the caller of Dataset(...)
        )
    return values, probs


class Dataset:
    """Observations over one menu, validated (``validate_dataset``):
    ``values_matrix`` and ``probs_matrix``, read-only n-by-|A| matrices of
    value vectors and choice probabilities copied once from the caller."""

    def __init__(self, menu: Menu, values, probs):
        values, probs = validate_dataset(menu, values, probs)
        values.flags.writeable = probs.flags.writeable = False
        self.__dict__.update(menu=menu, values_matrix=values, probs_matrix=probs)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    @property
    def n(self) -> int:
        return self.values_matrix.shape[0]

    def __eq__(self, other):
        return (
            isinstance(other, Dataset)
            and self.menu == other.menu
            and np.array_equal(self.values_matrix, other.values_matrix)
            and np.array_equal(self.probs_matrix, other.probs_matrix)
        )

    def __repr__(self):
        return f"Dataset(menu={self.menu.id!r}, n={self.n}, size={self.menu.size})"
