"""Built-in strength-of-preference families and their normalization.

A preference model maps a value vector v to a vector of non-negative
strengths, one per alternative, allowing the alternatives' values to
interact.  Normalizing the strengths to sum to one turns them into choice
probabilities while preserving the within-menu ordering.

Families:

``LuceExponential``
    ``T_a(v) = exp(v_a)``.  Normalization is the softmax map, the classic
    transitive benchmark (it is the gradient of log-sum-exp).

``PairwiseRegret(theta, regret_fn)``
    ``T_a(v) = exp(v_a + theta * sum_{b != a} r(v_a - v_b))`` with ``r`` an
    odd, increasing scalar function (default ``tanh``).  Large ``theta``
    produces menu-dependent interactions that can break cyclic monotonicity,
    which makes the family useful for exercising violation paths.

``SalienceWeighted(sigma)``
    ``T_a(v) = softplus(v_a) * (1 + sigma * |v_a - mean(v)| / (1 + |v_a| +
    |mean(v)|))``.  A contextual distortion that stays positive and
    continuous.

``CustomTable``
    Explicit ``v -> strengths`` rows, defined only at the listed vectors.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from typing import Callable, Sequence, Union

import numpy as np

from .core import (
    Dataset,
    Menu,
    Observation,
    SimplexPoint,
    ValueVector,
    exact_simplex_array,
)
from .errors import EmptyDatasetError, TableLookupError, ValidationError, ZeroStrengthError

# Largest exponent fed to exp() before the shared max-shift guard engages.
_EXP_GUARD = 700.0


def _guarded_exp(exponents: np.ndarray) -> np.ndarray:
    # Subtracting the max rescales all strengths by a common positive factor,
    # which normalization cancels; only engaged when exp() would overflow.
    m = float(np.max(exponents))
    if m > _EXP_GUARD:
        return np.exp(exponents - m)
    return np.exp(exponents)


def _softplus(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x > 0
    out[pos] = x[pos] + np.log1p(np.exp(-x[pos]))
    out[~pos] = np.log1p(np.exp(x[~pos]))
    return out


@dataclass(frozen=True)
class LuceExponential:
    """Exponential strengths: no interaction between alternatives."""

    def strengths(self, v: np.ndarray) -> np.ndarray:
        return _guarded_exp(v)


@dataclass(frozen=True)
class PairwiseRegret:
    """Exponentiated value plus pairwise regret/rejoice terms."""

    theta: float = 1.0
    regret_fn: Callable[[np.ndarray], np.ndarray] = np.tanh

    def strengths(self, v: np.ndarray) -> np.ndarray:
        diffs = v[:, None] - v[None, :]
        interaction = self.regret_fn(diffs)
        np.fill_diagonal(interaction, 0.0)
        return _guarded_exp(v + self.theta * interaction.sum(axis=1))


@dataclass(frozen=True)
class SalienceWeighted:
    """Softplus value scaled up by distance from the menu's mean value."""

    sigma: float = 0.5

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError(f"sigma must be non-negative, got {self.sigma}")

    def strengths(self, v: np.ndarray) -> np.ndarray:
        mean = float(np.mean(v))
        weight = 1.0 + self.sigma * np.abs(v - mean) / (1.0 + np.abs(v) + abs(mean))
        if np.max(v) < -_EXP_GUARD:
            # softplus(x) ~ exp(x) here; factor out exp(max) to dodge underflow.
            return np.exp(v - np.max(v)) * weight
        return _softplus(v) * weight


@dataclass(frozen=True)
class CustomTable:
    """Explicit strength rows, defined only at the listed value vectors."""

    rows: tuple[tuple[tuple[float, ...], tuple[float, ...]], ...]

    def __post_init__(self):
        normalized = []
        for values, strengths in self.rows:
            values = tuple(float(x) for x in values)
            strengths = tuple(float(x) for x in strengths)
            if len(values) != len(strengths):
                raise ValueError("table row has mismatched values/strengths lengths")
            if any(s < 0 for s in strengths):
                raise ValueError("table strengths must be non-negative")
            if all(s == 0.0 for s in strengths):
                raise ZeroStrengthError("table row has identically zero strengths")
            normalized.append((values, strengths))
        object.__setattr__(self, "rows", tuple(normalized))
        object.__setattr__(
            self, "_lookup", {vals: np.array(st) for vals, st in normalized}
        )

    def strengths(self, v: np.ndarray) -> np.ndarray:
        key = tuple(float(x) for x in v)
        try:
            return self._lookup[key].copy()
        except KeyError:
            raise TableLookupError(
                f"value vector {list(key)!r} is not listed in the table"
            ) from None


PreferenceModel = Union[LuceExponential, PairwiseRegret, SalienceWeighted, CustomTable]


def eval_preference(model: PreferenceModel, values: ValueVector) -> np.ndarray:
    """Evaluate a model's strength vector at one value vector.

    The result is non-negative and not identically zero; it is deterministic
    for fixed parameters.  Raises ``ZeroStrengthError`` if every component
    evaluates to zero (a parameter pathology, never reachable for the
    built-in families at finite values).
    """
    v = values.entries if isinstance(values, ValueVector) else ValueVector(values).entries
    t = np.asarray(model.strengths(v), dtype=float)
    if t.shape != v.shape:
        raise ValueError(f"model returned shape {t.shape}, expected {v.shape}")
    if np.any(t < 0) or not np.all(np.isfinite(t)):
        raise ValueError("model produced negative or non-finite strengths")
    if not np.any(t > 0):
        raise ZeroStrengthError("all strength components are zero")
    return t


def normalize(strengths) -> SimplexPoint:
    """Rescale a non-zero, non-negative strength vector to sum to one.

    Invariant under positive rescaling of the input, and order-preserving:
    ``T_a >= T_b`` iff the normalized entries compare the same way.
    """
    t = np.asarray(strengths, dtype=float)
    if np.any(t < 0) or not np.all(np.isfinite(t)):
        raise ValueError("strengths must be finite and non-negative")
    if not np.any(t > 0):
        raise ZeroStrengthError("cannot normalize an identically zero strength vector")
    peak = float(np.max(t))
    if peak > 1e150:  # keep the compensated sum away from overflow
        t = t / peak
    return SimplexPoint(exact_simplex_array(t))


def choice_probabilities(model: PreferenceModel, values: ValueVector) -> SimplexPoint:
    """Normalized strengths at one value vector."""
    return normalize(eval_preference(model, values))


def simulate_dataset(
    model: PreferenceModel,
    menu: Menu,
    value_rows: Sequence[Sequence[float]],
) -> Dataset:
    """Build a dataset by running the model over a design of value vectors."""
    rows = list(value_rows)
    if not rows:
        raise EmptyDatasetError("simulation design is empty")
    observations = []
    for row in rows:
        v = ValueVector(np.asarray(row, dtype=float))
        observations.append(Observation(v, choice_probabilities(model, v)))
    return Dataset(menu, tuple(observations))


_FAMILY_NAMES = {
    "luce_exponential": LuceExponential,
    "pairwise_regret": PairwiseRegret,
    "salience_weighted": SalienceWeighted,
    "custom_table": CustomTable,
}


def model_from_spec(family: str, params: dict | None = None) -> PreferenceModel:
    """Instantiate a model from its config-file name and parameter map.

    ``custom_table`` expects ``params = {"rows": [{"values": [...],
    "strengths": [...]}, ...]}``; ``strengths`` may be given as ``probs``.
    The other families take their numeric fields by name.  A missing,
    unexpected or mistyped entry raises ``ValidationError`` naming it.
    """
    if not isinstance(family, str):
        raise ValidationError(f"model spec 'family' must be a name, got {family!r}")
    if params is not None and not isinstance(params, dict):
        raise ValidationError(f"{family} 'params' must be an object, got {params!r}")
    params = dict(params or {})
    try:
        cls = _FAMILY_NAMES[family]
    except KeyError:
        raise ValueError(
            f"unknown family {family!r}; expected one of {sorted(_FAMILY_NAMES)}"
        ) from None
    if cls is CustomTable:
        rows = params.pop("rows", None)
        if not isinstance(rows, (list, tuple)):
            raise ValidationError(f"custom_table needs a 'rows' list, got {rows!r}")
        table = []
        for k, r in enumerate(rows, start=1):
            r = r if isinstance(r, dict) else {}
            strengths = r.get("strengths", r.get("probs"))
            if not all(isinstance(x, (list, tuple)) for x in (r.get("values"), strengths)):
                raise ValidationError(f"custom_table row {k} needs 'values' and 'strengths' lists")
            table.append((tuple(r["values"]), tuple(strengths)))
        if params:
            raise ValueError(f"unexpected custom_table parameters: {sorted(params)}")
        return CustomTable(tuple(table))
    if cls is PairwiseRegret and "regret_fn" in params:
        raise ValueError("regret_fn is not configurable from a spec; use the API")
    unexpected = sorted(set(params) - {f.name for f in fields(cls)})
    if unexpected:
        raise ValidationError(f"unexpected {family} parameters: {unexpected}")
    for key, x in params.items():
        if not isinstance(x, numbers.Real):
            raise ValidationError(f"{family} parameter {key!r} must be a number, got {x!r}")
    return cls(**params)
