"""Built-in strength-of-preference families and their normalization.

A preference model maps a value vector v to a vector of non-negative
strengths, one per alternative, allowing the alternatives' values to
interact.  Normalizing the strengths to sum to one turns them into choice
probabilities while preserving the within-menu ordering.

Families:

``LuceExponential``
    ``T_a(v) = exp(v_a)``.  Normalization is the softmax map, the classic
    transitive benchmark (it is the gradient of log-sum-exp).

``PairwiseRegret(theta)``
    ``T_a(v) = exp(v_a + theta * sum_{b != a} tanh(v_a - v_b))``.  Large
    ``theta`` produces menu-dependent interactions that can break cyclic
    monotonicity, which makes the family useful for exercising violation
    paths.

``SalienceWeighted(sigma)``
    ``T_a(v) = softplus(v_a) * (1 + sigma * |v_a - mean(v)| / (1 + |v_a| +
    |mean(v)|))``.  A contextual distortion that stays positive and
    continuous.

``CustomTable``
    Explicit ``v -> strengths`` rows, defined only at the listed vectors.

``simulate_dataset`` runs a model over a design of value vectors and
builds a ``Dataset``, whose constructor validates the rows like any
other.  This module owns the model spec JSON that ``simulate`` reads
(``load_model_spec``); ``dataio`` owns the dataset CSV.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, fields
from itertools import chain
from pathlib import Path
from typing import Callable, Sequence, Union

import numpy as np

from .core import Dataset, Menu, _check_vector, check_value_scale, exact_simplex_array
from .errors import CycloratError, ValidationError

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

    def strengths(self, v: np.ndarray) -> np.ndarray:
        # The diagonal is tanh(0) = 0: b = a adds nothing to the sum.
        return _guarded_exp(v + self.theta * np.tanh(v[:, None] - v[None, :]).sum(axis=1))


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
                raise CycloratError("table row has identically zero strengths")
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
            raise CycloratError(f"value vector {list(key)!r} is not listed in the table") from None


PreferenceModel = Union[LuceExponential, PairwiseRegret, SalienceWeighted, CustomTable]


def eval_preference(model: PreferenceModel, values) -> np.ndarray:
    """Evaluate a model's strength vector at one value vector.

    The result is non-negative and not identically zero; it is deterministic
    for fixed parameters.  Raises ``CycloratError`` if every component
    evaluates to zero (a parameter pathology, never reachable for the
    built-in families at finite values).
    """
    v = _check_vector(values, name="value vector")
    t = np.asarray(model.strengths(v), dtype=float)
    if t.shape != v.shape:
        raise ValueError(f"model returned shape {t.shape}, expected {v.shape}")
    if np.any(t < 0) or not np.all(np.isfinite(t)):
        raise ValueError("model produced negative or non-finite strengths")
    if not np.any(t > 0):
        raise CycloratError("all strength components are zero")
    return t


def normalize(strengths) -> np.ndarray:
    """Rescale a non-zero, non-negative strength vector to sum to one.

    Invariant under positive rescaling of the input, and order-preserving:
    ``T_a >= T_b`` iff the normalized entries compare the same way.
    """
    t = np.asarray(strengths, dtype=float)
    if np.any(t < 0) or not np.all(np.isfinite(t)):
        raise ValueError("strengths must be finite and non-negative")
    if not np.any(t > 0):
        raise CycloratError("cannot normalize an identically zero strength vector")
    peak = float(np.max(t))
    if peak > 1e150:  # keep the compensated sum away from overflow
        t = t / peak
    return exact_simplex_array(t)


def choice_probabilities(model: PreferenceModel, values) -> np.ndarray:
    """Normalized strengths at one value vector."""
    return normalize(eval_preference(model, values))


def simulate_dataset(
    model: PreferenceModel,
    menu: Menu,
    value_rows: Sequence[Sequence[float]],
) -> Dataset:
    """Build a dataset by running the model over a design of value vectors.

    Values the check would reject as too large are rejected before any
    probability is computed; ``Dataset`` validates the rest.
    """
    rows = list(value_rows)
    if not rows:
        raise ValidationError("simulation design is empty")
    check_value_scale(menu.id, np.fromiter(chain.from_iterable(rows), float), len(rows))
    return Dataset(menu, rows, [choice_probabilities(model, row) for row in rows])


_FAMILY_NAMES = {
    "luce_exponential": LuceExponential,
    "pairwise_regret": PairwiseRegret,
    "salience_weighted": SalienceWeighted,
    "custom_table": CustomTable,
}


# Each spec field's one JSON type, named as error messages name it.
_KINDS: dict[str, Callable[[object], bool]] = {
    "an object": lambda x: isinstance(x, dict),
    "a string": lambda x: isinstance(x, str),
    "a list": lambda x: isinstance(x, list),
    "a list of labels": lambda x: isinstance(x, list) and all(isinstance(a, str) for a in x),
    "a list of rows": lambda x: isinstance(x, list) and all(isinstance(r, list) for r in x),
    # Not true/false (bool is an int), nor NaN, Infinity or an int past float range.
    "a number": lambda x: type(x) in (int, float) and abs(x) <= sys.float_info.max,
    "a non-negative integer": lambda x: type(x) is int and x >= 0,
}


def _typed(x, kind: str, name: str):
    """``x`` if it is of ``kind``; otherwise a ValidationError naming ``name``."""
    if not _KINDS[kind](x):
        raise ValidationError(f"{name} must be {kind}, got {x!r}")
    return x


def _field(spec: dict, key: str, kind: str, where: str = "model spec"):
    """``spec[key]``, which must be present and of ``kind``."""
    if key not in spec:
        raise ValidationError(f"{where} needs the {key!r} field")
    return _typed(spec[key], kind, f"{where} {key!r}")


def _numbers(row: list, name: str) -> list[float]:
    return [float(_typed(x, "a number", f"{name} entry")) for x in row]


def model_from_spec(family: str, params: dict | None = None) -> PreferenceModel:
    """Instantiate a model from its config-file name and parameter map.

    ``custom_table`` expects ``params = {"rows": [{"values": [...],
    "strengths": [...]}, ...]}``; ``strengths`` may be given as ``probs``.
    The other families take their numeric fields by name.  A missing,
    unexpected or mistyped entry raises ``ValidationError`` naming it; an
    unknown family raises ``ValueError``.
    """
    if family not in _FAMILY_NAMES:
        raise ValueError(f"unknown family {family!r}; expected one of {sorted(_FAMILY_NAMES)}")
    cls = _FAMILY_NAMES[family]
    params = _typed({} if params is None else params, "an object", f"{family} 'params'")
    names = {"rows"} if cls is CustomTable else {f.name for f in fields(cls)}
    unexpected = sorted(set(params) - names)
    if unexpected:
        raise ValidationError(f"unexpected {family} parameters: {unexpected}")
    if cls is not CustomTable:
        where = f"{family} parameter"
        return cls(**{k: _typed(x, "a number", f"{where} {k!r}") for k, x in params.items()})
    table = []
    for k, row in enumerate(_field(params, "rows", "a list", family), start=1):
        row = row if isinstance(row, dict) else {}  # a row that is no object lacks its fields
        keys = ("values", "strengths" if "strengths" in row or "probs" not in row else "probs")
        where = f"{family} row {k}"
        table.append(
            [_numbers(_field(row, key, "a list", where), f"{where} {key!r}") for key in keys]
        )
    return CustomTable(tuple(table))


def load_model_spec(path, seed: int = 0) -> tuple[PreferenceModel, Menu, list[list[float]]]:
    """Read a model spec: the model, its menu and the value rows to run it over.

    A spec is ``{"family": ..., "params": {...}, "menu": {"id": ...,
    "alternatives": [...]}}`` plus either explicit ``"values": [[...], ...]``
    or ``"design": {"count": N, "low": L, "high": H}``, whose rows are
    ``default_rng(seed).uniform(L, H, (N, |A|))``.  A missing or mistyped
    field raises ``ValidationError`` naming it.
    """
    with Path(path).open("r", encoding="utf-8") as fh:
        spec = _typed(json.load(fh), "an object", "model spec")
    family, menu_spec = _field(spec, "family", "a string"), _field(spec, "menu", "an object")
    model = model_from_spec(family, spec.get("params"))
    where = "model spec menu"
    menu_id = _field(menu_spec, "id", "a string", where)
    menu = Menu(menu_id, tuple(_field(menu_spec, "alternatives", "a list of labels", where)))
    if "values" in spec:
        rows = _field(spec, "values", "a list of rows")
        return model, menu, [_numbers(row, "model spec 'values'") for row in rows]
    if "design" not in spec:
        raise ValidationError("model spec needs either 'values' or 'design'")
    design, where = _field(spec, "design", "an object"), "model spec design"
    count = _field(design, "count", "a non-negative integer", where)
    low = float(_typed(design.get("low", -5.0), "a number", f"{where} 'low'"))
    high = float(_typed(design.get("high", 5.0), "a number", f"{where} 'high'"))
    rng = np.random.default_rng(seed)
    return model, menu, rng.uniform(low, high, size=(count, menu.size)).tolist()
