"""Cyclic-monotonicity testing and convex-cost rationalization for stochastic choice.

The package turns strength-of-preference models into choice probabilities,
tests finite (value, probability) datasets for cyclic monotonicity with
witness extraction, constructs and verifies the convex-cost
(perturbed-utility) representation of any dataset that passes, and solves
perturbed-utility choices with one function per cost.

Public names resolve on first use (PEP 562), so importing one submodule,
such as the command line, loads only what that submodule imports.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {
    "core": "TOL_CM TOL_OPT TOL_SIMPLEX Dataset Menu comp_dot validate_simplex",
    "errors": """CycloratError DuplicateValuesWarning NoProgressError
        NotCyclicallyMonotoneError RecordValidationError ValidationError""",
    "lp": "",  # public as a submodule only
    "models": """CustomTable LuceExponential PairwiseRegret PreferenceModel
        SalienceWeighted choice_probabilities eval_preference model_from_spec normalize
        simulate_dataset""",
    "monotonicity": """CMVerdict CycleWitness TwoPointViolation check_cyclic_monotonicity
        check_two_point_monotonicity check_weak_stochastic_transitivity cycle_sum""",
    "rationalization": """PumSolution RationalizationReport compute_potentials
        conjugate_cost cost_description evaluate_extension fitted_choice simplex_projection
        smoothed_choices softmax_probabilities verify_rationalization""",
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted([*_SOURCE, *_EXPORTS])


def __getattr__(name: str):
    if name in _EXPORTS:
        return _import_module(f".{name}", __name__)
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f".{_SOURCE[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
