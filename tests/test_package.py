"""Tests for the package namespace and what importing it loads."""

import json
import os
import subprocess
import sys

import pytest

#: The public names of ``cyclorat``, submodules included.
PUBLIC_NAMES = """
BadSumError CMVerdict CustomTable CycleWitness CycloratError Dataset DuplicateValuesWarning
EmptyDatasetError InconsistentPairError IndexOutOfRangeError LengthMismatchError
LuceExponential Menu MixedMenusError NegativeEntryError NoProgressError NonFiniteError
NotCyclicallyMonotoneError PairwiseRegret PreferenceModel PumSolution RationalizationReport
RecordValidationError SalienceWeighted TOL_CM TOL_OPT TOL_SIMPLEX TableLookupError
TwoPointViolation ValidationError ZeroStrengthError check_cyclic_monotonicity
check_two_point_monotonicity check_weak_stochastic_transitivity choice_probabilities
comp_dot compute_potentials conjugate_cost core cost_description cycle_sum errors
eval_preference evaluate_extension fitted_choice lp model_from_spec models monotonicity
normalize rationalization simplex_projection simulate_dataset smoothed_choices
softmax_probabilities validate_dataset validate_simplex verify_rationalization
""".split()


def _fresh(code: str):
    # Runs `code` in a new interpreter, whose last line prints JSON.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cli_import_skips_unused_modules():
    loaded = _fresh(
        "import json, sys, cyclorat.cli; "
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('cyclorat'))))"
    )
    assert "cyclorat.monotonicity" in loaded
    assert not {"cyclorat.rationalization", "cyclorat.lp", "cyclorat.models"} & set(loaded)


def test_public_names_are_unchanged():
    all_names, listed, starred = _fresh(
        "import json, cyclorat; ns = {}; exec('from cyclorat import *', ns); "
        "print(json.dumps([cyclorat.__all__, [n for n in dir(cyclorat) if n[0] != '_'], "
        "sorted(set(ns) - {'__builtins__'})]))"
    )
    assert all_names == listed == starred == sorted(PUBLIC_NAMES)


def test_names_resolve_to_their_modules():
    import cyclorat
    from cyclorat import monotonicity, rationalization

    assert cyclorat.verify_rationalization is rationalization.verify_rationalization
    assert cyclorat.CMVerdict is monotonicity.CMVerdict
    assert cyclorat.lp.__name__ == "cyclorat.lp"
    with pytest.raises(AttributeError, match="no_such_name"):
        cyclorat.no_such_name
