"""Tests for the package namespace and what importing it loads."""

import inspect
import json
import os
import subprocess
import sys

import pytest

#: The public names of ``cyclorat``, submodules included.
PUBLIC_NAMES = """
CMVerdict CustomTable CycleWitness CycloratError Dataset DuplicateValuesWarning
LuceExponential Menu NoProgressError NotCyclicallyMonotoneError PairwiseRegret
PreferenceModel PumSolution RationalizationReport RecordValidationError SalienceWeighted
TOL_CM TOL_OPT TOL_SIMPLEX TwoPointViolation ValidationError check_cyclic_monotonicity
check_two_point_monotonicity check_weak_stochastic_transitivity choice_probabilities
comp_dot compute_potentials conjugate_cost core cost_description cycle_sum errors
eval_preference evaluate_extension fitted_choice lp model_from_spec models monotonicity
normalize rationalization simplex_projection simulate_dataset smoothed_choices
softmax_probabilities validate_simplex verify_rationalization
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


def test_exception_hierarchy():
    # Each exception and warning class maps to its direct base.  A class of
    # its own carries data a caller reads; a failure with only a message
    # raises its base.
    from cyclorat import dataio, errors

    classes = {
        name: cls.__bases__
        for module in (errors, dataio)
        for name, cls in vars(module).items()
        if inspect.isclass(cls) and issubclass(cls, Exception) and cls.__module__ == module.__name__
    }
    assert classes == {
        "CycloratError": (Exception,),
        "ValidationError": (errors.CycloratError,),
        "RecordValidationError": (errors.ValidationError,),
        "ParseError": (errors.ValidationError,),
        "NotCyclicallyMonotoneError": (errors.CycloratError,),
        "NoProgressError": (errors.CycloratError,),
        "DuplicateValuesWarning": (UserWarning,),
    }


def test_data_carrying_errors_keep_their_data(tmp_path):
    import cyclorat as cy
    from cyclorat.dataio import ParseError, parse_datasets_csv

    with pytest.raises(cy.RecordValidationError) as err:
        cy.Dataset(cy.Menu("m", ("x", "y")), [[0.0, 1.0], [1.0, 0.0]], [[0.5, 0.5], [0.3, 0.3]])
    assert [(i, str(e)) for i, e in err.value.record_errors] == [
        (2, "entries sum to 0.6, expected 1 within 1e-09")
    ]
    path = tmp_path / "d.csv"
    path.write_text("menu_id,obs_id,alternative,value,prob\nm,1,x,0,0.5\nm,1,y,0\n")
    with pytest.raises(ParseError) as err:
        parse_datasets_csv(path)
    assert err.value.line == 3
    d = cy.Dataset(cy.Menu("m", ("x", "y")), [[1.0, 0.0], [0.0, 1.0]], [[0.3, 0.7], [0.6, 0.4]])
    with pytest.raises(cy.NotCyclicallyMonotoneError) as err:
        cy.compute_potentials(d)
    assert err.value.witness.indices == (1, 2)
