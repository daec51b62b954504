"""Tests for domain types, simplex validation, and dataset assembly."""

import math
import re
import warnings

import numpy as np
import pytest

from cyclorat import (
    Dataset,
    DuplicateValuesWarning,
    LuceExponential,
    Menu,
    RecordValidationError,
    ValidationError,
    check_weak_stochastic_transitivity,
    comp_dot,
    eval_preference,
    validate_simplex,
)

from conftest import menu_of
from oracles import validate_dataset_per_record


class TestValidateSimplex:
    def test_already_on_simplex(self):
        p = validate_simplex([0.5, 0.5], 1e-9)
        assert p.tolist() == [0.5, 0.5]

    def test_bad_sum_rejected(self):
        with pytest.raises(ValidationError, match="^entries sum to 0.6, expected 1 within 1e-09$"):
            validate_simplex([0.3, 0.3], 1e-9)

    def test_negative_dust_clamps_to_boundary(self):
        p = validate_simplex([1.0 + 5e-10, -5e-10], 1e-9)
        assert p.tolist() == [1.0, 0.0]

    def test_negative_entry_rejected(self):
        with pytest.raises(ValidationError, match="^entry -0.2 at position 1 is below -1e-09$"):
            validate_simplex([1.2, -0.2], 1e-9)

    def test_too_short(self):
        with pytest.raises(ValidationError, match="^probability vector needs at least two entries, got 1$"):
            validate_simplex([1.0], 1e-9)

    def test_non_finite(self):
        with pytest.raises(ValidationError, match="^probability vector contains non-finite entries$"):
            validate_simplex([np.nan, 1.0], 1e-9)

    def test_idempotent_on_random_inputs(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            size = int(rng.integers(2, 9))
            raw = rng.dirichlet(np.ones(size))
            raw = raw + rng.uniform(-1e-10, 1e-10, size)  # off-simplex dust
            first = validate_simplex(raw, 1e-9)
            second = validate_simplex(first, 1e-9)
            assert np.array_equal(first, second)

    def test_sum_is_one_at_bit_level(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            size = int(rng.integers(2, 12))
            raw = rng.dirichlet(np.ones(size)) + rng.uniform(-2e-10, 2e-10, size)
            p = validate_simplex(raw, 1e-9)
            assert abs(math.fsum(p.tolist()) - 1.0) <= 1e-15 * size

    def test_never_reorders(self):
        raw = [0.1, 0.6, 0.3]
        p = validate_simplex(raw, 1e-9)
        assert np.argmax(p) == 1
        assert np.argmin(p) == 0


class TestTypes:
    def test_menu_needs_two_alternatives(self):
        with pytest.raises(ValidationError, match="^menu 'm' needs at least two alternatives, got 1$"):
            Menu("m", ("only",))

    def test_menu_rejects_duplicate_labels(self):
        with pytest.raises(ValueError):
            Menu("m", ("x", "x"))

    def test_value_vector_rejects_non_finite(self):
        with pytest.raises(ValidationError, match="^value vector contains non-finite entries$"):
            eval_preference(LuceExponential(), [1.0, np.inf])
        with pytest.raises(RecordValidationError) as err:
            Dataset(menu_of(2), [[1.0, np.inf]], [[0.5, 0.5]])
        assert [(i, type(e), str(e)) for i, e in err.value.record_errors] == [
            (1, ValidationError, "value vector contains non-finite entries")
        ]

    def test_matrices_are_read_only_copies(self):
        values, probs = np.array([[1.0, 2.0]]), np.array([[0.5, 0.5]])
        d = Dataset(Menu("m", ("x", "y")), values, probs)
        values[0, 0] = probs[0, 0] = 0.0
        assert d.values_matrix.tolist() == [[1.0, 2.0]]
        assert d.probs_matrix.tolist() == [[0.5, 0.5]]
        for matrix in (d.values_matrix, d.probs_matrix):
            with pytest.raises(ValueError):
                matrix[0, 0] = 5.0

    def test_callers_arrays_are_copied_once_and_frozen(self, monkeypatch):
        # Each of the caller's arrays goes through one np.array call, and the
        # Dataset keeps and freezes what that call returned.
        values, probs = np.array([[1.0, 2.0]]), np.array([[0.5, 0.5]])
        copied, array = [], np.array
        monkeypatch.setattr(np, "array", lambda obj, *a, **kw: copied.append(obj) or array(obj, *a, **kw))
        d = Dataset(menu_of(2), values, probs)
        monkeypatch.undo()
        assert [id(obj) for obj in copied] == [id(values), id(probs)]
        assert d.values_matrix.flags.owndata and d.probs_matrix.flags.owndata
        assert not np.shares_memory(d.values_matrix, values)
        assert not np.shares_memory(d.probs_matrix, probs)
        assert d.values_matrix.tolist() == [[1.0, 2.0]] and d.probs_matrix.tolist() == [[0.5, 0.5]]
        assert not (d.values_matrix.flags.writeable or d.probs_matrix.flags.writeable)

    def test_observation_length_mismatch(self):
        menu = Menu("m", ("x", "y", "z"))
        with pytest.raises(RecordValidationError) as err:
            Dataset(menu, [[1.0, 2.0, 3.0]], [[0.5, 0.5]])
        assert str(err.value) == "1 invalid record(s): record 1: 2 probabilities against a menu of size 3"

    def test_dataset_checks_menu_size(self):
        menu = Menu("m", ("x", "y", "z"))
        with pytest.raises(RecordValidationError) as err:
            Dataset(menu, [[1.0, 2.0, 3.0], [1.0, 2.0]], [[0.2, 0.3, 0.5]] * 2)
        assert str(err.value) == "1 invalid record(s): record 2: 2 values against a menu of size 3"

    def test_dataset_matrices(self):
        d = Dataset(menu_of(2), [[0, 1], [2, 3]], [[0.5, 0.5], [0.25, 0.75]])
        assert d.values_matrix.tolist() == [[0, 1], [2, 3]]
        assert d.probs_matrix.tolist() == [[0.5, 0.5], [0.25, 0.75]]


class TestValidateDataset:
    def test_two_valid_records(self):
        d = Dataset(menu_of(2), [[0.0, 0.0], [1.0, 0.0]], [[0.5, 0.5], [0.7, 0.3]])
        assert d.n == 2
        assert d.menu.id == "m"

    def test_row_counts_must_match(self):
        for validate in (Dataset, validate_dataset_per_record):
            with pytest.raises(ValidationError, match="^2 value rows vs 1 probability rows$"):
                validate(menu_of(2), [[0.0, 0.0], [1.0, 0.0]], [[0.5, 0.5]])

    def test_empty(self):
        with pytest.raises(ValidationError, match="^no records supplied$"):
            Dataset(menu_of(2), [], [])

    def test_duplicate_values_warn(self):
        with pytest.warns(DuplicateValuesWarning):
            d = Dataset(menu_of(2), [[1.0, 2.0], [1.0, 2.0]], [[0.5, 0.5], [0.6, 0.4]])
        assert d.n == 2

    def test_identical_records_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = Dataset(menu_of(2), [[1.0, 2.0], [1.0, 2.0]], [[0.5, 0.5], [0.5, 0.5]])
        assert d.n == 2

    def test_record_errors_carry_indices(self):
        values = [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]]
        probs = [[0.5, 0.5], [0.9, 0.3], [1.2, -0.2]]
        with pytest.raises(RecordValidationError) as err:
            Dataset(menu_of(2), values, probs)
        indices = [i for i, _ in err.value.record_errors]
        assert indices == [2, 3]

    def test_clamping_leaves_the_callers_matrix_alone(self):
        probs = np.array([[1.0, -1e-300]])
        d = Dataset(menu_of(2), np.zeros((1, 2)), probs)
        assert d.probs_matrix.tolist() == [[1.0, 0.0]]
        assert probs.tolist() == [[1.0, -1e-300]]


def test_comp_dot_matches_fsum():
    rng = np.random.default_rng(0)
    x = rng.normal(size=50)
    y = rng.normal(size=50)
    assert comp_dot(x, y) == math.fsum((x * y).tolist())


def test_wrong_length_record_is_aggregated():
    with pytest.raises(RecordValidationError) as err:
        Dataset(menu_of(2), [[0.0, 0.0], [1.0, 0.0, 2.0]], [[0.5, 0.5], [0.5, 0.25, 0.25]])
    assert [i for i, _ in err.value.record_errors] == [2]


@pytest.mark.parametrize(
    "values, probs",
    [
        ([[8e307, -8e307], [-8e307, 8e307]], [[1.0, 0.0], [0.0, 1.0]]),
        ([[1e308, -1e308], [-1e308, 1e308]], [[0.3, 0.7], [0.6, 0.4]]),
    ],
)
def test_values_whose_cycle_sums_overflow_are_rejected(values, probs):
    bound = np.finfo(float).max / 64  # float max / (32 n) at n = 2
    message = re.escape(f"above float max / (32 n) = {bound:.6g}")
    for validate in (Dataset, validate_dataset_per_record):
        with pytest.raises(ValidationError, match=message):
            validate(menu_of(2), values, probs)
    # At the bound the check's sums stay finite.
    scaled = (np.array(values) / np.max(np.abs(values)) * bound).tolist()
    assert Dataset(menu_of(2), scaled, probs).values_matrix.max() == bound


def _random_records(rng: np.random.Generator, tol: float) -> tuple[list, list, int]:
    """Seeded value and probability rows mixing clean records with every kind
    of defect the validator screens, and the menu size they are meant for."""
    n, size = int(rng.integers(1, 10)), int(rng.integers(2, 5))
    values = rng.integers(-2, 3, size=(n, size)).astype(float)  # small grid: repeated rows
    probs = rng.dirichlet(np.ones(size), size=n)
    defect_rate = rng.choice([0.05, 0.2, 0.8])
    values_rows, probs_rows = [], []
    for k in range(n):
        v, p = values[k].tolist(), probs[k].copy()
        kind = int(rng.integers(1, 13)) if rng.random() < defect_rate else 0
        if kind == 1:  # negative dust within tolerance, down to the smallest subnormal
            dust = max(tol * 10.0 ** -rng.uniform(0.0, 320.0), 5e-324)
            p[1] += p[0] + dust if rng.random() < 0.5 else 0.0  # sum kept near one, or not
            p[0] = -dust
        elif kind == 2:  # an entry below -tol
            p[0] = -rng.uniform(2 * tol, 0.5)
        elif kind == 3:  # sum off by more than tol, or by less
            p = p * (1.0 + rng.choice([1e-3, 5e-10, 3e-16]))
        elif kind == 4:
            v[int(rng.integers(size))] = rng.choice([np.nan, np.inf, -np.inf])
        elif kind == 5:
            p[int(rng.integers(size))] = rng.choice([np.nan, np.inf, -np.inf])
        elif kind == 6:  # ragged lengths
            v = v + [0.0] if rng.random() < 0.5 else v[:-1]
        elif kind == 7:
            p = np.append(p, 0.0) if rng.random() < 0.5 else p[:-1]
        elif kind == 8 and k:  # an earlier value row, probabilities kept or not
            j = int(rng.integers(k))
            v = list(values_rows[j])
            if rng.random() < 0.5:
                p = np.array(probs_rows[j], dtype=float)
        elif kind == 9:  # signed zeros tell value rows apart
            v = [-0.0 if x == 0.0 else x for x in v]
        elif kind == 10:
            p = np.array([1e308] * size)
        elif kind == 11:  # on the simplex but entries above one
            p = np.zeros(size)
            p[0], p[1] = 1.5, -0.5
        elif kind == 12:
            p[0] = -0.0 if p[0] < 1e-3 else p[0]
        values_rows.append(v)
        probs_rows.append(p.tolist() if rng.random() < 0.5 else p)
    return values_rows, probs_rows, size


def _outcome(validate, menu, values, probs, **kwargs):
    # A Dataset must hold frozen matrices; the oracle returns (menu, values, probs).
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            d = validate(menu, values, probs, **kwargs)
        except RecordValidationError as exc:
            result = [(i, type(e), str(e)) for i, e in exc.record_errors]
        except Exception as exc:
            result = (type(exc), str(exc))
        else:
            if isinstance(d, Dataset):
                assert not (d.values_matrix.flags.writeable or d.probs_matrix.flags.writeable)
                d = d.menu, d.values_matrix, d.probs_matrix
            result = (d[0], d[1].tobytes(), d[2].tobytes())
    return result, [(w.category, str(w.message)) for w in caught]


def test_batched_validation_matches_per_record_oracle():
    rng = np.random.default_rng(2024)
    kinds = {"dataset": 0, "failures": 0, "warned": 0}
    for _ in range(600):
        tol = float(rng.choice([1e-9, 1e-6]))
        values, probs, size = _random_records(rng, tol)
        menu = Menu("m", tuple("xyzw"[:size])) if rng.random() < 0.5 else menu_of(size)
        got = _outcome(Dataset, menu, values, probs, tol=tol)
        assert got == _outcome(validate_dataset_per_record, menu, values, probs, tol=tol)
        kinds["dataset" if isinstance(got[0], tuple) and len(got[0]) == 3 else "failures"] += 1
        kinds["warned"] += bool(got[1])
    assert min(kinds.values()) >= 20, kinds


def test_signed_zero_value_rows_are_distinct():
    values, probs = [[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0]], [[0.5, 0.5], [0.6, 0.4], [0.7, 0.3]]
    with pytest.warns(DuplicateValuesWarning) as caught:
        d = Dataset(menu_of(2), values, probs)
    assert [str(w.message) for w in caught] == [
        "observations 1 and 3 share a value vector but differ in probabilities"
    ]
    assert np.signbit(d.values_matrix[1, 0])


def test_subnormal_dust_is_clamped_as_by_validate_simplex():
    values, probs = [[0.0, 1.0], [1.0, 0.0]], [[1.0, -5e-324], [1.0, -1e-300]]
    d = Dataset(menu_of(2), values, probs)
    assert d.probs_matrix.tolist() == [[1.0, 0.0], [1.0, 0.0]]
    assert not np.signbit(d.probs_matrix).any()
    assert _outcome(Dataset, d.menu, values, probs) == _outcome(validate_dataset_per_record, d.menu, values, probs)


@pytest.mark.parametrize(
    "probs, errors",
    [
        ([[2.0, -1.0], [np.nan, 0.5]], [
            (1, "entry -1.0 at position 1 is below -1e-09"),
            (2, "probability vector contains non-finite entries"),
        ]),
        ([[0.5, 0.5], [0.3, 0.3]], [(2, "entries sum to 0.6, expected 1 within 1e-09")]),
        ([[0.5, 0.5], [-0.5, 1.5]], [(2, "entry -0.5 at position 0 is below -1e-09")]),
    ],
    ids=["negative-and-nan", "bad-sum", "entry-above-one"],
)
def test_dataset_rejects_rows_off_the_simplex(probs, errors):
    with pytest.raises(RecordValidationError) as err:
        Dataset(menu_of(2), [[0.0, 1.0], [1.0, 0.0]], probs)
    assert [(i, str(e)) for i, e in err.value.record_errors] == errors


def test_column_permuted_and_fortran_matrices_are_accepted():
    # The duplicate screen keys rows by their bytes, which needs C-ordered
    # matrices: the Dataset's own copies are C-ordered whatever the input.
    rng = np.random.default_rng(8)
    V, P = rng.uniform(-3.0, 3.0, (6, 4)), rng.dirichlet(np.ones(4), 6)
    V[3] = V[1]
    perm = [2, 0, 3, 1]
    menu = menu_of(4)
    permuted = Menu("m", tuple(menu.alternatives[k] for k in perm))
    for m, values, probs in [
        (permuted, V[:, perm], P[:, perm]),
        (menu, np.asfortranarray(V), np.asfortranarray(P)),
    ]:
        with pytest.warns(DuplicateValuesWarning, match="^observations 2 and 4 share a value vector"):
            d = Dataset(m, values, probs)
        assert d.values_matrix.flags.c_contiguous and d.probs_matrix.flags.c_contiguous
        assert np.array_equal(d.values_matrix, values) and np.array_equal(d.probs_matrix, probs)


@pytest.mark.parametrize(
    "call",
    [
        lambda: validate_simplex([0.3, 0.3], math.nan),
        lambda: Dataset(menu_of(2), [[0, 1], [1, 0]], [[0.3, 0.3], [2.0, -1.0]], tol=math.nan),
        lambda: check_weak_stochastic_transitivity({("x", "y"): 0.6, ("y", "x"): 0.6}, math.nan),
    ],
    ids=["validate_simplex", "Dataset", "check_weak_stochastic_transitivity"],
)
def test_nan_tol_is_rejected(call):
    with pytest.raises(ValueError, match="^tol must not be NaN$"):
        call()
