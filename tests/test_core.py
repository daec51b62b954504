"""Tests for domain types, simplex validation, and dataset assembly."""

import math
import re
import warnings

import numpy as np
import pytest

from cyclorat import (
    BadSumError,
    Dataset,
    DuplicateValuesWarning,
    EmptyDatasetError,
    LengthMismatchError,
    LuceExponential,
    Menu,
    NegativeEntryError,
    NonFiniteError,
    RecordValidationError,
    comp_dot,
    eval_preference,
    validate_dataset,
    validate_simplex,
)

from oracles import validate_dataset_per_record


class TestValidateSimplex:
    def test_already_on_simplex(self):
        p = validate_simplex([0.5, 0.5], 1e-9)
        assert p.tolist() == [0.5, 0.5]

    def test_bad_sum_rejected(self):
        with pytest.raises(BadSumError):
            validate_simplex([0.3, 0.3], 1e-9)

    def test_negative_dust_clamps_to_boundary(self):
        p = validate_simplex([1.0 + 5e-10, -5e-10], 1e-9)
        assert p.tolist() == [1.0, 0.0]

    def test_negative_entry_rejected(self):
        with pytest.raises(NegativeEntryError):
            validate_simplex([1.2, -0.2], 1e-9)

    def test_too_short(self):
        with pytest.raises(LengthMismatchError):
            validate_simplex([1.0], 1e-9)

    def test_non_finite(self):
        with pytest.raises(NonFiniteError):
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
        with pytest.raises(LengthMismatchError):
            Menu("m", ("only",))

    def test_menu_rejects_duplicate_labels(self):
        with pytest.raises(ValueError):
            Menu("m", ("x", "x"))

    def test_value_vector_rejects_non_finite(self):
        with pytest.raises(NonFiniteError):
            eval_preference(LuceExponential(), [1.0, np.inf])
        with pytest.raises(RecordValidationError) as err:
            validate_dataset("m", [[1.0, np.inf]], [[0.5, 0.5]])
        assert [(i, type(e)) for i, e in err.value.record_errors] == [(1, NonFiniteError)]

    def test_matrices_are_read_only_copies(self):
        values, probs = np.array([[1.0, 2.0]]), np.array([[0.5, 0.5]])
        d = Dataset(Menu("m", ("x", "y")), values, probs)
        values[0, 0] = probs[0, 0] = 0.0
        assert d.values_matrix.tolist() == [[1.0, 2.0]]
        assert d.probs_matrix.tolist() == [[0.5, 0.5]]
        for matrix in (d.values_matrix, d.probs_matrix):
            with pytest.raises(ValueError):
                matrix[0, 0] = 5.0

    def test_validated_matrices_are_not_copied_again(self, monkeypatch):
        # validate_dataset keeps the matrices it built; Dataset(...), which
        # would check and copy them again, is not called.  A caller's own
        # arrays are still copied.
        monkeypatch.setattr(Dataset, "__init__", lambda *args: pytest.fail("copied again"))
        values, probs = np.array([[1.0, 2.0]]), np.array([[0.5, 0.5]])
        d = validate_dataset("m", values, probs)
        assert not np.shares_memory(d.values_matrix, values)
        assert not np.shares_memory(d.probs_matrix, probs)
        assert d.values_matrix.tolist() == [[1.0, 2.0]] and d.probs_matrix.tolist() == [[0.5, 0.5]]
        assert not (d.values_matrix.flags.writeable or d.probs_matrix.flags.writeable)

    def test_observation_length_mismatch(self):
        menu = Menu("m", ("x", "y", "z"))
        with pytest.raises(LengthMismatchError, match="observation 1 has 2 entries, menu has 3"):
            Dataset(menu, [[1.0, 2.0, 3.0]], [[0.5, 0.5]])

    def test_dataset_checks_menu_size(self):
        menu = Menu("m", ("x", "y", "z"))
        with pytest.raises(LengthMismatchError, match="observation 2 has 2 entries, menu has 3"):
            Dataset(menu, [[1.0, 2.0, 3.0], [1.0, 2.0]], [[0.2, 0.3, 0.5]] * 2)
        with pytest.raises(EmptyDatasetError, match="dataset over menu 'm' has no observations"):
            Dataset(menu, [], [])

    def test_dataset_matrices(self):
        d = validate_dataset("m", [[0, 1], [2, 3]], [[0.5, 0.5], [0.25, 0.75]])
        assert d.values_matrix.tolist() == [[0, 1], [2, 3]]
        assert d.probs_matrix.tolist() == [[0.5, 0.5], [0.25, 0.75]]


class TestValidateDataset:
    def test_two_valid_records(self):
        d = validate_dataset("m", [[0.0, 0.0], [1.0, 0.0]], [[0.5, 0.5], [0.7, 0.3]])
        assert d.n == 2
        assert d.menu.id == "m"

    def test_row_counts_must_match(self):
        for validate in (validate_dataset, validate_dataset_per_record):
            with pytest.raises(LengthMismatchError, match="^2 value rows vs 1 probability rows$"):
                validate("m", [[0.0, 0.0], [1.0, 0.0]], [[0.5, 0.5]])

    def test_empty(self):
        with pytest.raises(EmptyDatasetError, match="^no records supplied$"):
            validate_dataset("m", [], [])

    def test_duplicate_values_warn(self):
        with pytest.warns(DuplicateValuesWarning):
            d = validate_dataset("m", [[1.0, 2.0], [1.0, 2.0]], [[0.5, 0.5], [0.6, 0.4]])
        assert d.n == 2

    def test_identical_records_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = validate_dataset("m", [[1.0, 2.0], [1.0, 2.0]], [[0.5, 0.5], [0.5, 0.5]])
        assert d.n == 2

    def test_record_errors_carry_indices(self):
        values = [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]]
        probs = [[0.5, 0.5], [0.9, 0.3], [1.2, -0.2]]
        with pytest.raises(RecordValidationError) as err:
            validate_dataset("m", values, probs)
        indices = [i for i, _ in err.value.record_errors]
        assert indices == [2, 3]

    def test_clamping_leaves_the_callers_matrix_alone(self):
        probs = np.array([[1.0, -1e-300]])
        d = validate_dataset("m", np.zeros((1, 2)), probs)
        assert d.probs_matrix.tolist() == [[1.0, 0.0]]
        assert probs.tolist() == [[1.0, -1e-300]]


def test_comp_dot_matches_fsum():
    rng = np.random.default_rng(0)
    x = rng.normal(size=50)
    y = rng.normal(size=50)
    assert comp_dot(x, y) == math.fsum((x * y).tolist())


def test_wrong_length_record_is_aggregated():
    with pytest.raises(RecordValidationError) as err:
        validate_dataset("m", [[0.0, 0.0], [1.0, 0.0, 2.0]], [[0.5, 0.5], [0.5, 0.25, 0.25]])
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
    for validate in (validate_dataset, validate_dataset_per_record):
        with pytest.raises(NonFiniteError, match=message):
            validate("m", values, probs)
    # At the bound the check's sums stay finite.
    scaled = (np.array(values) / np.max(np.abs(values)) * bound).tolist()
    assert validate_dataset("m", scaled, probs).values_matrix.max() == bound


def _random_records(rng: np.random.Generator, tol: float) -> tuple[list, list]:
    """Seeded value and probability rows mixing clean records with every kind
    of defect the validator screens."""
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
    return values_rows, probs_rows


def _outcome(validate, values, probs, **kwargs):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            d = validate("m", values, probs, **kwargs)
        except RecordValidationError as exc:
            result = [(i, type(e), str(e)) for i, e in exc.record_errors]
        except Exception as exc:
            result = (type(exc), str(exc))
        else:
            result = (
                d.menu,
                d.values_matrix.tobytes(),
                d.probs_matrix.tobytes(),
                (d.values_matrix.flags.writeable, d.probs_matrix.flags.writeable),
            )
    return result, [(w.category, str(w.message)) for w in caught]


def test_batched_validation_matches_per_record_oracle():
    rng = np.random.default_rng(2024)
    kinds = {"dataset": 0, "failures": 0, "warned": 0}
    for _ in range(600):
        tol = float(rng.choice([1e-9, 1e-6]))
        values, probs = _random_records(rng, tol)
        kwargs = {"tol": tol}
        if rng.random() < 0.5:
            kwargs["alternatives"] = tuple("xyzw"[: len(values[0])])
        got = _outcome(validate_dataset, values, probs, **kwargs)
        assert got == _outcome(validate_dataset_per_record, values, probs, **kwargs)
        kinds["dataset" if isinstance(got[0], tuple) and len(got[0]) == 4 else "failures"] += 1
        kinds["warned"] += bool(got[1])
    assert min(kinds.values()) >= 20, kinds


def test_signed_zero_value_rows_are_distinct():
    values, probs = [[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0]], [[0.5, 0.5], [0.6, 0.4], [0.7, 0.3]]
    with pytest.warns(DuplicateValuesWarning) as caught:
        d = validate_dataset("m", values, probs)
    assert [str(w.message) for w in caught] == [
        "observations 1 and 3 share a value vector but differ in probabilities"
    ]
    assert np.signbit(d.values_matrix[1, 0])


def test_subnormal_dust_is_clamped_as_by_validate_simplex():
    values, probs = [[0.0, 1.0], [1.0, 0.0]], [[1.0, -5e-324], [1.0, -1e-300]]
    d = validate_dataset("m", values, probs)
    assert d.probs_matrix.tolist() == [[1.0, 0.0], [1.0, 0.0]]
    assert not np.signbit(d.probs_matrix).any()
    assert _outcome(validate_dataset, values, probs) == _outcome(validate_dataset_per_record, values, probs)
