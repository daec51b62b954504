"""Tests for preference families, normalization, and simulation."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cyclorat import (
    CustomTable,
    CycloratError,
    LuceExponential,
    PairwiseRegret,
    SalienceWeighted,
    ValidationError,
    choice_probabilities,
    eval_preference,
    model_from_spec,
    normalize,
    simulate_dataset,
)
from cyclorat.models import _softplus

from conftest import menu_of


def vv(*entries):
    return np.array(entries, dtype=float)


class TestEvalPreference:
    def test_luce_at_zero(self):
        assert eval_preference(LuceExponential(), vv(0, 0)).tolist() == [1.0, 1.0]

    def test_luce_exact_exponentials(self):
        t = eval_preference(LuceExponential(), vv(math.log(3), 0))
        assert_allclose(t, [3.0, 1.0], rtol=1e-15)

    def test_pairwise_regret_closed_form(self):
        # Independent scalar arithmetic for theta=1, r=tanh, v=(1, 0):
        # T_1 = exp(1 + tanh(1)), T_2 = exp(0 + tanh(-1)).
        expected = [math.exp(1 + math.tanh(1.0)), math.exp(math.tanh(-1.0))]
        t = eval_preference(PairwiseRegret(theta=1.0), vv(1, 0))
        assert_allclose(t, expected, rtol=1e-15)

    def test_salience_closed_form(self):
        # sigma=0.5, v=(1, 0): mean=0.5, both weights 1 + 0.5*0.5/(1+|v_a|+0.5).
        sigma = 0.5
        w1 = 1 + sigma * 0.5 / (1 + 1 + 0.5)
        w2 = 1 + sigma * 0.5 / (1 + 0 + 0.5)
        expected = [math.log(1 + math.e) * w1, math.log(2.0) * w2]
        t = eval_preference(SalienceWeighted(sigma=sigma), vv(1, 0))
        assert_allclose(t, expected, rtol=1e-14)

    def test_overflow_guard_keeps_probabilities(self):
        # Raw exp would overflow; the shared shift keeps normalization exact.
        p = choice_probabilities(LuceExponential(), vv(800.0, 799.0))
        q = choice_probabilities(LuceExponential(), vv(1.0, 0.0))
        assert_allclose(p, q, atol=1e-15)

    def test_underflow_guard_keeps_probabilities(self):
        # Raw exp would underflow to all zero.  Luce's exponents shift to
        # exactly (0, -1); the regret terms round against -800 first.
        p = choice_probabilities(LuceExponential(), vv(-800.0, -801.0))
        assert p.tobytes() == choice_probabilities(LuceExponential(), vv(0.0, -1.0)).tobytes()
        p = choice_probabilities(PairwiseRegret(), vv(-800.0, -801.0))
        assert_allclose(p, choice_probabilities(PairwiseRegret(), vv(0.0, -1.0)), rtol=0, atol=1e-13)

    @pytest.mark.parametrize(
        "rows, error",
        [
            ((((0.0, 1.0), (1.0,)),), "^table row has mismatched values/strengths lengths$"),
            ((((0.0, 1.0), (1.0, -1.0)),), "^table strengths must be non-negative$"),
        ],
        ids=["mismatched", "negative"],
    )
    def test_custom_table_rejects_bad_rows(self, rows, error):
        with pytest.raises(ValidationError, match=error):
            CustomTable(rows)

    def test_non_finite_strengths_rejected(self):
        # sigma * |v_a - mean| overflows to inf at these values, and 0 * inf
        # is NaN, without a numpy warning (the suite turns warnings into errors).
        model = SalienceWeighted(sigma=1e308)
        with pytest.raises(CycloratError, match="^model produced negative or non-finite"):
            eval_preference(model, vv(1e300, 0.0, -1e300))

    def test_custom_table_lookup_and_miss(self):
        table = CustomTable((((0.0, 0.0), (0.5, 0.5)), ((1.0, 0.0), (0.9, 0.1))))
        assert eval_preference(table, vv(1, 0)).tolist() == [0.9, 0.1]
        with pytest.raises(CycloratError, match=r"^value vector \[2.0, 0.0\] is not listed in the table$"):
            eval_preference(table, vv(2, 0))

    def test_salience_rejects_negative_sigma(self):
        with pytest.raises(ValidationError, match="^sigma must be non-negative, got -0.1$"):
            SalienceWeighted(sigma=-0.1)


class TestNormalize:
    def test_symmetric(self):
        assert normalize([2.0, 2.0]).tolist() == [0.5, 0.5]

    def test_direct_ratio(self):
        assert normalize([3.0, 1.0]).tolist() == [0.75, 0.25]

    def test_negative_strength_rejected(self):
        with pytest.raises(CycloratError, match="^strengths must be finite and non-negative$"):
            normalize([1.0, -1.0])

    def test_zero_strength_rejected(self):
        with pytest.raises(CycloratError, match="^cannot normalize an identically zero strength vector$"):
            normalize([0.0, 0.0])

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            size = int(rng.integers(2, 9))
            t = rng.uniform(0.1, 5.0, size)
            c = float(rng.uniform(1e-3, 1e3))
            base = normalize(t)
            scaled = normalize(c * t)
            assert np.max(np.abs(scaled - base)) <= 1e-15 * np.max(base)

    def test_ordinal_preservation(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            size = int(rng.integers(2, 7))
            t = rng.uniform(0.0, 3.0, size)
            if not np.any(t > 0):
                continue
            p = normalize(t)
            order_t = np.argsort(t, kind="stable")
            order_p = np.argsort(p, kind="stable")
            assert order_t.tolist() == order_p.tolist()


@pytest.mark.parametrize(
    "model",
    [LuceExponential(), PairwiseRegret(theta=1.5), SalienceWeighted(sigma=0.8)],
)
def test_continuity_probe(model):
    # |normalize(eval(v + delta)) - normalize(eval(v))| should shrink with
    # delta; checked at delta = 1e-6 against a generous Lipschitz-style bound.
    rng = np.random.default_rng(5)
    for _ in range(25):
        size = int(rng.integers(2, 6))
        v = rng.uniform(-3, 3, size)
        delta = rng.uniform(-1e-6, 1e-6, size)
        base = choice_probabilities(model, v)
        moved = choice_probabilities(model, v + delta)
        assert np.max(np.abs(moved - base)) <= 50.0 * np.max(np.abs(delta))


class TestSimulateDataset:
    def test_luce_two_point_design(self):
        d = simulate_dataset(LuceExponential(), menu_of(2), [[0, 0], [1, 0]])
        assert d.n == 2
        assert_allclose(d.probs_matrix[0], [0.5, 0.5], atol=1e-15)
        # e/(1+e) and 1/(1+e) by scalar arithmetic.
        expected = [math.e / (1 + math.e), 1 / (1 + math.e)]
        assert_allclose(d.probs_matrix[1], expected, atol=1e-15)

    def test_empty_design(self):
        with pytest.raises(ValidationError, match="^simulation design is empty$"):
            simulate_dataset(LuceExponential(), menu_of(2), [])

    def test_values_the_check_rejects_come_before_probabilities(self):
        # Values above float max / (32 n) raise the check's error before any
        # exp() runs: numpy's overflow warning would be an error here.
        with pytest.raises(ValidationError, match=r"^menu 'm' has values up to 1e\+308 in magnitude"):
            simulate_dataset(LuceExponential(), menu_of(2), [[1e308, -1e308]])

    def test_custom_table_echoes_rows(self):
        table = CustomTable((((0.0, 0.0), (0.5, 0.5)), ((1.0, 0.0), (0.9, 0.1))))
        d = simulate_dataset(table, menu_of(2), [[0, 0], [1, 0]])
        assert_allclose(d.probs_matrix, [[0.5, 0.5], [0.9, 0.1]], atol=1e-15)


class TestModelFromSpec:
    def test_families(self):
        assert isinstance(model_from_spec("luce_exponential"), LuceExponential)
        m = model_from_spec("pairwise_regret", {"theta": 2.5})
        assert m.theta == 2.5
        m = model_from_spec("salience_weighted", {"sigma": 0.25})
        assert m.sigma == 0.25

    def test_custom_table_spec(self):
        m = model_from_spec(
            "custom_table",
            {"rows": [{"values": [0, 0], "probs": [0.5, 0.5]}]},
        )
        assert isinstance(m, CustomTable)

    def test_unknown_family(self):
        with pytest.raises(ValidationError, match="^unknown family 'nope'"):
            model_from_spec("nope")


def test_softplus_is_accurate_across_regimes():
    for x in (-40.0, -5.0, 0.0, 5.0, 40.0):
        expected = math.log1p(math.exp(-abs(x))) + max(x, 0.0)
        assert_allclose(_softplus(np.array([x]))[0], expected, rtol=1e-14)


def test_normalize_survives_huge_strengths():
    p = normalize([1e308, 1e308])
    assert p.tolist() == [0.5, 0.5]
    p = normalize([3e307, 1e307])
    assert_allclose(p, [0.75, 0.25], atol=1e-15)


def test_normalize_strictly_positive_input_gives_strictly_positive_output():
    rng = np.random.default_rng(6)
    for _ in range(50):
        size = int(rng.integers(2, 9))
        t = rng.uniform(1e-9, 10.0, size)
        assert np.all(normalize(t) > 0)


def test_salience_underflow_guard_preserves_ratios():
    # All values far below the exp floor: strengths are rescaled, the
    # normalized probabilities still follow the softplus ~ exp asymptotics.
    p = choice_probabilities(SalienceWeighted(sigma=0.0), vv(-801.0, -802.0))
    q = choice_probabilities(SalienceWeighted(sigma=0.0), vv(-1.0, -2.0))
    # softplus(-801)/softplus(-802) ~ e, same as exp(-1)/exp(-2) up to the
    # softplus curvature at mild arguments; only sanity-check ordering and
    # positivity here.
    assert p[0] > p[1] > 0
    assert q[0] > q[1] > 0
