"""Tests for the dense equality-form simplex and the support-scan oracle."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cyclorat.lp import _pivot, batch_support_values, solve_equality_lp

from oracles import enumerate_basic_values


def test_textbook_instance():
    # min -3x - 2y s.t. 2x + y + s1 = 10, x + y + s2 = 8, x + s3 = 4;
    # optimum at (x, y) = (2, 6) with value -18.
    c = np.array([-3.0, -2.0, 0.0, 0.0, 0.0])
    A = np.array(
        [
            [2.0, 1.0, 1.0, 0.0, 0.0],
            [1.0, 1.0, 0.0, 1.0, 0.0],
            [1.0, 0.0, 0.0, 0.0, 1.0],
        ]
    )
    b = np.array([10.0, 8.0, 4.0])
    res = solve_equality_lp(c, A, b)
    assert res.status == "optimal"
    assert_allclose(res.value, -18.0, atol=1e-12)
    assert_allclose(res.x[:2], [2.0, 6.0], atol=1e-12)


def test_infeasible_instance():
    # x1 + x2 = 1 and x1 + x2 = 2 cannot both hold.
    c = np.zeros(2)
    A = np.array([[1.0, 1.0], [1.0, 1.0]])
    b = np.array([1.0, 2.0])
    res = solve_equality_lp(c, A, b)
    assert res.status == "infeasible"
    assert math.isinf(res.value)


def test_unbounded_instance():
    # min -x1 with x1 - x2 = 0: push both variables up forever.
    c = np.array([-1.0, 0.0])
    A = np.array([[1.0, -1.0]])
    b = np.array([0.0])
    res = solve_equality_lp(c, A, b)
    assert res.status == "unbounded"


def test_redundant_rows():
    c = np.array([1.0, 2.0])
    A = np.array([[1.0, 1.0], [2.0, 2.0]])
    b = np.array([1.0, 2.0])
    res = solve_equality_lp(c, A, b)
    assert res.status == "optimal"
    assert_allclose(res.value, 1.0, atol=1e-12)


def _random_transport_instance(rng, rows, cols):
    # Mixture-style instances resembling the conjugate LP: columns are
    # simplex points, right-hand side a convex combination of them.
    G = rng.dirichlet(np.ones(rows), size=cols)  # cols points in rows-dim
    lam = rng.dirichlet(np.ones(cols))
    q = lam @ G
    A = np.vstack([G.T, np.ones((1, cols))])
    b = np.concatenate([q, [1.0]])
    c = rng.normal(size=cols)
    return c, A, b


def _start(A, basis):
    # A warm start as the conjugate batch hands it: the basis and B^+.
    return tuple(basis), np.linalg.pinv(A[:, list(basis)])


def test_simplex_matches_support_scan_on_random_instances():
    rng = np.random.default_rng(21)
    for _ in range(120):
        rows = int(rng.integers(2, 5))
        cols = int(rng.integers(2, 9))
        c, A, b = _random_transport_instance(rng, rows, cols)
        res = solve_equality_lp(c, A, b)
        oracle = enumerate_basic_values(c, A, b)
        assert res.status == "optimal"
        assert_allclose(res.value, oracle, atol=1e-9)


def test_simplex_detects_infeasible_mixtures():
    rng = np.random.default_rng(22)
    for _ in range(40):
        rows = int(rng.integers(2, 5))
        cols = int(rng.integers(2, 7))
        c, A, b = _random_transport_instance(rng, rows, cols)
        b[:-1] = rng.dirichlet(np.ones(rows)) * 2.0  # no longer sums to 1
        res = solve_equality_lp(c, A, b)
        oracle = enumerate_basic_values(c, A, b)
        assert (res.status == "infeasible") == math.isinf(oracle)


def test_batch_support_values_matches_single():
    rng = np.random.default_rng(23)
    cols = 7
    rows = 3
    G = rng.dirichlet(np.ones(rows), size=cols)
    A = np.vstack([G.T, np.ones((1, cols))])
    c = rng.normal(size=cols)
    queries = rng.dirichlet(np.ones(cols), size=25) @ G
    B = np.hstack([queries, np.ones((25, 1))])
    batch = batch_support_values(c, A, B)
    singles = np.array(
        [enumerate_basic_values(c, A, B[k]) for k in range(25)]
    )
    assert_allclose(batch, singles, atol=1e-10)


def test_batch_reports_infeasible_queries():
    rng = np.random.default_rng(24)
    G = rng.dirichlet(np.ones(2), size=4)
    A = np.vstack([G.T, np.ones((1, 4))])
    c = rng.normal(size=4)
    inside = rng.dirichlet(np.ones(4), size=3) @ G
    outside = np.array([[0.999, 0.001]])  # outside conv of interior points
    B = np.hstack([np.vstack([inside, outside]), np.ones((4, 1))])
    vals = batch_support_values(c, A, B)
    assert np.all(np.isfinite(vals[:3]))
    assert math.isinf(vals[3])


def test_rank_one_pivot_matches_row_loop():
    def loop_pivot(T, row, col):
        T[row] /= T[row, col]
        for r in range(T.shape[0]):
            if r != row and T[r, col] != 0.0:
                T[r] -= T[r, col] * T[row]

    rng = np.random.default_rng(25)
    for _ in range(200):
        m, n = (int(k) for k in rng.integers(2, 14, size=2))
        T = rng.normal(size=(m, n))
        T[rng.random((m, n)) < 0.3] = 0.0  # tableau columns are sparse
        row, col = int(rng.integers(m)), int(rng.integers(n))
        T[row, col] = rng.uniform(0.1, 3.0) * rng.choice([-1.0, 1.0])
        expected = T.copy()
        loop_pivot(expected, row, col)
        _pivot(T, row, col)
        assert np.array_equal(T, expected)


def test_optimal_result_carries_its_basis():
    rng = np.random.default_rng(26)
    for _ in range(40):
        c, A, b = _random_transport_instance(rng, int(rng.integers(2, 5)), int(rng.integers(2, 9)))
        res = solve_equality_lp(c, A, b)
        assert res.status == "optimal"
        cols = list(res.basis)
        assert len(set(cols)) == len(cols) <= A.shape[0]
        assert np.all(res.x[np.setdiff1d(np.arange(A.shape[1]), cols)] == 0.0)
        assert_allclose(A[:, cols] @ res.x[cols], b, atol=1e-12)


def test_warm_start_matches_cold_solve():
    # From the optimal basis of one right-hand side, dual pivots reach the
    # cold solve's value for another; the pivot count covers every phase.
    rng = np.random.default_rng(27)
    for _ in range(60):
        rows, cols = int(rng.integers(2, 5)), int(rng.integers(3, 9))
        c, A, b = _random_transport_instance(rng, rows, cols)
        first = solve_equality_lp(c, A, b)
        b2 = np.append(rng.dirichlet(np.ones(cols)) @ A[:-1].T, 1.0)
        cold = solve_equality_lp(c, A, b2)
        warm = solve_equality_lp(c, A, b2, start=_start(A, first.basis))
        assert warm.status == cold.status == "optimal"
        assert_allclose(warm.value, cold.value, atol=1e-12)
        assert_allclose(A @ warm.x, b2, atol=1e-12)
        assert cold.pivots > 0


def test_warm_start_outside_the_hull_is_infeasible():
    # The query sums to one but lies outside the columns' convex hull, so
    # a leaving row with no negative entry proves infeasibility.
    G = np.array([[0.2, 0.8], [0.5, 0.5], [0.7, 0.3]])
    A = np.vstack([G.T, np.ones((1, 3))])
    c = np.array([0.0, -1.0, 0.5])
    first = solve_equality_lp(c, A, np.array([0.4, 0.6, 1.0]))
    res = solve_equality_lp(c, A, np.array([0.9, 0.1, 1.0]), start=_start(A, first.basis))
    assert res.status == "infeasible"
    assert math.isinf(res.value)


def test_start_that_is_not_a_basis_stalls():
    # Two parallel columns cannot form the tableau, so the warm solve stops
    # without a pivot; the caller decides whether to solve cold, which
    # answers.
    c = np.array([1.0, 2.0, 0.0])
    A = np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
    b = np.array([1.0, 1.0])
    res = solve_equality_lp(c, A, b, start=_start(A, (0, 1)))
    assert (res.status, res.pivots) == ("stalled", 0) and math.isnan(res.value)
    assert_allclose(solve_equality_lp(c, A, b).value, 1.0, atol=1e-12)
