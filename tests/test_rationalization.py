"""Tests for potentials, the max-affine extension, conjugate costs, and solvers."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cyclorat import (
    Dataset,
    LuceExponential,
    NoProgressError,
    NotCyclicallyMonotoneError,
    ValidationError,
    check_cyclic_monotonicity,
    choice_probabilities,
    compute_potentials,
    conjugate_cost,
    cost_description,
    fitted_choice,
    smoothed_choices,
    verify_rationalization,
)
from cyclorat import monotonicity, rationalization
from cyclorat.core import comp_dot
from cyclorat.lp import batch_support_values, solve_equality_lp
from cyclorat.monotonicity import edge_weights
from cyclorat.rationalization import (
    _conjugate_many,
    _max_affine_data,
    _neg_entropy,
    simplex_projection,
    softmax_probabilities,
)

from conftest import benchmark_lowdim_menu, luce_dataset, menu_of, pum_dataset
from oracles import (
    cold_conjugate_values,
    conjugate_exact_2alt,
    conjugate_grid_2alt,
    dense_verify,
    enumerate_basic_values,
    karp_min_mean,
)


def _quadratic_cost(p) -> float:
    # C(p) = 0.5 * sum_a p_a^2, compensated.
    return 0.5 * math.fsum((np.asarray(p) * p).tolist())


class TestComputePotentials:
    def test_single_observation(self):
        d = Dataset(menu_of(2), [[1, 2]], [[0.4, 0.6]])
        phi = compute_potentials(d)
        assert not phi.flags.writeable
        assert phi.tolist() == check_cyclic_monotonicity(d).potentials.tolist() == [0.0]

    def test_softmax_fixture(self, softmax_fixture):
        # Policy iteration holds both edges of the two-cycle with margin
        # equal to its mean 0.11553: phi_2 = <p1, v2 - v1> + 0.11553 over
        # the base, which stays at 0.
        phi = compute_potentials(softmax_fixture)
        assert_allclose(phi, [0.0, 0.61553], atol=1e-15)
        vertices = cost_description(phi, softmax_fixture)["vertices"]
        assert vertices == softmax_fixture.probs_matrix.tolist()

    def test_violation_raises_with_witness(self, violation_fixture):
        with pytest.raises(NotCyclicallyMonotoneError) as err:
            compute_potentials(violation_fixture)
        assert err.value.witness == (1, 2)

    @pytest.mark.parametrize("k", [1, 3])
    def test_rounding_cycle_needs_only_rounding_slack(self, k):
        # Projection choices repeat probability vectors, so these menus have
        # cycles of exact mean 0; at seed 7 of the benchmark rounding leaves
        # one at -4e-16 in W.  The fit must settle with a slack the size of
        # that rounding, not land at -tol.
        d = benchmark_lowdim_menu(7, k)
        W = edge_weights(d)
        assert karp_min_mean(W)[0] < 0
        phi = compute_potentials(d, 1e-9)
        assert np.min(phi[None, :] - phi[:, None] + W) >= -1e-13

    def test_subgradient_consistency_on_generated_data(self):
        rng = np.random.default_rng(31)
        for kind in ("negentropy", "quadratic"):
            for _ in range(8):
                d = pum_dataset(kind, rng, int(rng.integers(2, 12)), int(rng.integers(2, 6)))
                phi = compute_potentials(d)
                V, G = d.values_matrix, d.probs_matrix
                for i in range(d.n):
                    for j in range(d.n):
                        lower = phi[i] + comp_dot(G[i], V[j] - V[i])
                        assert phi[j] >= lower - 1e-9


def _extension(phi, d, v) -> float:
    # f(v), the fitted max-affine extension: the value fitted_choice returns.
    return fitted_choice(phi, d, v)[1]


class TestEvaluateExtension:
    def test_fixture_values(self, softmax_fixture):
        phi = compute_potentials(softmax_fixture)
        # At v1 the candidate pieces are 0 and 0.61553 - 0.73106 < 0.
        assert _extension(phi, softmax_fixture, [0.0, 0.0]) == 0.0
        # At v2 the pieces are 0.5 and 0.61553.
        assert_allclose(_extension(phi, softmax_fixture, [1.0, 0.0]), 0.61553, atol=1e-15)

    def test_base_point_is_zero(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            d = luce_dataset(rng, int(rng.integers(1, 9)), int(rng.integers(2, 5)))
            phi = compute_potentials(d)
            base_v = d.values_matrix[0]
            assert_allclose(_extension(phi, d, base_v), 0.0, atol=1e-12)

    def test_interpolates_potentials_and_dominates_pieces(self):
        rng = np.random.default_rng(33)
        d = luce_dataset(rng, 7, 3)
        phi = compute_potentials(d)
        V, G = d.values_matrix, d.probs_matrix
        for j in range(d.n):
            fj = _extension(phi, d, V[j])
            assert phi[j] <= fj <= phi[j] + 1e-11  # piece j is phi_j exactly at v^j
            for i in range(d.n):
                assert fj >= phi[i] + comp_dot(G[i], V[j] - V[i]) - 1e-12

    def test_convex_in_v(self):
        rng = np.random.default_rng(34)
        d = luce_dataset(rng, 5, 3)
        phi = compute_potentials(d)
        for _ in range(50):
            a = rng.uniform(-5, 5, 3)
            b = rng.uniform(-5, 5, 3)
            lam = float(rng.uniform())
            mixed = _extension(phi, d, lam * a + (1 - lam) * b)
            chord = lam * _extension(phi, d, a) + (1 - lam) * _extension(phi, d, b)
            assert mixed <= chord + 1e-10


class TestQueryPoints:
    # The fit's readers take points over its menu, here of three
    # alternatives; any other point is a ValidationError naming it.
    @pytest.mark.parametrize(
        "read, point, error",
        [
            (conjugate_cost, [0.5, 0.5], "^point p has 2 entries against a menu of size 3$"),
            (conjugate_cost, [math.nan, 0.5, 0.5], "^point p contains non-finite entries$"),
            (conjugate_cost, [[0.5, 0.25, 0.25]], r"^point p must be one-dimensional, got shape \(1, 3\)$"),
            (fitted_choice, [0.0, 1.0], "^value vector has 2 entries against a menu of size 3$"),
            (fitted_choice, [math.nan, 0.0, 1.0], "^value vector contains non-finite entries$"),
            (fitted_choice, np.zeros((3, 3)), r"^value vector must be one-dimensional, got shape \(3, 3\)$"),
            (
                lambda phi, d, rows: smoothed_choices(phi, d, 0.1, rows),
                [[0.0, 1.0, 2.0], [0.0, 1.0]],
                "^value vector has 2 entries against a menu of size 3$",
            ),
        ],
        ids=[
            "conjugate-short", "conjugate-nan", "conjugate-2d", "choice-short", "choice-nan",
            "choice-2d", "smoothed-short-row",
        ],
    )
    def test_point_off_the_menu_is_rejected(self, read, point, error):
        d = luce_dataset(np.random.default_rng(36), 6, 3)
        with pytest.raises(ValidationError, match=error):
            read(compute_potentials(d), d, point)


class TestConjugateCost:
    def test_fixture_values(self, softmax_fixture):
        phi = compute_potentials(softmax_fixture)
        assert_allclose(conjugate_cost(phi, softmax_fixture, [0.5, 0.5]), 0.0, atol=1e-12)
        assert_allclose(
            conjugate_cost(phi, softmax_fixture, [0.73106, 0.26894]), 0.11553, atol=1e-12
        )
        assert math.isinf(conjugate_cost(phi, softmax_fixture, [0.9, 0.1]))

    def test_enumeration_and_simplex_routes_agree(self):
        rng = np.random.default_rng(35)
        d = luce_dataset(rng, 9, 3)
        phi = compute_potentials(d)
        G, c = _max_affine_data(phi, d)
        A = np.vstack([G.T, np.ones((1, d.n))])
        for _ in range(25):
            q = rng.dirichlet(np.ones(d.n)) @ G
            b = np.concatenate([q, [1.0]])
            via_enum = enumerate_basic_values(c, A, b)
            via_simplex = solve_equality_lp(c, A, b)
            assert via_simplex.status == "optimal"
            assert_allclose(via_enum, via_simplex.value, atol=1e-10)

    @pytest.mark.parametrize("n, size", [(6, 3), (12, 4), (25, 4), (25, 10), (150, 4), (150, 10)])
    def test_single_route_matches_references(self, n, size):
        # One batch of vertices, mixtures, the simplex corners (outside
        # conv{g_i} for Luce data) and half a vertex (off the simplex); the
        # last two kinds must come back +inf.  The support scan is the
        # reference up to n = 12, per-query simplex solves beyond.
        rng = np.random.default_rng(36 + n + size)
        d = luce_dataset(rng, n, size)
        G, c = _max_affine_data(compute_potentials(d), d)
        Q = np.vstack([G, rng.dirichlet(np.ones(n), size=40) @ G, np.eye(size), 0.5 * G[:1]])
        values = _conjugate_many(G, c, Q)
        assert np.all(np.isinf(values[-size - 1 :]))
        assert np.all(np.isfinite(values[: -size - 1]))
        A = np.vstack([G.T, np.ones((1, n))])
        B = np.hstack([Q, np.ones((Q.shape[0], 1))])
        if n <= 12:
            expected = batch_support_values(c, A, B)
        else:
            expected = np.array([solve_equality_lp(c, A, b).value for b in B])
        assert_allclose(values, expected, atol=1e-9)

    def test_basis_reuse_needs_dual_feasibility(self, monkeypatch):
        # The chord basis (g_0, g_2) is feasible on the whole segment and
        # solves B'y = c_B exactly, but prices the low middle vertex at -1.
        # Reused, it would put every point of the segment at 0.
        G = np.array([[0.1, 0.9], [0.5, 0.5], [0.9, 0.1]])
        c = np.array([0.0, -1.0, 0.0])
        Q = np.array([[0.5, 0.5], [0.3, 0.7], [0.7, 0.3]])
        honest = rationalization.solve_equality_lp

        def chord_basis(*args, **kwargs):
            return dataclasses.replace(honest(*args, **kwargs), basis=(0, 2))

        monkeypatch.setattr(rationalization, "solve_equality_lp", chord_basis)
        assert_allclose(_conjugate_many(G, c, Q), [-1.0, -0.5, -0.5], atol=1e-12)

    def test_dust_basis_is_not_reused(self):
        # At seed 3 of the benchmark, menu lowdim_02, a phase 1 that pivoted
        # on dust in the redundant sum-to-one row returned a basis of rank 4
        # of 5 for vertex 130, which, reused without the dual certificate,
        # mispriced vertex 132.  Every batch value must equal its cold solve.
        d = benchmark_lowdim_menu(3, 2)
        phi = compute_potentials(d)
        G, c = _max_affine_data(phi, d)
        Q = np.vstack([G, np.random.default_rng(0).dirichlet(np.ones(d.n), size=100) @ G])
        values = _conjugate_many(G, c, Q)
        A = np.vstack([G.T, np.ones((1, d.n))])
        expected = np.array([solve_equality_lp(c, A, np.append(q, 1.0)).value for q in Q])
        assert_allclose(values, expected, atol=1e-9)
        assert_allclose(values[131], 2.7965869, atol=1e-8)

    def test_lp_work_is_scale_free(self):
        # Values and tolerances scaled by 2^k scale the potentials, the
        # costs and the gaps exactly, and the LP sees the same problem at
        # every k: the same counters and, divided by 2^k, the same gaps.
        V = np.random.default_rng(0).uniform(-3.0, 3.0, (200, 10))
        P = np.exp(V) / np.exp(V).sum(axis=1, keepdims=True)
        runs = set()
        for k in (-40, -20, 0, 20, 40):
            d = Dataset(menu_of(10), (V * 2.0**k).tolist(), P.tolist())
            report = verify_rationalization(d, compute_potentials(d, 1e-9 * 2.0**k), 2e-8 * 2.0**k)
            assert report.passed
            runs.add((tuple(report.lp.items()), (report.optimality_gaps / 2.0**k).tobytes()))
        assert len(runs) == 1

    @pytest.mark.parametrize("n, size", [(25, 4), (25, 10), (200, 4), (200, 10)])
    def test_warm_starts_match_cold_solves(self, n, size):
        # One cold solve, then every unanswered query starts from a
        # certified basis; the values match per-query cold solves.
        rng = np.random.default_rng(80 + n + size)
        d = pum_dataset("negentropy", rng, n, size)
        G, c = _max_affine_data(compute_potentials(d), d)
        Q = rng.dirichlet(np.ones(n), size=1000) @ G
        counts = dict.fromkeys(rationalization.LP_COUNTERS, 0)
        values = _conjugate_many(G, c, Q, counts)
        A = np.vstack([G.T, np.ones((1, n))])
        expected = cold_conjugate_values(c, A, np.hstack([Q, np.ones((1000, 1))]))
        assert_allclose(values, expected, rtol=0, atol=1e-12)
        assert counts["cold_solves"] == 1 and counts["rejected_bases"] == 0
        assert counts["warm_solves"] + counts["reused"] == 999

    def test_warm_start_outside_the_hull_is_infinite(self):
        # The corner e_1 lies outside conv{g_i} for softmax data; it starts
        # warm from the first query's basis and comes back +inf.
        d = pum_dataset("negentropy", np.random.default_rng(81), 12, 3)
        G, c = _max_affine_data(compute_potentials(d), d)
        Q = np.vstack([G.mean(axis=0), np.eye(3)[:1]])
        counts = dict.fromkeys(rationalization.LP_COUNTERS, 0)
        values = _conjugate_many(G, c, Q, counts)
        assert np.isfinite(values[0]) and math.isinf(values[1])
        assert (counts["cold_solves"], counts["warm_solves"]) == (1, 1)

    def test_uncertified_warm_basis_falls_back_to_cold(self, monkeypatch):
        # The query at 0.7 starts warm from the basis (g_0, g_1) of the
        # query at 0.3.  A warm result carrying the chord basis (g_0, g_2)
        # and its value 0 fails the certificate, so the query is solved
        # cold at -0.5 and the chord answers nothing.
        G = np.array([[0.1, 0.9], [0.5, 0.5], [0.9, 0.1]])
        c = np.array([0.0, -1.0, 0.0])
        Q = np.array([[0.3, 0.7], [0.7, 0.3]])
        honest = rationalization.solve_equality_lp

        def chord_warm(*args, start=None, **kwargs):
            res = honest(*args, start=start, **kwargs)
            return dataclasses.replace(res, value=0.0, basis=(0, 2)) if start else res

        monkeypatch.setattr(rationalization, "solve_equality_lp", chord_warm)
        counts = dict.fromkeys(rationalization.LP_COUNTERS, 0)
        assert_allclose(_conjugate_many(G, c, Q, counts), [-0.5, -0.5], atol=1e-12)
        assert (counts["cold_solves"], counts["warm_solves"], counts["rejected_bases"]) == (2, 1, 1)

    @pytest.mark.parametrize(
        "menu, step, most, total",
        [
            (lambda: benchmark_lowdim_menu(3, 2), 1, 60, None),
            (lambda: pum_dataset("negentropy", np.random.default_rng(0), 200, 10), 10, 382, 3191),
        ],
        ids=["lowdim-3-2", "softmax-200-10"],
    )
    def test_vertex_solves_are_short_and_certified(self, menu, step, most, total):
        # Pivot counts, not timings: Bland's rule after m zero-length pivots
        # ends the degenerate runs that once took up to 545 pivots on the
        # first menu and 1,178 (13,510 in all) on the second.  Phase 1 once
        # also pivoted on dust (3.9e-11 at vertex 51 of the first menu, and
        # 8 of these 20 vertices of the second) in the redundant sum-to-one
        # row, leaving rank-deficient bases; it now compares entries with
        # the tableau's scale, so every basis has full rank and passes the
        # dual certificate.
        d = menu()
        G, c = _max_affine_data(compute_potentials(d), d)
        A = np.vstack([G.T, np.ones((1, d.n))])
        pivots = []
        for g in G[::step]:
            res = solve_equality_lp(c, A, np.append(g, 1.0))
            pivots.append(res.pivots)
            cols = list(res.basis)
            AB, cB = A[:, cols], c[cols]
            assert np.linalg.matrix_rank(AB) == len(cols)
            y = np.linalg.pinv(AB).T @ cB
            assert np.abs(AB.T @ y - cB).max() <= 1e-9 * (1.0 + np.abs(cB).max())
            assert (c - A.T @ y).min() >= -1e-9
        assert max(pivots) <= most
        assert total is None or sum(pivots) <= total

    @pytest.mark.parametrize("kind", ["softmax-200-10", "projection", "luce-duplicated-rows"])
    def test_warm_starts_take_the_certificates_inverse(self, kind, monkeypatch):
        # Each warm start reuses the B^+ its basis's certificate computed.
        # The values and counters equal those of warm starts that compute
        # B^+ again from the same columns.
        rng = np.random.default_rng(85)
        if kind == "softmax-200-10":
            d = pum_dataset("negentropy", rng, 200, 10)
        elif kind == "projection":
            d = pum_dataset("quadratic", rng, 150, 4)
        else:
            luce = luce_dataset(rng, 60, 3)
            k = rng.choice(luce.n, 20, replace=False)
            d = Dataset(luce.menu, np.vstack([luce.values_matrix, luce.values_matrix[k]]).tolist(),
                        np.vstack([luce.probs_matrix, luce.probs_matrix[k]]).tolist())
        G, c = _max_affine_data(compute_potentials(d), d)
        Q = rng.dirichlet(np.ones(d.n), size=1000) @ G
        solve, handed = rationalization.solve_equality_lp, []

        def keep(*args, start=None, inverse=None):
            if start:
                handed.append(inverse is not None)
            return solve(*args, start=start, inverse=inverse)

        def drop(*args, start=None, inverse=None):
            return solve(*args, start=start)

        runs = []
        for route in (keep, drop):
            monkeypatch.setattr(rationalization, "solve_equality_lp", route)
            counts = dict.fromkeys(rationalization.LP_COUNTERS, 0)
            runs.append((_conjugate_many(G, c, Q, counts).tobytes(), counts))
        assert runs[0] == runs[1]
        assert len(handed) == runs[0][1]["warm_solves"] > 0 and all(handed)

    def test_matches_exact_two_alternative_oracle(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            d = luce_dataset(rng, int(rng.integers(1, 4)), 2)
            phi = compute_potentials(d)
            G, c = _max_affine_data(phi, d)
            for _ in range(10):
                q = rng.dirichlet(np.ones(d.n)) @ G
                exact = conjugate_exact_2alt(G[:, 0], c, float(q[0]))
                lp = conjugate_cost(phi, d, q)
                assert_allclose(lp, exact, atol=1e-10)
                grid = conjugate_grid_2alt(G[:, 0], c, float(q[0]))
                assert grid <= lp + 1e-9  # every grid point is a valid v

    def test_cost_evaluators_are_convex(self, softmax_fixture):
        rng = np.random.default_rng(38)
        phi = compute_potentials(softmax_fixture)

        def fitted(p):
            return conjugate_cost(phi, softmax_fixture, p)

        evaluators = [
            (_neg_entropy, False),
            (_quadratic_cost, False),
            (fitted, True),
            (lambda p: fitted(p) + 1e-2 * _neg_entropy(p), True),
        ]
        G = softmax_fixture.probs_matrix
        for cost, on_hull in evaluators:
            for _ in range(40):
                if on_hull:
                    p = rng.dirichlet(np.ones(2)) @ G
                    q = rng.dirichlet(np.ones(2)) @ G
                else:
                    p = rng.dirichlet(np.ones(3))
                    q = rng.dirichlet(np.ones(3))
                lam = float(rng.uniform())
                mid = cost(lam * p + (1 - lam) * q)
                chord = lam * cost(p) + (1 - lam) * cost(q)
                assert mid <= chord + 1e-9


def test_neg_entropy_matches_scalar_loop():
    # One libm-vs-numpy ulp per term at most; 0 ln 0 counts as 0.
    rng = np.random.default_rng(63)
    for p in (rng.dirichlet(np.ones(6)), np.array([0.0, 0.25, 0.75]), np.array([1.0, 0.0])):
        terms = [x * math.log(x) for x in p.tolist() if x > 0]
        bound = 4 * np.finfo(float).eps * math.fsum(abs(t) for t in terms)
        assert abs(_neg_entropy(p) - math.fsum(terms)) <= bound


class TestClosedFormSolvers:
    def test_negentropy_symmetry(self):
        assert softmax_probabilities([0.0, 0.0]).tolist() == [0.5, 0.5]

    def test_negentropy_log_three(self):
        p = softmax_probabilities([math.log(3), 0.0])
        assert_allclose(p, [0.75, 0.25], atol=1e-15)

    def test_quadratic_ray(self):
        # Sort-threshold by hand for v = (2, 0): theta = 1, p = (1, 0).
        assert simplex_projection([2.0, 0.0]).tolist() == [1.0, 0.0]

    def test_quadratic_fixed_point(self):
        p = simplex_projection([0.6, 0.4])
        assert_allclose(p, [0.6, 0.4], atol=1e-15)

    def test_projection_against_quadratic_oracle(self):
        # Independent check: p solves min ||p - v||^2 iff it beats a dense
        # sample of simplex points.
        rng = np.random.default_rng(39)
        for _ in range(25):
            size = int(rng.integers(2, 6))
            v = rng.uniform(-3, 3, size)
            p = simplex_projection(v)
            d2 = float(np.sum((p - v) ** 2))
            samples = rng.dirichlet(np.ones(size), size=400)
            assert d2 <= float(np.min(np.sum((samples - v) ** 2, axis=1))) + 1e-9

    def test_softmax_against_entropy_oracle(self):
        # Independent check: p maximizes <v, p> - sum p ln p iff it beats a
        # dense sample of simplex points.
        rng = np.random.default_rng(64)
        for _ in range(25):
            size = int(rng.integers(2, 6))
            v = rng.uniform(-3, 3, size)
            p = softmax_probabilities(v)
            best = comp_dot(v, p) - _neg_entropy(p)
            samples = rng.dirichlet(np.ones(size), size=400)
            assert best >= max(comp_dot(v, q) - _neg_entropy(q) for q in samples) - 1e-12

    def test_duality_golden_pair(self):
        rng = np.random.default_rng(40)
        for _ in range(100):
            size = int(rng.integers(2, 9))
            v = rng.uniform(-10, 10, size)
            via_model = choice_probabilities(LuceExponential(), v)
            via_pum = softmax_probabilities(v)
            assert np.max(np.abs(via_model - via_pum)) <= 1e-10


class TestGeneralSolver:
    def test_negentropy_matches_closed_form(self):
        _assert_exact_closed_form(softmax_probabilities, _neg_entropy)

    def test_quadratic_matches_closed_form(self):
        _assert_exact_closed_form(simplex_projection, _quadratic_cost)

    def test_quadratic_interior_fixed_point(self):
        assert_allclose(simplex_projection([0.6, 0.4]), [0.6, 0.4], atol=1e-6)

    def test_data_derived_at_observed_point(self, softmax_fixture):
        phi = compute_potentials(softmax_fixture)
        p, objective = fitted_choice(phi, softmax_fixture, [0.0, 0.0])
        assert abs(objective - 0.0) <= 1e-8
        assert_allclose(p, [0.5, 0.5], atol=1e-12)
        _, objective2 = fitted_choice(phi, softmax_fixture, [1.0, 0.0])
        assert abs(objective2 - 0.61553) <= 1e-8

    def test_fitted_cost_reproduces_every_observation(self):
        # Softmax data are strictly cyclically monotone, so the certificate's
        # potentials hold every Afriat inequality with a positive margin and
        # each p^i is the unique maximizing vertex at v^i.
        rng = np.random.default_rng(0)
        V = rng.uniform(-3.0, 3.0, (200, 10))
        d = Dataset(menu_of(10), V.tolist(), (np.exp(V) / np.exp(V).sum(axis=1, keepdims=True)).tolist())
        phi = compute_potentials(d)
        assert np.min(phi[None, :] - phi[:, None] + edge_weights(d)) > 0.05
        for v, p in zip(d.values_matrix, d.probs_matrix):
            assert np.array_equal(fitted_choice(phi, d, v)[0], p)

    @pytest.mark.parametrize("epsilon", [1e-2, 1e-4])
    def test_smoothing_bias_is_bounded(self, epsilon):
        # The entropic term can cost at most epsilon * ln|A| of unsmoothed
        # objective relative to the piecewise-linear optimum.
        rng = np.random.default_rng(41)
        for _ in range(6):
            size = int(rng.integers(2, 5))
            d = luce_dataset(rng, int(rng.integers(2, 7)), size)
            phi = compute_potentials(d)
            v = rng.uniform(-2, 2, size)
            best = fitted_choice(phi, d, v)[1]
            (sol,) = smoothed_choices(phi, d, epsilon, [v], 1e-8)
            q = sol.probs
            unsmoothed_obj = comp_dot(v, q) - conjugate_cost(phi, d, q)
            assert unsmoothed_obj >= best - epsilon * math.log(size) - 1e-7

    @pytest.mark.parametrize("epsilon, most, total", [(0.01, 1, 40), (0.1, 18, 60)])
    def test_smoothed_solve_starts_at_unsmoothed_maximizer(self, epsilon, most, total):
        # From the unsmoothed maximizer a solve takes a few pairwise
        # Frank-Wolfe steps; from the uniform mixture it took one drop step
        # per vertex, at least n - 1 = 39 here.  The counts are pinned.
        # Every answer is checked against a tol-1e-12 solve, which takes
        # tens of steps, not hundreds: objectives within 1e-10,
        # probabilities within sqrt(2 gap / eps) of the maximizer for each.
        d = _softmax_menu_40x5()
        phi = compute_potentials(d)
        solutions = smoothed_choices(phi, d, epsilon, d.values_matrix, 1e-8)
        assert max(sol.iterations for sol in solutions) <= most
        assert sum(sol.iterations for sol in solutions) <= total
        refs = smoothed_choices(phi, d, epsilon, d.values_matrix, 1e-12)
        assert max(ref.iterations for ref in refs) <= 100
        for sol, ref in zip(solutions, refs):
            assert abs(sol.objective - ref.objective) <= 1e-10
            bound = math.sqrt(2 * sol.gap / epsilon) + math.sqrt(2 * max(ref.gap, 0.0) / epsilon)
            assert np.max(np.abs(sol.probs - ref.probs)) <= bound

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_smoothed_solves_converge_on_projection_menus(self, k, monkeypatch):
        # Projection choices put many observations on a face of the
        # simplex, where the best step onto the face can be ~1e-28.
        monkeypatch.setattr(rationalization, "FW_MAX_ITERATIONS", 2_000)
        d = benchmark_lowdim_menu(1, k)
        solutions = smoothed_choices(compute_potentials(d), d, 0.01, d.values_matrix, 1e-8)
        assert max(sol.gap for sol in solutions) <= 1e-8

    @pytest.mark.parametrize(
        "kernel, cost",
        [(softmax_probabilities, _neg_entropy), (simplex_projection, _quadratic_cost)],
        ids=["NegEntropyCost", "QuadraticCost"],
    )
    def test_envelope_gradient(self, kernel, cost):
        # d/dv of the optimal objective equals the maximizer itself.
        rng = np.random.default_rng(42)
        h = 1e-5

        def objective(v):
            p = kernel(v)
            return comp_dot(v, p) - cost(p)

        for _ in range(5):
            size = int(rng.integers(2, 5))
            v = rng.uniform(-1.5, 1.5, size)
            p = kernel(v)
            for a in range(size):
                up = v.copy()
                up[a] += h
                dn = v.copy()
                dn[a] -= h
                fd = (objective(up) - objective(dn)) / (2 * h)
                assert abs(fd - p[a]) <= 1e-4


def _assert_exact_closed_form(kernel, cost) -> None:
    # The same bits from a list, an array and a read-only matrix row, on the
    # simplex to the last ulp, and no worse in <v, p> - C(p) than any vertex
    # or sampled point; the spread values put projections on faces and
    # softmax entries near 0.
    rng = np.random.default_rng(65)
    for v in [[1.0, 0.0], [0.6, 0.4], *rng.uniform(-40, 40, (20, 5)).tolist()]:
        p = kernel(v)
        row = np.array([v])
        row.flags.writeable = False
        assert p.tobytes() == kernel(np.array(v)).tobytes() == kernel(row[0]).tobytes()
        assert p.min() >= 0.0 and abs(math.fsum(p.tolist()) - 1.0) <= np.spacing(1.0)
        best = comp_dot(v, p) - cost(p)
        rivals = [*np.eye(len(v)), *rng.dirichlet(np.ones(len(v)), size=200)]
        assert best >= max(comp_dot(v, q) - cost(q) for q in rivals) - 1e-12


def _softmax_menu_40x5() -> Dataset:
    V = np.random.default_rng(5).uniform(-3.0, 3.0, (40, 5))
    return Dataset(menu_of(5), V.tolist(), (np.exp(V) / np.exp(V).sum(axis=1, keepdims=True)).tolist())


def _duplicate_gradient_menu(rng: np.random.Generator) -> Dataset:
    # Distinct values can share one probability vector (saturated
    # projections), so many conjugate LPs are degenerate.
    rows_v = (rng.uniform(3.0, 9.0, (15, 3))).tolist()
    probs = [simplex_projection(v).tolist() for v in rows_v]
    return Dataset(menu_of(3), rows_v, probs)


def _count_lp_calls(monkeypatch) -> list:
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return solve_equality_lp(*args, **kwargs)

    monkeypatch.setattr(rationalization, "solve_equality_lp", counting)
    return calls


class TestVerifyRationalization:
    def test_softmax_fixture(self, softmax_fixture):
        phi = compute_potentials(softmax_fixture)
        report = verify_rationalization(softmax_fixture, phi, 1e-9)
        assert report.max_fenchel_gap <= 1e-9
        assert report.max_optimality_gap <= 1e-9
        assert report.passed
        assert report.n_vertex_points == 2
        assert report.n_mixture_points == 1000

    def test_single_observation_trivial(self):
        d = Dataset(menu_of(2), [[1, 2]], [[0.4, 0.6]])
        report = verify_rationalization(d, compute_potentials(d), 1e-9)
        assert report.max_fenchel_gap <= 1e-12
        assert report.max_optimality_gap <= 1e-12

    def test_reproducible_with_explicit_generator(self, softmax_fixture):
        phi = compute_potentials(softmax_fixture)
        a = verify_rationalization(softmax_fixture, phi, rng=np.random.default_rng(5))
        b = verify_rationalization(softmax_fixture, phi, rng=np.random.default_rng(5))
        assert np.array_equal(a.optimality_gaps, b.optimality_gaps)

    def test_generated_data_round_trip(self):
        rng = np.random.default_rng(43)
        for kind in ("negentropy", "quadratic"):
            d = pum_dataset(kind, rng, 15, 4)
            phi = compute_potentials(d)
            report = verify_rationalization(d, phi, 1e-8, mixtures=200, rng=rng)
            assert report.max_fenchel_gap <= 1e-8
            assert report.max_optimality_gap <= 1e-8

    @pytest.mark.parametrize(
        "menu",
        [
            lambda: benchmark_lowdim_menu(3, 2),
            lambda: benchmark_lowdim_menu(7, 1),
            lambda: _duplicate_gradient_menu(np.random.default_rng(60)),
        ],
        ids=["lowdim-3-2", "lowdim-7-1", "duplicate-gradients"],
    )
    def test_vertex_cost_is_within_the_shortfall(self, menu):
        # verify prices vertex g_i at c_i and reports the Afriat shortfall
        # f(v^i) - phi_i as its Fenchel gap; that is sound only if the LP
        # value C(g_i) is within the shortfall of c_i.  lowdim-3-2 holds the
        # dust-pivot vertex 130, the others tie gradients or zero cycles.
        d = menu()
        phi = compute_potentials(d, 1e-9)
        G, c = _max_affine_data(phi, d)
        A = np.vstack([G.T, np.ones((1, d.n))])
        lp = np.array([solve_equality_lp(c, A, np.append(g, 1.0)).value for g in G])
        shortfall = verify_rationalization(d, phi, mixtures=0).fenchel_gaps
        assert np.all(np.abs(lp - c) <= shortfall + 1e-12)

    def test_vertices_need_no_lp(self, monkeypatch):
        calls = _count_lp_calls(monkeypatch)
        d = benchmark_lowdim_menu(3, 2)
        phi = compute_potentials(d, 1e-9)
        report = verify_rationalization(d, phi, 1e-8, mixtures=0)
        assert len(calls) == 0
        assert report.passed
        assert (report.n_vertex_points, report.n_mixture_points) == (d.n, 0)
        extension = np.maximum(phi, np.max(phi[:, None] - edge_weights(d), axis=0))
        assert np.array_equal(report.fenchel_gaps, extension - phi)
        exact = [_extension(phi, d, v) for v in d.values_matrix]
        assert_allclose(report.fenchel_gaps, np.array(exact) - phi, atol=1e-12)

    def test_large_menu_solves_mixtures_only(self, monkeypatch):
        # A count, not a timing: at n = 1000, |A| = 10 the LP sees only the
        # 1000 mixture queries, one of them solved cold, the others answered
        # by reused bases or warm started from one.
        calls = _count_lp_calls(monkeypatch)
        d = pum_dataset("negentropy", np.random.default_rng(70), 1000, 10)
        phi = compute_potentials(d, 1e-9)
        report = verify_rationalization(d, phi, 1e-8, rng=np.random.default_rng(71))
        assert report.passed  # every gap <= 1e-8
        assert report.n_mixture_points == 1000
        lp = report.to_dict()["lp"]
        assert len(calls) == lp["cold_solves"] + lp["warm_solves"] <= 1000
        assert lp["cold_solves"] <= 2

    def test_lowered_potential_is_rejected(self, softmax_fixture):
        # phi_2 = 0.5 is tight against phi_1 - w(1 -> 2); 1e-6 below it
        # breaks that Afriat inequality and the Fenchel equality at v^2.
        bad = np.array([0.0, 0.5 - 1e-6])
        report = verify_rationalization(softmax_fixture, bad)
        assert not report.passed
        assert_allclose(report.fenchel_gaps, [0.0, 1e-6], atol=1e-12)
        assert_allclose(report.optimality_gaps[1], 1e-6, atol=1e-12)


class TestVertexPricing:
    # Priced at c_j, vertex g_j's advantage at v^i is phi_j - W[j, i] - phi_i,
    # whose maximum over j is the Fenchel gap.  Verification takes it from
    # the extension, so no rounding of V @ G' can put a gap below it.
    MENUS = {
        "softmax": lambda rng: pum_dataset("negentropy", rng, 200, 10),
        "projection": lambda rng: pum_dataset("quadratic", rng, 150, 4),
        "luce": lambda rng: luce_dataset(rng, 120, 3),
    }

    @pytest.mark.parametrize("kind", sorted(MENUS))
    def test_without_mixtures_the_gaps_are_the_fenchel_gaps(self, kind):
        d = self.MENUS[kind](np.random.default_rng(87))
        report = verify_rationalization(d, compute_potentials(d), mixtures=0)
        assert (report.n_vertex_points, report.n_mixture_points) == (d.n, 0)
        assert report.optimality_gaps.tobytes() == report.fenchel_gaps.tobytes()

    @pytest.mark.parametrize("kind", sorted(MENUS))
    def test_the_fenchel_gap_is_a_floor(self, kind):
        d = self.MENUS[kind](np.random.default_rng(87))
        report = verify_rationalization(d, compute_potentials(d))
        assert report.n_mixture_points == 1000
        assert np.all(report.optimality_gaps >= report.fenchel_gaps)
        assert np.all(report.optimality_gaps >= 0.0)


class TestDegenerateGeometry:
    def test_duplicate_gradients_across_observations(self):
        rng = np.random.default_rng(60)
        d = _duplicate_gradient_menu(rng)
        phi = compute_potentials(d, 1e-9)
        report = verify_rationalization(d, phi, 1e-8, mixtures=100, rng=rng)
        assert report.max_fenchel_gap <= 1e-8
        assert report.max_optimality_gap <= 1e-8

    def test_boundary_heavy_quadratic_data(self):
        # Spread-out values push many projections onto simplex faces.
        rng = np.random.default_rng(61)
        d = pum_dataset("quadratic", rng, 20, 5)
        phi = compute_potentials(d, 1e-9)
        report = verify_rationalization(d, phi, 1e-8, mixtures=300, rng=rng)
        assert report.max_fenchel_gap <= 1e-8
        assert report.max_optimality_gap <= 1e-8


class TestSolverErrorPaths:
    def test_budget_exhaustion_raises_no_progress(self, monkeypatch):
        # At v = e_1, off the data, the smoothed Frank-Wolfe solve to 1e-12
        # takes more than one step, so a budget of one cuts it short.
        d = _softmax_menu_40x5()
        phi, v = compute_potentials(d), np.eye(5)[0]
        assert smoothed_choices(phi, d, 0.1, [v], 1e-12)[0].iterations > 1
        monkeypatch.setattr(rationalization, "FW_MAX_ITERATIONS", 1)
        with pytest.raises(NoProgressError):
            smoothed_choices(phi, d, 0.1, [v], 1e-12)

    def test_smoothed_solve_converges_on_a_projection_menu(self, monkeypatch):
        # Observation 5 of report_menus' seed-1 menu lowdim_01 at eps = 0.1
        # starts on a face, q = (0, 0, 0.577, 0.423), where the best step
        # onto the face moves ~1e-13 of weight.
        monkeypatch.setattr(rationalization, "FW_MAX_ITERATIONS", 2_000)
        d = benchmark_lowdim_menu(1, 1)
        (sol,) = smoothed_choices(compute_potentials(d), d, 0.1, d.values_matrix[4:5], 1e-8)
        assert sol.gap <= 1e-8

    @pytest.mark.xfail(
        strict=True,
        raises=NoProgressError,
        reason="pairwise Frank-Wolfe zigzags between three vertices of a face; ROADMAP item 2's face step",
    )
    def test_smoothed_solves_converge_on_a_face_at_larger_epsilon(self, monkeypatch):
        # Observations 30 and 124 of the same menu at eps = 0.1: two pairs
        # that share a vertex take turns, each step undoing most of the last.
        monkeypatch.setattr(rationalization, "FW_MAX_ITERATIONS", 2_000)
        d = benchmark_lowdim_menu(1, 1)
        solutions = smoothed_choices(compute_potentials(d), d, 0.1, d.values_matrix[[29, 123]], 1e-8)
        assert max(sol.gap for sol in solutions) <= 1e-8

    def test_smoothed_cost_requires_positive_epsilon(self, softmax_fixture):
        phi = compute_potentials(softmax_fixture)
        for epsilon in (0.0, math.nan):
            with pytest.raises(ValueError, match="epsilon must be positive"):
                smoothed_choices(phi, softmax_fixture, epsilon, softmax_fixture.values_matrix)


@pytest.mark.parametrize("cells", [None, 1, 7 * 150])
def test_blocked_extension_matches_dense(cells, monkeypatch):
    # The extension's maximum over rows runs over row blocks of W; the
    # Fenchel gaps must equal those of one dense n x n temporary bit for bit.
    if cells is not None:
        monkeypatch.setattr(monotonicity, "ROW_BLOCK_CELLS", cells)
    rng = np.random.default_rng(96)
    for d in (pum_dataset("negentropy", rng, 150, 4), luce_dataset(rng, 301, 3)):
        phi = compute_potentials(d)
        report = verify_rationalization(d, phi, mixtures=0)
        want = dense_verify(d, phi, mixtures=0)
        assert report.fenchel_gaps.tobytes() == want.fenchel_gaps.tobytes()


def _assert_same_report(got, want):
    assert got.fenchel_gaps.tobytes() == want.fenchel_gaps.tobytes()
    assert got.optimality_gaps.tobytes() == want.optimality_gaps.tobytes()
    assert (got.n_mixture_points, got.lp) == (want.n_mixture_points, want.lp)


class TestStreamedVerify:
    # Verification reads W, the Dirichlet draws and the competitor values
    # one block at a time; it must equal the dense formula bit for bit.

    @pytest.mark.parametrize("mixtures", [0, 1, 61, 200])
    def test_one_row_blocks_match_dense(self, mixtures, monkeypatch):
        # ROW_BLOCK_CELLS // n == 1: every block of W, of the draws and of
        # the pool is one row.
        n = 61
        monkeypatch.setattr(monotonicity, "ROW_BLOCK_CELLS", n + 3)
        assert len(monotonicity.row_blocks(n, mixtures)) == mixtures
        d = pum_dataset("negentropy", np.random.default_rng(80), n, 7)
        phi = compute_potentials(d)
        got = verify_rationalization(d, phi, mixtures=mixtures, rng=np.random.default_rng(81))
        _assert_same_report(got, dense_verify(d, phi, mixtures=mixtures, rng=np.random.default_rng(81)))

    @pytest.mark.parametrize("n, size, mixtures", [(193, 9, 1000), (250, 7, 339), (40, 3, 0)])
    def test_partial_last_blocks_match_dense(self, n, size, mixtures):
        # 169 and 131 rows per block, so neither n nor the mixture count is
        # a multiple of the block.  At these odd |A|, BLAS rounded some
        # blocks of a product differently from the whole product.
        d = pum_dataset("quadratic", np.random.default_rng(n), n, size)
        phi = compute_potentials(d)
        got = verify_rationalization(d, phi, mixtures=mixtures, rng=np.random.default_rng(82))
        _assert_same_report(got, dense_verify(d, phi, mixtures=mixtures, rng=np.random.default_rng(82)))

    def test_single_products_agree_to_rounding(self):
        # Against the whole products of the unstreamed formula, only BLAS's
        # rounding of a block may differ.  Against vertices priced at their
        # offsets c_j, as pool points, only the rounding of V @ G' may.
        for n, size in [(193, 9), (200, 10), (250, 7)]:
            d = pum_dataset("negentropy", np.random.default_rng(n + size), n, size)
            phi = compute_potentials(d)
            got = verify_rationalization(d, phi, mixtures=500)
            for want in (dense_verify(d, phi, mixtures=500, blocked=False),
                         dense_verify(d, phi, mixtures=500, offsets=True)):
                assert got.fenchel_gaps.tobytes() == want.fenchel_gaps.tobytes()
                assert_allclose(got.optimality_gaps, want.optimality_gaps, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("cells", [None, 5 * 40])
    def test_blocked_draws_continue_one_stream(self, cells, monkeypatch):
        # numpy fills a Dirichlet sample row by row from one stream.
        if cells is not None:
            monkeypatch.setattr(monotonicity, "ROW_BLOCK_CELLS", cells)
        n, mixtures = 40, 1003
        whole = np.random.default_rng(83).dirichlet(np.ones(n), size=mixtures)
        rng = np.random.default_rng(83)
        blocks = [rng.dirichlet(np.ones(n), size=b.stop - b.start) for b in monotonicity.row_blocks(n, mixtures)]
        assert len(blocks) == (2 if cells is None else 201)
        assert np.vstack(blocks).tobytes() == whole.tobytes()

    def test_negative_mixture_count_is_rejected(self, softmax_fixture):
        with pytest.raises(ValueError, match="mixtures"):
            verify_rationalization(softmax_fixture, compute_potentials(softmax_fixture), mixtures=-1)

    def test_memory_is_linear_in_n_and_mixtures(self):
        # tracemalloc sees numpy's buffers.  The dense formula held W, a
        # mixtures x n draw matrix and the n x (n + mixtures) competitor
        # matrix, 4 x 8n^2 bytes here, and each mixture added two n-wide
        # rows.  Streamed, the peak is a few blocks plus O((n + mixtures)
        # |A|), and each mixture adds less than n bytes, an eighth of a row.
        n = 1000
        d = pum_dataset("negentropy", np.random.default_rng(84), n, 10)
        phi = compute_potentials(d)
        d.values_matrix, d.probs_matrix  # built before tracing starts
        peaks = []
        for mixtures in (1000, 3000):
            tracemalloc.start()
            try:
                assert verify_rationalization(d, phi, mixtures=mixtures).passed
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < 0.25 * 8 * n * n
        assert peaks[1] - peaks[0] < 2000 * n
