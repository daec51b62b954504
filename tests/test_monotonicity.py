"""Tests for cycle sums, the monotonicity checks, and diagnostics."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cyclorat import (
    Dataset,
    CycloratError,
    DuplicateValuesWarning,
    Menu,
    NoProgressError,
    NotCyclicallyMonotoneError,
    ValidationError,
    check_cyclic_monotonicity,
    check_two_point_monotonicity,
    check_weak_stochastic_transitivity,
    comp_dot,
    compute_potentials,
    cycle_sum,
    simplex_projection,
    verify_rationalization,
)
from cyclorat import monotonicity
from cyclorat.cli import RunConfig, _analyze_menu
from cyclorat.monotonicity import _edge_weight_error, _min_mean_cycle, edge_weights, row_blocks

from conftest import (
    luce_dataset,
    menu_of,
    mixed_pool_dataset,
    pum_dataset,
    random_probs_dataset,
    realize_weights,
    regret_dataset,
)
from oracles import (
    brute_force_cm,
    dense_min_mean_cycle,
    karp_min_mean,
    min_mean_by_enumeration,
    wst_by_permutations,
)


class TestCycleSum:
    def test_identical_observations_sum_to_zero(self):
        d = Dataset(menu_of(2), [[1, 2], [1, 2]], [[0.4, 0.6], [0.4, 0.6]])
        assert cycle_sum(d, [1, 2]) == 0.0

    def test_softmax_fixture_two_cycle(self, softmax_fixture):
        # <p1, v1 - v2> + <p2, v2 - v1> = -0.5 + 0.73106 by scalar arithmetic.
        assert_allclose(cycle_sum(softmax_fixture, [1, 2]), 0.23106, atol=1e-15)

    def test_violation_fixture_two_cycle(self, violation_fixture):
        # (0.3 - 0.7) + (-0.6 + 0.4) = -0.6 by scalar arithmetic.
        assert_allclose(cycle_sum(violation_fixture, [1, 2]), -0.6, atol=1e-15)

    def test_bad_indices(self, softmax_fixture):
        with pytest.raises(CycloratError, match=r"^index 3 outside 1\.\.2$"):
            cycle_sum(softmax_fixture, [1, 3])
        with pytest.raises(CycloratError, match=r"^index 0 outside 1\.\.2$"):
            cycle_sum(softmax_fixture, [0, 1])
        with pytest.raises(CycloratError, match="^a cycle needs at least two indices$"):
            cycle_sum(softmax_fixture, [1])


def _duplicated_rows_dataset():
    # The sixth observation repeats the second of a seeded PUM dataset.
    base = pum_dataset("negentropy", np.random.default_rng(18), 5, 3)
    V = base.values_matrix.tolist() + [base.values_matrix[1].tolist()]
    P = base.probs_matrix.tolist() + [base.probs_matrix[1].tolist()]
    return Dataset(menu_of(3), V, P)


class TestEdgeWeights:
    @pytest.mark.parametrize("size", [2, 10])
    @pytest.mark.parametrize("scale", [1e-3, 4.0, 1e3])
    def test_within_stated_rounding_bound(self, scale, size):
        # err = 2 * gamma_{|A|+1} * max|V| bounds |W - exact| entrywise; the
        # compensated per-entry oracle and exact rationals must both agree.
        rng = np.random.default_rng(17)
        d = Dataset(
            menu_of(size),
            rng.uniform(-scale, scale, (6, size)).tolist(),
            rng.dirichlet(np.ones(size), 6).tolist(),
        )
        V, P = d.values_matrix, d.probs_matrix
        k = size + 1
        u = np.finfo(float).eps / 2
        err = 2 * k * u / (1 - k * u) * np.max(np.abs(V))
        W = edge_weights(d)
        assert np.all(np.isinf(np.diag(W)))
        for i in range(d.n):
            for j in range(d.n):
                if i == j:
                    continue
                assert abs(W[i, j] - comp_dot(P[i], V[i] - V[j])) <= err
                exact = sum(
                    Fraction(p) * (Fraction(a) - Fraction(b))
                    for p, a, b in zip(P[i].tolist(), V[i].tolist(), V[j].tolist())
                )
                assert abs(Fraction(float(W[i, j])) - exact) <= Fraction(float(err))

    def test_duplicated_rows(self):
        d = _duplicated_rows_dataset()
        W = edge_weights(d)
        assert cycle_sum(d, [2, 6]) == 0.0
        assert W[1, 5] + W[5, 1] == 0.0
        assert check_cyclic_monotonicity(d).is_pass
        phi = compute_potentials(d)
        assert phi[0] == 0.0
        V, P = d.values_matrix, d.probs_matrix
        for i in range(d.n):
            for j in range(d.n):
                assert phi[j] >= phi[i] + comp_dot(P[i], V[j] - V[i]) - 1e-9


class TestCheckCyclicMonotonicity:
    def test_softmax_fixture_passes(self, softmax_fixture):
        verdict = check_cyclic_monotonicity(softmax_fixture)
        assert verdict.is_pass
        assert verdict.witness is None
        # The only cycle is the 2-cycle with mean 0.23106 / 2.
        assert_allclose(verdict.min_cycle_mean, 0.11553, atol=1e-12)

    def test_violation_fixture_witness(self, violation_fixture):
        verdict = check_cyclic_monotonicity(violation_fixture)
        assert verdict.status == "violation"
        assert verdict.witness.indices == (1, 2)
        assert_allclose(verdict.witness.cycle_sum, -0.6, atol=1e-15)

    def test_single_observation_passes(self):
        d = Dataset(menu_of(2), [[1, 2]], [[0.4, 0.6]])
        verdict = check_cyclic_monotonicity(d)
        assert verdict.is_pass
        assert verdict.min_cycle_mean is None

    def test_witnesses_recompute_below_tolerance(self):
        rng = np.random.default_rng(11)
        found = 0
        for _ in range(60):
            d = random_probs_dataset(rng, int(rng.integers(2, 8)), int(rng.integers(2, 5)))
            verdict = check_cyclic_monotonicity(d, 1e-9)
            if verdict.status == "violation":
                found += 1
                w = verdict.witness
                recomputed = cycle_sum(d, list(w.indices))
                assert recomputed < -1e-9
                assert abs(recomputed - w.cycle_sum) <= 1e-12
        assert found > 10  # the adversarial generator must exercise the path

    def test_translation_invariance(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            d = mixed_pool_dataset(rng, int(rng.integers(2, 7)), int(rng.integers(2, 5)))
            shift = float(rng.uniform(-50, 50))
            shifted = Dataset(
                d.menu,
                (d.values_matrix + shift).tolist(),
                d.probs_matrix.tolist(),
            )
            a = check_cyclic_monotonicity(d)
            b = check_cyclic_monotonicity(shifted)
            assert a.status == b.status
            if a.witness is not None:
                assert abs(cycle_sum(shifted, list(a.witness.indices)) - a.witness.cycle_sum) <= 1e-9


class TestMinMeanCycle:
    @pytest.mark.parametrize("family", ["random", "pum", "regret"])
    def test_brackets_enumerated_minimum(self, family):
        rng = np.random.default_rng({"random": 31, "pum": 32, "regret": 33}[family])
        for _ in range(12):
            n, size = int(rng.integers(2, 9)), int(rng.integers(2, 5))
            if family == "random":
                d = random_probs_dataset(rng, n, size)
            elif family == "pum":
                d = pum_dataset("negentropy", rng, n, size)
            else:
                d = regret_dataset(rng, n, size)
            W = edge_weights(d)
            mm = _min_mean_cycle(W)
            exact = min_mean_by_enumeration(W)
            assert mm.lower <= exact <= mm.mean
            assert mm.mean == math.fsum(
                W[i, j] for i, j in zip(mm.cycle, mm.cycle[1:] + mm.cycle[:1])
            ) / len(mm.cycle)

    @pytest.mark.parametrize("n", [50, 200])
    def test_agrees_with_karp(self, n):
        # Karp's entries are walks of up to n edges, so its value carries up
        # to ~2 gamma_n n max|W| of rounding; policy iteration is within its
        # own certificate, mean - lower.
        rng = np.random.default_rng(34 + n)
        u = np.finfo(float).eps / 2
        for d in (
            pum_dataset("negentropy", rng, n, 5),
            regret_dataset(rng, n, 4),
            random_probs_dataset(rng, n, 3),
        ):
            W = edge_weights(d)
            mm = _min_mean_cycle(W)
            karp, _ = karp_min_mean(W)
            wmax = np.max(np.abs(W[np.isfinite(W)]))
            err = 2 * n * u / (1 - n * u) * n * wmax + (mm.mean - mm.lower)
            assert abs(mm.mean - karp) <= err

    def test_cut_short_run_stays_certified(self, monkeypatch):
        # One round only: the bound loosens but never overstates.  The check
        # either decides from it, with the oracle's verdict, or raises.
        monkeypatch.setattr(monotonicity, "MIN_MEAN_MAX_ITERATIONS", 1)
        rng = np.random.default_rng(43)
        loose = decided = raised = 0
        for _ in range(30):
            d = mixed_pool_dataset(rng, int(rng.integers(3, 8)), int(rng.integers(2, 5)))
            W = edge_weights(d)
            mm = _min_mean_cycle(W)
            exact = min_mean_by_enumeration(W)
            assert mm.iterations == 1
            assert mm.lower <= exact <= mm.mean
            loose += mm.lower < exact - 1e-6
            try:
                verdict = check_cyclic_monotonicity(d, 1e-9)
            except NoProgressError:
                raised += 1
                continue
            decided += 1
            assert verdict.status == brute_force_cm(d, 1e-9).status
            assert verdict.policy_iterations == 1
            if verdict.is_pass:
                phi = verdict.potentials
                assert np.min(phi[None, :] - phi[:, None] + W) >= -1e-9 - ROUNDING
        assert loose > 5
        assert decided > 0 and raised > 0

    def test_single_node(self):
        mm = _min_mean_cycle(np.full((1, 1), np.inf))
        assert (mm.mean, mm.cycle) == (math.inf, None)

    def test_two_nodes(self):
        W = np.array([[np.inf, 0.3], [-0.9, np.inf]])
        mm = _min_mean_cycle(W)
        assert mm.cycle == (0, 1)
        assert mm.mean == math.fsum([0.3, -0.9]) / 2
        assert mm.lower <= mm.mean
        assert mm.iterations == 1

    def test_constant_values(self):
        # Equal value vectors make every weight exactly 0.
        rng = np.random.default_rng(35)
        v = rng.uniform(-4, 4, 3).tolist()
        with pytest.warns(DuplicateValuesWarning):
            d = Dataset(menu_of(3), [v] * 6, rng.dirichlet(np.ones(3), 6).tolist())
        mm = _min_mean_cycle(edge_weights(d))
        assert (mm.mean, mm.lower, mm.cycle) == (0.0, 0.0, (0, 1))
        verdict = check_cyclic_monotonicity(d)
        assert verdict.is_pass and verdict.min_cycle_mean == 0.0

    def test_duplicated_rows(self):
        mm = _min_mean_cycle(edge_weights(_duplicated_rows_dataset()))
        assert (mm.mean, mm.cycle) == (0.0, (1, 5))
        assert -1e-12 <= mm.lower <= 0.0

    def test_ties_go_to_smallest_cycle(self):
        W = np.zeros((4, 4))
        W[1, 2] = W[2, 1] = W[0, 3] = W[3, 0] = -1.0
        np.fill_diagonal(W, np.inf)
        mm = _min_mean_cycle(W)
        assert (mm.mean, mm.cycle) == (-1.0, (0, 3))

    @pytest.mark.parametrize("family", ["negentropy", "quadratic", "regret"])
    def test_iteration_count_bounded(self, family):
        rng = np.random.default_rng(36)
        if family == "regret":
            d = regret_dataset(rng, 500, 4)
        else:
            d = pum_dataset(family, rng, 500, 4)
        mm = _min_mean_cycle(edge_weights(d))
        assert 1 <= mm.iterations <= 50

    def test_shifted_projection_data_settle(self):
        # Projection choices often tie several cycles at mean 0, and a
        # constant added to each observation's values moves no cycle sum.
        # Rounding-level gains must not switch the policy between those
        # cycles: every check passes in a few rounds.
        rng = np.random.default_rng(59)
        for _ in range(30):
            n, size = int(rng.integers(4, 20)), int(rng.integers(3, 6))
            V = rng.uniform(-3, 3, (n, size))
            P = [simplex_projection(v) for v in V]
            d = Dataset(menu_of(size), V + rng.uniform(-100, 100, (n, 1)), P)
            verdict = check_cyclic_monotonicity(d)
            assert verdict.is_pass and verdict.policy_iterations <= 30


def _assert_same_bits(got, want):
    assert (got.cycle, got.iterations) == (want.cycle, want.iterations)
    assert np.array([got.mean, got.lower]).tobytes() == np.array([want.mean, want.lower]).tobytes()
    assert got.x.tobytes() == want.x.tobytes()


def _with_repeated_rows(d, rng, count):
    # Appends copies of `count` seeded rows: each copy ties its original on
    # a zero-weight two-cycle, so several policy cycles share the least mean.
    k = rng.choice(d.n, count, replace=False)
    V = np.vstack([d.values_matrix, d.values_matrix[k]])
    P = np.vstack([d.probs_matrix, d.probs_matrix[k]])
    return Dataset(d.menu, V.tolist(), P.tolist())


class TestRowBlocks:
    # Blocks split rows, never columns, so every argmin keeps its smallest
    # index and the blocked rounds return what the dense rounds return.

    @pytest.fixture
    def branches(self, monkeypatch):
        # Names the improvement branches the rounds took: all columns, or
        # only the columns of the least-mean policy cycles.
        seen = set()
        real = monotonicity._improve

        def recording(W, x, cols, blocks, buf):
            seen.add("all" if cols is None else "tied")
            return real(W, x, cols, blocks, buf)

        monkeypatch.setattr(monotonicity, "_improve", recording)
        return seen

    @pytest.mark.parametrize("n", [300, 150])
    def test_matches_dense_rounds(self, n, branches):
        # n = 300 takes 109-row blocks, the last one of 82 rows; n = 150
        # fits in one block.
        assert len(row_blocks(n)) == (3 if n == 300 else 1)
        rng = np.random.default_rng(90 + n)
        for d in (
            pum_dataset("negentropy", rng, n, 5),
            regret_dataset(rng, n, 4),
            random_probs_dataset(rng, n, 3),
            _with_repeated_rows(pum_dataset("quadratic", rng, n - 20, 4), rng, 20),
        ):
            W = edge_weights(d)
            _assert_same_bits(_min_mean_cycle(W), dense_min_mean_cycle(W))
        assert branches == {"all", "tied"}

    def test_one_row_blocks(self, monkeypatch, branches):
        monkeypatch.setattr(monotonicity, "ROW_BLOCK_CELLS", 1)
        assert len(row_blocks(40)) == 40
        rng = np.random.default_rng(92)
        for _ in range(10):
            d = mixed_pool_dataset(rng, int(rng.integers(2, 40)), int(rng.integers(2, 6)))
            W = edge_weights(d)
            _assert_same_bits(_min_mean_cycle(W), dense_min_mean_cycle(W))
        assert branches == {"all", "tied"}

    @pytest.mark.parametrize("cells", [None, 1, 7 * 60])
    def test_repeated_rows_take_the_tied_columns(self, cells, monkeypatch, branches):
        if cells is not None:
            monkeypatch.setattr(monotonicity, "ROW_BLOCK_CELLS", cells)
        rng = np.random.default_rng(93)
        for d in (_duplicated_rows_dataset(), _with_repeated_rows(luce_dataset(rng, 50, 3), rng, 10)):
            W = edge_weights(d)
            _assert_same_bits(_min_mean_cycle(W), dense_min_mean_cycle(W))
        assert "tied" in branches

    @pytest.mark.parametrize("cells", [None, 1, 7 * 90])
    def test_ties_keep_the_smallest_index(self, cells, monkeypatch, branches):
        # Small integer weights tie often, within and across blocks: the
        # first argmin of each row must be the one the dense round takes.
        # Row offsets give the first policy cycles of different means.
        if cells is not None:
            monkeypatch.setattr(monotonicity, "ROW_BLOCK_CELLS", cells)
        rng = np.random.default_rng(97)
        for _ in range(10):
            W = (rng.integers(-2, 3, (90, 90)) + rng.integers(0, 3, (90, 1))).astype(float)
            np.fill_diagonal(W, np.inf)
            _assert_same_bits(_min_mean_cycle(W), dense_min_mean_cycle(W))
        assert branches == {"all", "tied"}

    def test_overflowed_weights_match_dense(self):
        # Weights of values near the float limit can overflow to +-inf; the
        # certificate's scale then takes the finite entries, as the dense
        # round's mask did, or is infinite itself.
        rng = np.random.default_rng(98)
        for bad in (np.inf, -np.inf):
            W = rng.uniform(-1.0, 1.0, (60, 60))
            W[rng.integers(0, 60, 30), rng.integers(0, 60, 30)] = bad
            np.fill_diagonal(W, np.inf)
            with np.errstate(invalid="ignore"):  # inf - inf in the values
                _assert_same_bits(_min_mean_cycle(W), dense_min_mean_cycle(W))

    @pytest.mark.parametrize("extreme", [50.0, -50.0])
    def test_bound_reads_every_off_diagonal_entry(self, extreme):
        # The certificate's scale takes max |W_ij| over i != j; one extreme
        # entry next to the diagonal or in a corner must move it as it
        # moves the dense bound.
        n = 30
        positions = [(0, 1), (1, 0), (5, 6), (6, 5), (n - 2, n - 1), (n - 1, n - 2), (0, n - 1), (n - 1, 0)]
        for i, j in positions:
            W = np.random.default_rng(99).uniform(-1.0, 1.0, (n, n))
            W[i, j] = extreme
            np.fill_diagonal(W, np.inf)
            _assert_same_bits(_min_mean_cycle(W), dense_min_mean_cycle(W))

    def test_cut_short_run_matches_dense(self, monkeypatch):
        monkeypatch.setattr(monotonicity, "MIN_MEAN_MAX_ITERATIONS", 1)
        rng = np.random.default_rng(94)
        for _ in range(5):
            W = edge_weights(mixed_pool_dataset(rng, 200, 4))
            _assert_same_bits(_min_mean_cycle(W), dense_min_mean_cycle(W))

    @pytest.mark.parametrize("status", ["pass", "violation"])
    def test_check_holds_one_weight_matrix(self, status):
        # tracemalloc sees numpy's buffers: the check's peak is W plus one
        # row block and O(n) vectors, not the two or three n x n arrays of
        # a dense round.  The violation is decided by the min-mean cycle.
        n = 800
        rng = np.random.default_rng(95)
        d = pum_dataset("negentropy", rng, n, 10) if status == "pass" else regret_dataset(rng, n, 4)
        d.values_matrix, d.probs_matrix  # built before tracing starts
        tracemalloc.start()
        try:
            verdict = check_cyclic_monotonicity(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict.status == status
        assert peak < 1.25 * 8 * n * n

    @pytest.mark.parametrize("cells", [None, 1, 7 * 193])
    def test_weight_blocks_are_rows_of_w(self, cells, monkeypatch):
        # W is formed from its row blocks, so a block has the bits of its
        # rows however BLAS rounds a block of a product; at n = 193, |A| = 9
        # one product P V^T rounds some entries differently.  Either way
        # every entry is within the rounding bound.
        if cells is not None:
            monkeypatch.setattr(monotonicity, "ROW_BLOCK_CELLS", cells)
        for n, size in [(193, 9), (250, 7), (40, 3)]:
            d = pum_dataset("negentropy", np.random.default_rng(n + size), n, size)
            W = edge_weights(d)
            blocks = [edge_weights(d, rows) for rows in row_blocks(n)]
            assert np.vstack(blocks).tobytes() == W.tobytes()
            M = d.probs_matrix @ d.values_matrix.T
            off = ~np.eye(n, dtype=bool)
            assert np.all(np.isinf(W.diagonal()))
            assert np.all(np.abs(W - (M.diagonal()[:, None] - M))[off] <= 2 * _edge_weight_error(d))


class TestCheckOrder:
    def test_min_mean_cycle_is_the_witness(self):
        rng = np.random.default_rng(37)
        d = regret_dataset(rng, 40, 4)
        mm = _min_mean_cycle(edge_weights(d))
        expected = tuple(i + 1 for i in mm.cycle)
        assert cycle_sum(d, list(expected)) < -1e-9
        verdict = check_cyclic_monotonicity(d, 1e-9)
        assert verdict.status == "violation"
        assert verdict.witness.indices == expected
        assert verdict.witness.cycle_sum == cycle_sum(d, list(expected))
        assert verdict.min_cycle_mean == mm.mean

    def test_tolerance_bounds_the_cycle_mean(self):
        # The two-cycle 1 -> 2 -> 1 has mean -0.4 (sum -0.8) and the longer
        # 3 -> 4 -> 5 -> 3 has mean -0.35 (sum -1.05): tol is a per-edge
        # slack, so tol = 1 passes and tol = 0.37 sees only the two-cycle.
        W = np.full((5, 5), 10.0)
        W[0, 1] = W[1, 0] = -0.4
        W[2, 3] = W[3, 4] = W[4, 2] = -0.35
        d = realize_weights(W, np.random.default_rng(38))
        assert _min_mean_cycle(edge_weights(d)).cycle == (0, 1)
        assert check_cyclic_monotonicity(d, 1.0).is_pass
        assert brute_force_cm(d, 1.0).is_pass
        fast = check_cyclic_monotonicity(d, 0.37)
        slow = brute_force_cm(d, 0.37)
        assert fast.status == slow.status == "violation"
        assert fast.witness.indices == slow.witness.indices == (1, 2)
        assert_allclose(fast.witness.cycle_sum, -0.8, atol=1e-9)

    def test_three_cycle_is_decided_by_converged_rounds(self, monkeypatch):
        # Every node's cheapest edge points into 1 <-> 2 (mean -0.1), so one
        # policy round leaves the three-cycle 1 -> 2 -> 3 -> 1 (mean -0.65/3)
        # in the band; converged rounds find it.
        W = np.full((3, 3), 10.0)
        W[0, 1], W[1, 0], W[1, 2], W[2, 0] = -0.5, 0.3, 0.35, -0.5
        d = realize_weights(W, np.random.default_rng(47))
        verdict = check_cyclic_monotonicity(d, 0.15)
        assert verdict.status == brute_force_cm(d, 0.15).status == "violation"
        assert verdict.witness.indices == (1, 2, 3)
        assert_allclose(verdict.witness.cycle_sum, -0.65, atol=1e-9)
        phi = check_cyclic_monotonicity(d, 0.25).potentials
        assert brute_force_cm(d, 0.25).is_pass
        slack = phi[None, :] - phi[:, None] + edge_weights(d)
        assert phi[0] == 0 and np.min(slack) >= -0.25 - ROUNDING
        # Cut short at one round, neither the bound nor the cycle decides.
        monkeypatch.setattr(monotonicity, "MIN_MEAN_MAX_ITERATIONS", 1)
        mm = _min_mean_cycle(edge_weights(d))
        assert mm.cycle == (0, 1) and mm.lower < -0.25
        with pytest.raises(NoProgressError, match="1-round cap"):
            check_cyclic_monotonicity(d, 0.15)


#: Seeded families for the metamorphic relations, each drawn as
#: ``family(rng, n, |A|)``.
METAMORPHIC_FAMILIES = {
    "regret": lambda rng, n, size: regret_dataset(rng, n, size, float(rng.uniform(1.5, 4.0))),
    "negentropy": lambda rng, n, size: pum_dataset("negentropy", rng, n, size),
    "quadratic": lambda rng, n, size: pum_dataset("quadratic", rng, n, size),
    "random": random_probs_dataset,
}


def _metamorphic_cases(family: str, count: int = 30):
    """Yield ``count`` seeded (dataset, tol, verdict, rng) cases of one family,
    n in [2, 40) and |A| in [2, 6), whose |min cycle mean + tol| is far
    above the edge-weight rounding bound err, so rounding cannot decide them."""
    rng = np.random.default_rng([53, list(METAMORPHIC_FAMILIES).index(family)])
    while count:
        d = METAMORPHIC_FAMILIES[family](rng, int(rng.integers(2, 40)), int(rng.integers(2, 6)))
        tol = float(rng.choice([1e-9, 1e-6]))
        verdict = check_cyclic_monotonicity(d, tol)
        if abs(verdict.min_cycle_mean + tol) > 1e3 * _edge_weight_error(d):
            count -= 1
            yield d, tol, verdict, rng


class TestMetamorphicRelations:
    # Each relation holds in real arithmetic, so the check's verdict must
    # not move on cases that rounding cannot decide.

    @pytest.mark.parametrize("family", METAMORPHIC_FAMILIES)
    def test_permuting_observations(self, family):
        # A permutation maps cycles onto cycles with the same sums.  Each
        # witness is a min-mean cycle to within err of the minimum.
        for d, tol, verdict, rng in _metamorphic_cases(family):
            perm = rng.permutation(d.n)
            d2 = Dataset(d.menu, d.values_matrix[perm], d.probs_matrix[perm])
            permuted = check_cyclic_monotonicity(d2, tol)
            assert permuted.status == verdict.status
            if verdict.witness is not None:
                means = [w.cycle_sum / len(w.indices) for w in (verdict.witness, permuted.witness)]
                assert abs(means[1] - means[0]) <= 2 * _edge_weight_error(d)

    @pytest.mark.parametrize("family", METAMORPHIC_FAMILIES)
    def test_permuting_alternatives(self, family):
        for d, tol, verdict, rng in _metamorphic_cases(family):
            perm = rng.permutation(d.menu.size)
            menu = Menu(d.menu.id, tuple(d.menu.alternatives[k] for k in perm))
            d2 = Dataset(menu, d.values_matrix[:, perm], d.probs_matrix[:, perm])
            assert check_cyclic_monotonicity(d2, tol).status == verdict.status

    @pytest.mark.parametrize("family", METAMORPHIC_FAMILIES)
    def test_shifting_each_observations_values(self, family):
        # Adding c_i to every value of observation i adds c_i - c_j to W_ij,
        # so every cycle sum is unchanged.  The shifted values are rounded,
        # so a case is kept only while the larger err cannot decide it.
        kept = 0
        for d, tol, verdict, rng in _metamorphic_cases(family):
            shift = rng.uniform(-100.0, 100.0, (d.n, 1))
            shifted = Dataset(d.menu, d.values_matrix + shift, d.probs_matrix)
            err = max(_edge_weight_error(d), _edge_weight_error(shifted))
            if abs(verdict.min_cycle_mean + tol) > 1e3 * err:
                kept += 1
                assert check_cyclic_monotonicity(shifted, tol).status == verdict.status
        assert kept >= 20

    @pytest.mark.parametrize("family", METAMORPHIC_FAMILIES)
    def test_scaling_values(self, family):
        # Scaling every value by alpha scales every cycle mean by alpha, so
        # the verdict at tol * alpha is the same.
        for d, tol, verdict, _ in _metamorphic_cases(family):
            for alpha in (1e-3, 1e3):
                scaled = Dataset(d.menu, alpha * d.values_matrix, d.probs_matrix)
                assert check_cyclic_monotonicity(scaled, tol * alpha).status == verdict.status


#: Tight edges sit at slack -tol exactly; the potentials and gaps carry a
#: few ulps of rounding either side of it.
ROUNDING = 1e-12


def _assert_stages_agree(d, tol):
    # check equals the exhaustive oracle; a pass yields potentials within the
    # per-edge slack that verify at tol_opt = tol, and a violation makes the
    # fit raise with a witness summing below -tol.
    fast = check_cyclic_monotonicity(d, tol)
    slow = brute_force_cm(d, tol)
    assert fast.status == slow.status
    assert fast.is_pass == (min_mean_by_enumeration(edge_weights(d)) >= -tol)
    if fast.is_pass:
        phi = compute_potentials(d, tol)
        V, P = d.values_matrix, d.probs_matrix
        for i in range(d.n):
            for j in range(d.n):
                assert phi[j] - phi[i] - comp_dot(P[i], V[j] - V[i]) >= -tol - ROUNDING
        report = verify_rationalization(d, phi, tol + ROUNDING, mixtures=50)
        assert report.passed
    else:
        w = fast.witness
        assert w.cycle_sum / len(w.indices) < -tol
        with pytest.raises(NotCyclicallyMonotoneError) as err:
            compute_potentials(d, tol)
        assert err.value.witness.cycle_sum < -tol
        assert err.value.witness.cycle_sum == cycle_sum(d, list(err.value.witness.indices))
    return fast.status


class TestToleranceRule:
    @pytest.mark.parametrize("tol", [1e-9, 0.1, 0.3, 0.39, 0.41, 0.5, 0.75, 1.0, 2.0])
    def test_two_cycle_and_five_cycle_fixture(self, tol):
        # A two-cycle summing to -0.8 (mean -0.4) and a five-cycle summing to
        # -1.4 (mean -0.28): under a cycle-sum rule tol = 1 would fail on the
        # five-cycle while the min-mean cycle stays inside the tolerance.
        W = np.full((5, 5), 10.0)
        W[0, 1] = W[1, 0] = -0.4
        W[1, 2] = W[2, 3] = W[3, 4] = W[4, 0] = -0.25
        d = realize_weights(W, np.random.default_rng(44))
        status = _assert_stages_agree(d, tol)
        assert status == ("pass" if tol > 0.4 else "violation")
        if status == "violation":
            assert check_cyclic_monotonicity(d, tol).witness.indices == (1, 2)

    def test_nan_tolerance_raises(self, violation_fixture):
        # NaN fails every comparison, so it would pass a violation in the
        # rounding band.
        with pytest.raises(ValueError, match="NaN"):
            check_cyclic_monotonicity(violation_fixture, math.nan)

    def test_realized_weights(self):
        rng = np.random.default_rng(46)
        seen = set()
        for _ in range(150):
            n = int(rng.integers(2, 7))
            d = realize_weights(rng.uniform(-1.0, 1.0, (n, n)), rng)
            for tol in (1e-9, 0.05, 0.2, 0.5):
                seen.add((tol, _assert_stages_agree(d, tol)))
        assert len(seen) == 8  # both verdicts at every tolerance

    def test_knife_edge_pass_carries_its_potentials(self):
        # At tol = -mean, the attained min-mean cycle sits exactly on the
        # boundary, so the check lands in its rounding band.  Every pass
        # there carries potentials that the fit reads and that hold every
        # inequality within tol + (mean - lower) + err.
        seen = {"pass": 0, "violation": 0}
        band = 0
        for seed in range(60):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(3, 61))
            for d in (
                regret_dataset(rng, n, 4),
                random_probs_dataset(rng, n, 3),
                mixed_pool_dataset(rng, n, 4),
            ):
                W = edge_weights(d)
                mm = _min_mean_cycle(W)
                if mm.mean >= 0:
                    continue
                tol = -mm.mean
                verdict = check_cyclic_monotonicity(d, tol)
                seen[verdict.status] += 1
                if not verdict.is_pass:
                    continue
                band += verdict.min_cycle_sum is not None
                assert verdict.potentials is not None
                phi = compute_potentials(d, tol, verdict=verdict)
                allowance = tol + (mm.mean - mm.lower) + _edge_weight_error(d)
                assert np.min(phi[None, :] - phi[:, None] + W) >= -allowance
        assert seen["pass"] > 0 and seen["violation"] > 0 and band > 0

    def test_check_pass_is_a_verify_pass_over_a_tolerance_grid(self):
        # check pass => Afriat slack >= -tol_cm => every gap within
        # tol_cm + tol_opt => exit 0, for tol_opt above or below tol_cm.
        rng = np.random.default_rng(12)
        passes = wide = 0
        for family in METAMORPHIC_FAMILIES.values():
            for _ in range(10):
                d = family(rng, int(rng.integers(2, 40)), int(rng.integers(2, 6)))
                W = edge_weights(d)
                for tol_cm, tol_opt in itertools.product((1e-9, 1e-6, 1e-3, 1e-1), (1e-10, 1e-8)):
                    config = RunConfig("verify", tol_cm=tol_cm, tol_opt=tol_opt)
                    section, cm_ok, verify_ok = _analyze_menu(d, config)
                    if not cm_ok:
                        continue
                    passes += 1
                    phi = np.array(section["potentials"]["potentials"])
                    assert np.min(phi[None, :] - phi[:, None] + W) >= -tol_cm - ROUNDING
                    verification = section["verification"]
                    assert verification["tolerance"] == tol_cm + tol_opt
                    assert verify_ok and verification["passed"]
                    wide += max(verification["max_fenchel_gap"], verification["max_optimality_gap"]) > tol_opt
        assert passes >= 200 and wide >= 5, (passes, wide)  # wide: gaps that tol_opt alone fails

    def test_near_tie_is_decided_by_the_certificate(self):
        # A pass from step 1 has no cycle sum; the band would record one.
        verdict = check_cyclic_monotonicity(_near_tie_dataset(), 1e-9)
        assert verdict.is_pass and verdict.min_cycle_sum is None
        assert verdict.min_cycle_mean < 0

    def test_near_tie_fits_from_the_check_certificate(self, monkeypatch):
        # A CLI fit runs one policy iteration: the check's certificate
        # carries the potentials, within a slack a little over the -1.5e-12
        # cycle mean, not tol.
        d = _near_tie_dataset()
        runs = []

        def recorded(W):
            runs.append(W.shape)
            return _min_mean_cycle(W)

        monkeypatch.setattr(monotonicity, "_min_mean_cycle", recorded)
        section, cm_ok, _ = _analyze_menu(d, RunConfig("fit", tol_cm=1e-9))
        assert cm_ok and len(runs) == 1
        phi = np.array(section["potentials"]["potentials"])
        slack = phi[None, :] - phi[:, None] + edge_weights(d)
        assert -2e-12 < np.min(slack) < -1e-12


def _near_tie_dataset():
    # The second observation repeats the first with v_1 raised by 1e-9 and 3e-3
    # of probability moved from a1 to a2: a two-cycle summing to -3e-12,
    # far inside tol = 1e-9 per edge.
    base = pum_dataset("negentropy", np.random.default_rng(45), 1000, 10)
    V, P = base.values_matrix.copy(), base.probs_matrix.copy()
    V[1], P[1] = V[0], P[0]
    V[1, 0] += 1e-9
    P[1, 0] -= 3e-3
    P[1, 1] += 3e-3
    d = Dataset(base.menu, V.tolist(), P.tolist())
    assert -4e-12 < cycle_sum(d, [1, 2]) < -2e-12
    return d


class TestDecidedBy:
    # The verdict and its report name the step of the check that decided it.

    def test_certificate(self):
        verdict = check_cyclic_monotonicity(_near_tie_dataset(), 1e-9)
        assert verdict.is_pass and verdict.min_cycle_sum is None
        assert verdict.decided_by == verdict.to_dict()["decided_by"] == "certificate"

    def test_witness(self):
        verdict = check_cyclic_monotonicity(regret_dataset(np.random.default_rng(37), 40, 4), 1e-9)
        assert verdict.status == "violation"
        assert verdict.decided_by == verdict.to_dict()["decided_by"] == "witness"

    def test_band(self):
        # At tol = -mean the certified bound, net of err > 0, is below -tol
        # and the attained mean is not, so only the band can pass the data.
        d = regret_dataset(np.random.default_rng(0), 52, 4)
        mm = _min_mean_cycle(edge_weights(d))
        verdict = check_cyclic_monotonicity(d, -mm.mean)
        assert verdict.is_pass and verdict.min_cycle_sum is not None
        assert verdict.decided_by == verdict.to_dict()["decided_by"] == "band"

    def test_band_raises_on_a_loose_bound(self, monkeypatch):
        # A converged run whose bound sits far below its cycle's mean 0 must
        # not pass its potentials in the band.
        d = _duplicated_rows_dataset()
        real = monotonicity._min_mean_cycle
        monkeypatch.setattr(monotonicity, "_min_mean_cycle", lambda W: real(W)._replace(lower=-1e-3))
        with pytest.raises(NoProgressError, match="1.0e-03 below the cycle found"):
            check_cyclic_monotonicity(d, 1e-9)


class TestBruteForce:
    def test_fixture_minima(self, softmax_fixture, violation_fixture):
        ok = brute_force_cm(softmax_fixture)
        assert ok.is_pass
        assert_allclose(ok.min_cycle_sum, 0.23106, atol=1e-15)
        bad = brute_force_cm(violation_fixture)
        assert bad.status == "violation"
        assert_allclose(bad.min_cycle_sum, -0.6, atol=1e-15)

    def test_oracle_agreement_small_n(self):
        rng = np.random.default_rng(13)
        statuses = set()
        for _ in range(150):
            d = mixed_pool_dataset(rng, int(rng.integers(1, 7)), int(rng.integers(2, 5)))
            fast = check_cyclic_monotonicity(d, 1e-9)
            slow = brute_force_cm(d, 1e-9)
            assert fast.status == slow.status
            statuses.add(fast.status)
            if fast.status == "violation":
                assert abs(cycle_sum(d, list(fast.witness.indices)) - fast.witness.cycle_sum) <= 1e-12
                assert abs(cycle_sum(d, list(slow.witness.indices)) - slow.witness.cycle_sum) <= 1e-12
        assert statuses == {"pass", "violation"}

    def test_pum_generated_data_pass(self):
        rng = np.random.default_rng(14)
        for kind in ("negentropy", "quadratic"):
            for _ in range(10):
                d = pum_dataset(kind, rng, int(rng.integers(2, 7)), int(rng.integers(2, 5)))
                verdict = brute_force_cm(d, 1e-9)
                assert verdict.is_pass
                assert verdict.min_cycle_sum >= -1e-9

    def test_softmax_model_data_is_cyclically_monotone(self):
        # Normalized exponential strengths are the gradient of log-sum-exp,
        # so data simulated from that family must always pass.
        rng = np.random.default_rng(16)
        for _ in range(15):
            d = luce_dataset(rng, int(rng.integers(2, 7)), int(rng.integers(2, 5)))
            verdict = brute_force_cm(d, 1e-9)
            assert verdict.is_pass
            assert verdict.min_cycle_sum >= -1e-9


class TestTwoPoint:
    def test_softmax_fixture_clean(self, softmax_fixture):
        assert check_two_point_monotonicity(softmax_fixture) == []

    def test_flagged_pair(self):
        # (0.4 - 0.5) * (1 - 0) = -0.1 on the coordinate that moved.
        d = Dataset(menu_of(2), [[0, 0], [1, 0]], [[0.5, 0.5], [0.4, 0.6]])
        violations = check_two_point_monotonicity(d)
        assert len(violations) == 1
        v = violations[0]
        assert (v.first, v.second, v.alternative) == (1, 2, "a1")
        assert_allclose(v.product, -0.1, atol=1e-15)

    def test_vacuous_when_pairs_differ_everywhere(self):
        d = Dataset(menu_of(2), [[0, 0], [1, 1]], [[0.5, 0.5], [0.4, 0.6]])
        assert check_two_point_monotonicity(d) == []

    def test_cm_implies_two_point(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            base = rng.uniform(-2, 2, 3)
            rows = [base.tolist()]
            for step in (0.5, 1.0, 1.5):
                moved = base.copy()
                moved[1] += step
                rows.append(moved.tolist())
            d = Dataset(
                menu_of(3),
                rows,
                [np.exp(r) / np.sum(np.exp(r)) for r in np.array(rows)],
            )
            assert check_cyclic_monotonicity(d, 1e-9).is_pass
            assert check_two_point_monotonicity(d, 1e-9) == []


    def test_matches_pair_loop(self):
        # The pair-by-pair scan this vectorizes: same pairs, order and products.
        d, expected = _two_point_pair_loop()
        got = [(v.first, v.second, v.alternative, v.product) for v in check_two_point_monotonicity(d)]
        assert len(expected) > 5
        assert got == expected

    @pytest.mark.parametrize("block_rows", [1, 7, 64])
    def test_matches_pair_loop_in_small_blocks(self, block_rows, monkeypatch):
        # Row blocks of any size leave pairs, order and products alone.
        d, expected = _two_point_pair_loop()
        monkeypatch.setattr(monotonicity, "ROW_BLOCK_CELLS", block_rows * d.n)
        assert len(row_blocks(d.n)) > 1
        got = [(v.first, v.second, v.alternative, v.product) for v in check_two_point_monotonicity(d)]
        assert got == expected


def _two_point_pair_loop():
    # A menu whose odd rows move one coordinate of the row before, and its
    # two-point violations from the pair-by-pair definition.
    rng = np.random.default_rng(42)
    V = rng.uniform(-3, 3, (80, 4))
    for i in range(1, 80, 2):
        V[i] = V[i - 1]
        V[i, rng.integers(4)] = rng.uniform(-3, 3)
    V[7] = V[2]
    V[7, 1] += 0.5
    d = Dataset(menu_of(4), V.tolist(), rng.dirichlet(np.ones(4), 80).tolist())
    P, labels = d.probs_matrix, d.menu.alternatives
    V = d.values_matrix
    expected = []
    for i in range(d.n):
        for j in range(i + 1, d.n):
            diff = V[i] - V[j]
            moved = np.abs(diff) > 1e-12
            if np.count_nonzero(moved) != 1:
                continue
            a = int(np.argmax(moved))
            product = (P[i, a] - P[j, a]) * diff[a]
            if product < -1e-9:
                expected.append((i + 1, j + 1, labels[a], float(product)))
    return d, expected


class TestWeakStochasticTransitivity:
    def test_flagged_triple(self):
        binary = {
            ("x", "y"): 0.6,
            ("y", "z"): 0.55,
            ("x", "z"): 0.4,
        }
        assert ("x", "y", "z") in check_weak_stochastic_transitivity(binary)

    def test_consistent_triple(self):
        binary = {
            ("x", "y"): 0.6,
            ("y", "z"): 0.55,
            ("x", "z"): 0.7,
        }
        assert check_weak_stochastic_transitivity(binary) == []

    def test_half_boundary_is_satisfied(self):
        binary = {
            ("x", "y"): 0.5,
            ("y", "z"): 0.5,
            ("x", "z"): 0.5,
        }
        assert check_weak_stochastic_transitivity(binary) == []

    def test_inconsistent_pair(self):
        # Orientations that do not sum to one, and a stored p outside [0, 1].
        # The range check catches a NaN reverse orientation, which the
        # sum-to-one check alone misses: abs(nan) > tol is False.
        not_probability = "{} is not a probability in [0, 1]".format
        for binary, message in [
            ({("x", "y"): 0.6, ("y", "x"): 0.6}, "p(x,y) + p(y,x) = 1.2, expected 1 within 1e-09"),
            ({("a", "b"): 1.5, ("b", "c"): 0.9, ("a", "c"): 0.1}, not_probability("p(a,b) = 1.5")),
            ({("a", "b"): 0.6, ("b", "c"): 0.9, ("a", "c"): -3}, not_probability("p(a,c) = -3.0")),
            ({("a", "b"): 0.6, ("b", "a"): float("nan")}, not_probability("p(b,a) = nan")),
            ({("a", "b"): float("inf")}, not_probability("p(a,b) = inf")),
        ]:
            with pytest.raises(ValidationError) as err:
                check_weak_stochastic_transitivity(binary)
            assert str(err.value) == message

    def test_self_pair_rejected(self):
        with pytest.raises(ValidationError, match="^pair \\('x', 'x'\\) compares an item to itself$"):
            check_weak_stochastic_transitivity({("x", "x"): 0.5})


def test_wst_one_sided_storage_implies_complement():
    # Only one orientation stored per pair; complements are derived.
    binary = {("x", "y"): 0.6, ("y", "z"): 0.55, ("z", "x"): 0.6}
    assert ("x", "y", "z") in check_weak_stochastic_transitivity(binary)


def _wst_outcome(check, binary):
    try:
        return check(binary)
    except ValidationError as exc:
        return type(exc), str(exc)


def test_wst_matches_the_permutation_oracle():
    # 1-8 labels with missing pairs, p at 1/2 and 1/2 +- 1e-10, one- and
    # two-sided storage (the reverse off 1 - p by up to 5e-10, inside the
    # tolerance), and some inconsistent pairs: the same triples in the same
    # order, or the same error.
    rng = np.random.default_rng(90)
    for _ in range(600):
        labels = [f"a{k}" for k in range(int(rng.integers(1, 9)))]
        binary = {}
        for i, x in enumerate(labels):
            for y in labels[i + 1 :]:
                kind = rng.integers(6)
                if kind == 0:
                    continue  # missing
                p = [0.5, 0.5 + 1e-10, 0.5 - 1e-10, float(rng.uniform())][rng.integers(4)]
                x1, y1 = (x, y) if rng.integers(2) else (y, x)
                binary[(x1, y1)] = p
                if kind == 1:
                    binary[(y1, x1)] = 1.0 - p + [0.0, 5e-10, -5e-10][rng.integers(3)]
                elif kind == 2 and rng.integers(20) == 0:
                    binary[(y1, x1)] = p + 0.1  # inconsistent
        got = _wst_outcome(check_weak_stochastic_transitivity, binary)
        assert got == _wst_outcome(wst_by_permutations, binary)


def test_two_point_treats_sub_tolerance_drift_as_equal():
    # The off-coordinate differs by 1e-13, below the exact-equality slack,
    # so the pair still qualifies for the single-coordinate scan.
    d = Dataset(
        menu_of(2),
        [[0.0, 0.0], [1.0, 1e-13]],
        [[0.5, 0.5], [0.4, 0.6]],
    )
    violations = check_two_point_monotonicity(d)
    assert [(v.first, v.second) for v in violations] == [(1, 2)]


def test_witness_reversal_need_not_be_negative():
    # Frozen fixture: the reported orientation certifies the violation, but
    # walking the same cycle backwards gives a positive sum.
    d = Dataset(
        menu_of(2),
        [
            [3.864108, 1.869227],
            [-1.156596, -1.891532],
            [3.266338, 3.639459],
            [0.626552, -2.726422],
        ],
        [
            [0.667097, 0.332903],
            [0.161039, 0.838961],
            [0.498542, 0.501458],
            [0.406096, 0.593904],
        ],
    )
    verdict = check_cyclic_monotonicity(d, 1e-9)
    assert verdict.status == "violation"
    assert len(verdict.witness.indices) >= 3
    forward = cycle_sum(d, list(verdict.witness.indices))
    backward = cycle_sum(d, list(reversed(verdict.witness.indices)))
    assert forward < -1e-9
    assert backward > 0
