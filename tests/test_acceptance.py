"""Acceptance suite: the eight gate criteria at their stated tolerances.

Each test prints one pass/fail line (run with ``pytest -s`` to see them all).
Every expected value is produced by an independent route: closed-form scalar
arithmetic, exhaustive enumeration, breakpoint-exact Legendre transforms, or
the hand-built fixtures.
"""

import json
import math
import time

import numpy as np

from cyclorat import (
    LuceExponential,
    check_cyclic_monotonicity,
    check_two_point_monotonicity,
    check_weak_stochastic_transitivity,
    choice_probabilities,
    compute_potentials,
    conjugate_cost,
    cycle_sum,
    pum_solve_closed,
    verify_rationalization,
)
from cyclorat.cli import EXIT_REJECTED, main
from cyclorat.rationalization import _max_affine_data

from conftest import luce_dataset, mixed_pool_dataset, pum_dataset
from oracles import brute_force_cm, conjugate_exact_2alt, conjugate_grid_2alt


def _report(name: str, ok: bool, elapsed: float, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"criterion {name}: {status} ({elapsed:.2f}s){suffix}")


def test_criterion_1_duality_golden_pair():
    # 1000 seeded value vectors, |A| in 2..8, entries in [-10, 10]: the
    # normalized exponential strengths equal the entropy-cost solver output.
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    model = LuceExponential()
    for _ in range(1000):
        size = int(rng.integers(2, 9))
        v = rng.uniform(-10.0, 10.0, size)
        via_model = choice_probabilities(model, v)
        via_pum = pum_solve_closed("negentropy", v)
        worst = max(worst, float(np.max(np.abs(via_model - via_pum))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 1.0
    _report("1 (duality golden pair)", ok, elapsed, f"max deviation {worst:.3e}")
    assert worst <= 1e-10
    assert elapsed < 1.0


def test_criterion_2_converse_direction():
    # 200 datasets generated by the closed-form solvers stay cyclically
    # monotone, with every cycle sum certified above -1e-9.
    rng = np.random.default_rng(102)
    t0 = time.perf_counter()
    lowest = math.inf
    for k in range(200):
        kind = "negentropy" if k % 2 == 0 else "quadratic"
        n = int(rng.integers(1, 31))
        size = int(rng.integers(2, 7))
        d = pum_dataset(kind, rng, n, size)
        verdict = check_cyclic_monotonicity(d, 1e-9)
        assert verdict.is_pass
        if verdict.min_cycle_sum is not None:
            detected = verdict.min_cycle_sum
        elif verdict.min_cycle_mean is not None:
            # No cycle materialized: n * min_mean bounds every cycle sum.
            detected = d.n * min(verdict.min_cycle_mean, 0.0)
        else:
            detected = 0.0
        lowest = min(lowest, detected)
        assert detected >= -1e-9
    elapsed = time.perf_counter() - t0
    ok = lowest >= -1e-9 and elapsed < 5.0
    _report("2 (converse direction)", ok, elapsed, f"lowest detected sum {lowest:.3e}")
    assert elapsed < 5.0


def test_criterion_3_forward_round_trip():
    # 200 cyclically monotone datasets: potentials fit, then the Afriat
    # shortfall (the Fenchel gap, which bounds |C(p^i) - c_i| at every
    # vertex) and sampled optimality over all vertices plus 1e3 LP-solved
    # mixtures hold to 1e-8.
    rng = np.random.default_rng(103)
    t0 = time.perf_counter()
    worst_fenchel = 0.0
    worst_opt = 0.0
    for k in range(200):
        n = int(rng.integers(1, 31))
        size = int(rng.integers(2, 7))
        if k % 3 == 0:
            d = luce_dataset(rng, n, size)
        else:
            d = pum_dataset("negentropy" if k % 3 == 1 else "quadratic", rng, n, size)
        phi = compute_potentials(d, 1e-9)
        report = verify_rationalization(d, phi, 1e-8, mixtures=1000, rng=rng)
        assert report.n_mixture_points == 1000
        worst_fenchel = max(worst_fenchel, report.max_fenchel_gap)
        worst_opt = max(worst_opt, report.max_optimality_gap)
        assert report.max_fenchel_gap <= 1e-8
        assert report.max_optimality_gap <= 1e-8
    elapsed = time.perf_counter() - t0
    ok = worst_fenchel <= 1e-8 and worst_opt <= 1e-8 and elapsed < 30.0
    _report(
        "3 (forward round-trip)",
        ok,
        elapsed,
        f"max fenchel {worst_fenchel:.3e}, max optimality {worst_opt:.3e}",
    )
    assert elapsed < 30.0


def test_criterion_4_oracle_equivalence():
    # 500 mixed datasets with n <= 6: the relaxation-based check agrees with
    # exhaustive enumeration, and witnesses recompute below -tolerance.
    rng = np.random.default_rng(104)
    t0 = time.perf_counter()
    seen = {"pass": 0, "violation": 0}
    for _ in range(500):
        n = int(rng.integers(1, 7))
        size = int(rng.integers(2, 5))
        d = mixed_pool_dataset(rng, n, size)
        fast = check_cyclic_monotonicity(d, 1e-9)
        slow = brute_force_cm(d, 1e-9)
        assert fast.status == slow.status
        seen[fast.status] += 1
        for verdict in (fast, slow):
            if verdict.witness is not None:
                recomputed = cycle_sum(d, list(verdict.witness.indices))
                assert recomputed < -1e-9
                assert abs(recomputed - verdict.witness.cycle_sum) <= 1e-12
    elapsed = time.perf_counter() - t0
    ok = seen["pass"] > 0 and seen["violation"] > 0 and elapsed < 10.0
    _report(
        "4 (oracle equivalence)",
        ok,
        elapsed,
        f"{seen['pass']} pass / {seen['violation']} violation",
    )
    assert seen["pass"] > 0 and seen["violation"] > 0
    assert elapsed < 10.0


def test_criterion_5_conjugate_brute_force_oracle():
    # 20 two-alternative datasets, n <= 3, 50 feasible points each.  The
    # conjugate LP is compared against the exact Legendre transform of the
    # max-affine extension (breakpoint enumeration) at 1e-8, and against the
    # [-50, 50]^2 step-1e-3 grid transform on the sound side: the grid scan
    # can only undershoot the supremum (by O(step) at generic points), so
    # the exact comparison is the stricter oracle of the two.
    rng = np.random.default_rng(105)
    t0 = time.perf_counter()
    worst_exact = 0.0
    worst_grid_overshoot = -math.inf
    for k in range(20):
        n = int(rng.integers(1, 4))
        d = (
            luce_dataset(rng, n, 2)
            if k % 2 == 0
            else pum_dataset("negentropy", rng, n, 2)
        )
        phi = compute_potentials(d, 1e-9)
        G, c = _max_affine_data(phi, d)
        points = [G[i] for i in range(n)]
        while len(points) < 50:
            points.append(rng.dirichlet(np.ones(n)) @ G)
        for q in points:
            lp_value = conjugate_cost(phi, d, q)
            exact = conjugate_exact_2alt(G[:, 0], c, float(q[0]))
            grid = conjugate_grid_2alt(G[:, 0], c, float(q[0]))
            assert math.isfinite(lp_value) and math.isfinite(exact)
            worst_exact = max(worst_exact, abs(lp_value - exact))
            worst_grid_overshoot = max(worst_grid_overshoot, grid - lp_value)
            assert abs(lp_value - exact) <= 1e-8
            assert grid <= lp_value + 1e-9
    elapsed = time.perf_counter() - t0
    ok = worst_exact <= 1e-8 and worst_grid_overshoot <= 1e-9 and elapsed < 60.0
    _report(
        "5 (conjugate brute-force oracle)",
        ok,
        elapsed,
        f"max |lp - exact| {worst_exact:.3e}, max grid overshoot {worst_grid_overshoot:.3e}",
    )
    assert elapsed < 60.0


def test_criterion_6_violation_fixture_end_to_end(tmp_path):
    # The hand-built two-observation violation, through the CLI.
    t0 = time.perf_counter()
    data = tmp_path / "violation.csv"
    data.write_text(
        "menu_id,obs_id,alternative,value,prob\n"
        "m,1,x,1,0.3\n"
        "m,1,y,0,0.7\n"
        "m,2,x,0,0.6\n"
        "m,2,y,1,0.4\n"
    )
    out = tmp_path / "report.json"
    code = main(["check", "--input", str(data), "--output", str(out)])
    report = json.loads(out.read_text())
    witness = report["menus"][0]["cyclic_monotonicity"]["witness"]
    elapsed = time.perf_counter() - t0
    ok = (
        code == EXIT_REJECTED
        and witness["cycle"] == [1, 2]
        and abs(witness["cycle_sum"] - (-0.6)) <= 1e-12
    )
    _report("6 (violation fixture end-to-end)", ok, elapsed, f"exit {code}")
    assert code == EXIT_REJECTED
    assert witness["cycle"] == [1, 2]
    assert abs(witness["cycle_sum"] - (-0.6)) <= 1e-12


def test_criterion_7_diagnostics_consistency():
    # Monotone datasets produce no two-point violations; the canonical weak
    # stochastic transitivity triples behave as stated.
    rng = np.random.default_rng(107)
    t0 = time.perf_counter()
    for k in range(40):
        kind = "negentropy" if k % 2 == 0 else "quadratic"
        d = pum_dataset(kind, rng, int(rng.integers(2, 15)), int(rng.integers(2, 5)))
        assert check_cyclic_monotonicity(d, 1e-9).is_pass
        assert check_two_point_monotonicity(d, 1e-9) == []
    flagged = check_weak_stochastic_transitivity(
        {("x", "y"): 0.6, ("y", "z"): 0.55, ("x", "z"): 0.4}
    )
    clean = check_weak_stochastic_transitivity(
        {("x", "y"): 0.6, ("y", "z"): 0.55, ("x", "z"): 0.7}
    )
    elapsed = time.perf_counter() - t0
    ok = ("x", "y", "z") in flagged and clean == []
    _report("7 (diagnostics consistency)", ok, elapsed)
    assert ("x", "y", "z") in flagged
    assert clean == []


def test_criterion_8_scale():
    # n = 200, |A| = 10: the monotonicity check inside one second, fit plus
    # verification inside two minutes.
    rng = np.random.default_rng(108)
    d = pum_dataset("negentropy", rng, 200, 10)
    t0 = time.perf_counter()
    verdict = check_cyclic_monotonicity(d, 1e-9)
    check_elapsed = time.perf_counter() - t0
    assert verdict.is_pass

    t1 = time.perf_counter()
    phi = compute_potentials(d, 1e-9)
    report = verify_rationalization(d, phi, 1e-8, mixtures=1000, rng=rng)
    fit_verify_elapsed = time.perf_counter() - t1
    ok = (
        check_elapsed < 1.0
        and fit_verify_elapsed < 120.0
        and report.max_fenchel_gap <= 1e-8
        and report.max_optimality_gap <= 1e-8
    )
    _report(
        "8 (scale)",
        ok,
        check_elapsed + fit_verify_elapsed,
        f"check {check_elapsed:.2f}s, fit+verify {fit_verify_elapsed:.2f}s",
    )
    assert check_elapsed < 1.0
    assert fit_verify_elapsed < 120.0
    assert report.max_fenchel_gap <= 1e-8
    assert report.max_optimality_gap <= 1e-8
