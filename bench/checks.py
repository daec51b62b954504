"""Independent checks of one CLI invocation's outputs.

Each check is recomputed from the benchmark's own copy of the input (see
``inputs.py``), never from cyclorat.  The list of checks depends only on the
workload, so a wrong exit code, a missing or unreadable report, or a crash
fails every check of that invocation instead of skipping them.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from inputs import MenuData, WorkloadInput

TOL_CM = 1e-9  # the CLI's default --tol-cm
TOL_OPT = 1e-8  # the CLI's default --tol-opt
MIXTURES = 1000  # the CLI's default sampled pool
COORD_TOL = 1e-12  # coordinates closer than this count as equal
SERIES_SAMPLE = 64  # two-cycle rows recomputed per menu


def fsum_cycle(m: MenuData, cycle: list[int]) -> float:
    """Definitional cycle sum over 1-based indices, exactly rounded."""
    terms: list[float] = []
    for pos, i in enumerate(cycle):
        j = cycle[(pos + 1) % len(cycle)]
        terms.extend((m.probs[i - 1] * (m.values[i - 1] - m.values[j - 1])).tolist())
    return math.fsum(terms)


def two_point_pairs(m: MenuData) -> set[tuple[int, int]]:
    """1-based pairs differing in exactly one coordinate whose product
    (p_a(v) - p_a(v')) (v_a - v'_a) is below -TOL_CM."""
    diff = m.values[:, None, :] - m.values[None, :, :]
    moved = np.abs(diff) > COORD_TOL
    single = moved.sum(axis=2) == 1
    prod = ((m.probs[:, None, :] - m.probs[None, :, :]) * diff * moved).sum(axis=2)
    i, j = np.nonzero(np.triu(single & (prod < -TOL_CM), k=1))
    return {(int(a) + 1, int(b) + 1) for a, b in zip(i, j)}


def _witness_ok(m: MenuData, section: dict) -> bool:
    w = section["cyclic_monotonicity"]["witness"]
    cycle = [int(i) for i in w["cycle"]]
    if len(cycle) < 2 or len(set(cycle)) != len(cycle) or not all(1 <= i <= m.n for i in cycle):
        return False
    s = fsum_cycle(m, cycle)
    return s < -TOL_CM and abs(s - float(w["cycle_sum"])) <= TOL_CM


def _afriat_ok(m: MenuData, section: dict) -> bool:
    # phi_j >= phi_i + <p^i, v^j - v^i> - TOL_CM for every ordered pair.
    phi = np.asarray(section["potentials"]["potentials"], dtype=float)
    if phi.shape != (m.n,):
        return False
    P, V = m.probs, m.values
    u = P @ V.T - (P * V).sum(axis=1)[:, None]
    slack = phi[None, :] - phi[:, None] - u
    return bool(slack.min() >= -TOL_CM)


def _gaps_ok(m: MenuData, section: dict) -> bool:
    v = section["verification"]
    gaps = [float(g) for key in ("fenchel_gaps", "optimality_gaps") for g in v[key]]
    return (
        len(v["fenchel_gaps"]) == m.n
        and len(v["optimality_gaps"]) == m.n
        and max(gaps) <= TOL_OPT
        and float(v["max_fenchel_gap"]) <= TOL_OPT
        and float(v["max_optimality_gap"]) <= TOL_OPT
    )


def _two_point_ok(m: MenuData, section: dict) -> bool:
    reported = set()
    for v in section["two_point_violations"]:
        i, j = int(v["first"]), int(v["second"])
        moved = np.flatnonzero(np.abs(m.values[i - 1] - m.values[j - 1]) > COORD_TOL)
        if moved.size != 1 or m.alternatives[moved[0]] != v["alternative"]:
            return False
        reported.add((i, j))
    return reported == two_point_pairs(m)


def read_series(path: Path) -> dict[str, dict[str, float]]:
    """menu_id -> {"i-j": two-cycle sum} from the series CSV."""
    out: dict[str, dict[str, float]] = {}
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        if next(reader) != ["menu_id", "series", "key", "value"]:
            raise ValueError("series CSV header")
        for menu_id, series, key, value in reader:
            if series == "two_cycle_sum":
                out.setdefault(menu_id, {})[key] = float(value)
    return out


def _series_ok(m: MenuData, rows: dict[str, float], rng: np.random.Generator) -> bool:
    if len(rows) != m.n * (m.n - 1) // 2:
        return False
    keys = list(rows)
    for k in rng.choice(len(keys), size=min(SERIES_SAMPLE, len(keys)), replace=False):
        i, j = (int(x) for x in keys[k].split("-"))
        if abs(rows[keys[k]] - fsum_cycle(m, [i, j])) > TOL_CM:
            return False
    return True


def plan(w: WorkloadInput) -> list[str]:
    """Names of the checks one invocation of this workload must pass."""
    names = ["exit_code"]
    deep = w.command in ("verify", "report-all")
    for m in w.menus:
        names.append(f"{m.menu_id}.verdict")
        if not m.expect_pass:
            names.append(f"{m.menu_id}.witness")
        elif deep:
            names += [f"{m.menu_id}.afriat", f"{m.menu_id}.gaps", f"{m.menu_id}.mixtures"]
        if w.command == "report-all":
            names += [f"{m.menu_id}.two_point", f"{m.menu_id}.series"]
    if w.wst_triples is not None:
        names.append("wst")
    return names


def check_invocation(
    w: WorkloadInput, exit_code: int, report_path: Path, seed: int
) -> dict[str, bool]:
    """Run every check in ``plan(w)``; returns name -> passed."""
    names = plan(w)
    try:
        report = json.loads(report_path.read_text(encoding="utf-8"))
        sections = {s["menu_id"]: s for s in report["menus"]}
        series = (
            read_series(report_path.with_suffix(".series.csv"))
            if w.command == "report-all"
            else {}
        )
    except (OSError, ValueError, KeyError, TypeError):
        return dict.fromkeys(names, False)
    if exit_code != w.expected_exit:
        return dict.fromkeys(names, False)

    rng = np.random.default_rng(seed)
    menus = {m.menu_id: m for m in w.menus}

    def run(name: str) -> bool:
        if name == "exit_code":
            return True
        if name == "wst":
            got = report["weak_stochastic_transitivity"]["violations"]
            return {tuple(t) for t in got} == w.wst_triples and len(got) == len(w.wst_triples)
        menu_id, what = name.rsplit(".", 1)
        m, section = menus[menu_id], sections[menu_id]
        if what == "verdict":
            return section["cyclic_monotonicity"]["status"] == (
                "pass" if m.expect_pass else "violation"
            )
        if what == "witness":
            return _witness_ok(m, section)
        if what == "afriat":
            return _afriat_ok(m, section)
        if what == "gaps":
            return _gaps_ok(m, section)
        if what == "mixtures":
            return int(section["verification"]["n_mixture_points"]) == MIXTURES
        if what == "two_point":
            return _two_point_ok(m, section)
        if what == "series":
            return _series_ok(m, series.get(menu_id, {}), rng)
        raise ValueError(name)

    out = {}
    for name in names:
        try:
            out[name] = bool(run(name))
        except (KeyError, TypeError, ValueError, IndexError):
            out[name] = False
    return out
