"""Seeded benchmark inputs and their ground truth, built with numpy alone.

Nothing here imports cyclorat: the datasets and the verdicts they must get
come from the benchmark's own code, so a defect in the program under test
cannot shape either.  Files are written in the dataset CSV format of the
README (``menu_id,obs_id,alternative,value,prob``) with ``repr`` floats,
which round-trip exactly.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: A violation menu is kept only if some two-cycle sums below minus this,
#: a thousand times the CLI's default cycle-sum tolerance.
VIOLATION_MARGIN = 1e-6
VALUE_RANGE = (-3.0, 3.0)


@dataclass(frozen=True)
class MenuData:
    menu_id: str
    alternatives: tuple[str, ...]
    values: np.ndarray  # n x |A|
    probs: np.ndarray  # n x |A|, rows on the simplex
    expect_pass: bool  # ground-truth cyclic-monotonicity verdict

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class WorkloadInput:
    command: str  # CLI subcommand
    menus: tuple[MenuData, ...]
    # Expected weak-stochastic-transitivity triples; None when no binary menus.
    wst_triples: frozenset[tuple[str, str, str]] | None = None

    @property
    def rows(self) -> int:
        return sum(m.values.size for m in self.menus)

    @property
    def expected_exit(self) -> int:
        return 0 if all(m.expect_pass for m in self.menus) else 3


def softmax(V: np.ndarray) -> np.ndarray:
    """Negentropy perturbed-utility (and Luce) choice: p proportional to exp(v)."""
    z = np.exp(V - V.max(axis=1, keepdims=True))
    return z / z.sum(axis=1, keepdims=True)


def projection(V: np.ndarray) -> np.ndarray:
    """Quadratic-cost perturbed-utility choice: Euclidean projection onto the simplex."""
    U = -np.sort(-V, axis=1)
    css = np.cumsum(U, axis=1) - 1.0
    k = np.arange(1, V.shape[1] + 1)
    rho = (U - css / k > 0).sum(axis=1)
    theta = css[np.arange(V.shape[0]), rho - 1] / rho
    return np.maximum(V - theta[:, None], 0.0)


def pairwise_regret(V: np.ndarray, theta: float) -> np.ndarray:
    """Strengths exp(v_a + theta * sum_b tanh(v_a - v_b)), normalized."""
    return softmax(V + theta * np.tanh(V[:, :, None] - V[:, None, :]).sum(axis=2))


def min_two_cycle_sum(V: np.ndarray, P: np.ndarray) -> float:
    """Smallest <p^i - p^j, v^i - v^j> over pairs i != j."""
    W = (P * V).sum(axis=1)[:, None] - P @ V.T  # W[i, j] = <p^i, v^i - v^j>
    two = W + W.T
    np.fill_diagonal(two, np.inf)
    return float(two.min())


def design(rng: np.random.Generator, n: int, size: int, moves: bool = False) -> np.ndarray:
    """Uniform value vectors; with ``moves`` every odd row changes one
    coordinate of the row before it, so the two-point scan has pairs."""
    V = rng.uniform(*VALUE_RANGE, size=(n, size))
    if moves:
        for i in range(1, n, 2):
            V[i] = V[i - 1]
            V[i, rng.integers(size)] = rng.uniform(*VALUE_RANGE)
    return V


def _labels(size: int) -> tuple[str, ...]:
    return tuple(f"a{k + 1}" for k in range(size))


def passing_menu(menu_id, rng, n, size, choice=softmax, moves=False) -> MenuData:
    # Choices that maximize <v, p> - C(p) for a convex C are cyclically
    # monotone by construction, so the ground truth is a pass.
    V = design(rng, n, size, moves)
    return MenuData(menu_id, _labels(size), V, choice(V), True)


def regret_menu(menu_id, rng, n, size, theta=3.0, moves=False) -> MenuData:
    for _ in range(100):
        V = design(rng, n, size, moves)
        P = pairwise_regret(V, theta)
        if min_two_cycle_sum(V, P) < -VIOLATION_MARGIN:
            return MenuData(menu_id, _labels(size), V, P, False)
    raise RuntimeError(f"no certified violation for menu {menu_id!r}")


def wst_menus(rng) -> tuple[tuple[MenuData, ...], frozenset]:
    """Three single-observation binary menus whose majorities form a cycle
    x > y > z > x, which weak stochastic transitivity forbids."""
    pairs = (("x", "y"), ("y", "z"), ("z", "x"))
    menus = []
    binary: dict[tuple[str, str], float] = {}
    for a, b in pairs:
        p = float(rng.uniform(0.6, 0.9))
        binary[(a, b)], binary[(b, a)] = p, 1.0 - p
        V = rng.uniform(*VALUE_RANGE, size=(1, 2))
        menus.append(MenuData(f"wst_{a}{b}", (a, b), V, np.array([[p, 1.0 - p]]), True))
    triples = frozenset(
        (x, y, z)
        for x, y, z in itertools.permutations("xyz", 3)
        if binary[(x, y)] >= 0.5 and binary[(y, z)] >= 0.5 and binary[(x, z)] < 0.5
    )
    return tuple(menus), triples


def check_n1000(rng, n=1000) -> WorkloadInput:
    return WorkloadInput(
        "check",
        (passing_menu("pum", rng, n, 10), regret_menu("regret", rng, n, 10)),
    )


def verify_n200(rng, n=200) -> WorkloadInput:
    return WorkloadInput("verify", (passing_menu("pum", rng, n, 10),))


def report_menus(rng, n=150, n_small=10, count=6) -> WorkloadInput:
    menus = []
    for k in range(count):
        choice = softmax if k % 2 == 0 else projection
        menus.append(passing_menu(f"lowdim_{k:02d}", rng, n, 4, choice, moves=True))
    for k in range(count):
        menus.append(passing_menu(f"luce_{k:02d}", rng, n_small, 3))
    for k in range(count - 1):
        menus.append(regret_menu(f"regret_{k:02d}", rng, n, 4, moves=True))
    binary, triples = wst_menus(rng)
    return WorkloadInput("report-all", tuple(menus) + binary, triples)


WORKLOADS = {"check_n1000": check_n1000, "verify_n200": verify_n200, "report_menus": report_menus}


def write_csv(path: Path, menus) -> str:
    """Write the dataset CSV; returns its sha256."""
    lines = ["menu_id,obs_id,alternative,value,prob"]
    for m in menus:
        for k, (values, probs) in enumerate(zip(m.values.tolist(), m.probs.tolist()), start=1):
            for label, v, p in zip(m.alternatives, values, probs):
                lines.append(f"{m.menu_id},{k},{label},{v!r},{p!r}")
    data = ("\n".join(lines) + "\n").encode()
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()
