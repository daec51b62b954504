"""Shared fixtures and seeded dataset generators."""

from __future__ import annotations

import numpy as np
import pytest

from cyclorat import (
    Dataset,
    LuceExponential,
    Menu,
    PairwiseRegret,
    simplex_projection,
    simulate_dataset,
    softmax_probabilities,
)


def menu_of(size: int, menu_id: str = "m") -> Menu:
    return Menu(menu_id, tuple(f"a{k + 1}" for k in range(size)))


@pytest.fixture
def softmax_fixture() -> Dataset:
    # Two observations of the exponential-strength model, probabilities
    # rounded to five decimals; the rounding keeps the data cyclically
    # monotone with a wide margin.
    return Dataset(
        menu_of(2),
        [[0.0, 0.0], [1.0, 0.0]],
        [[0.5, 0.5], [0.73106, 0.26894]],
    )


@pytest.fixture
def violation_fixture() -> Dataset:
    # Hand-built two-cycle violation: the 1 -> 2 -> 1 sum is
    # (0.3 - 0.7) + (-0.6 + 0.4) = -0.6.
    return Dataset(
        menu_of(2),
        [[1.0, 0.0], [0.0, 1.0]],
        [[0.3, 0.7], [0.6, 0.4]],
    )


#: The closed-form perturbed-utility choice of each strictly convex cost.
CLOSED_FORMS = {"negentropy": softmax_probabilities, "quadratic": simplex_projection}


def pum_dataset(kind: str, rng: np.random.Generator, n: int, size: int, menu_id: str = "m") -> Dataset:
    """Dataset generated by the closed-form perturbed-utility solver of ``kind``."""
    values = [rng.uniform(-4.0, 4.0, size) for _ in range(n)]
    return Dataset(menu_of(size, menu_id), values, [CLOSED_FORMS[kind](v) for v in values])


def luce_dataset(rng: np.random.Generator, n: int, size: int, menu_id: str = "m") -> Dataset:
    values = rng.uniform(-4.0, 4.0, (n, size)).tolist()
    return simulate_dataset(LuceExponential(), menu_of(size, menu_id), values)


def regret_dataset(rng: np.random.Generator, n: int, size: int, theta: float = 3.0) -> Dataset:
    values = rng.uniform(-3.0, 3.0, (n, size)).tolist()
    return simulate_dataset(PairwiseRegret(theta=theta), menu_of(size), values)


def random_probs_dataset(rng: np.random.Generator, n: int, size: int) -> Dataset:
    """Values and probabilities drawn independently; usually not monotone."""
    values, probs = [], []
    for _ in range(n):  # one value draw, then one Dirichlet draw, per observation
        values.append(rng.uniform(-4.0, 4.0, size))
        probs.append(rng.dirichlet(np.ones(size)))
    return Dataset(menu_of(size), values, probs)


def mixed_pool_dataset(rng: np.random.Generator, n: int, size: int) -> Dataset:
    """Draw from the generator families so both verdicts appear."""
    pick = rng.integers(0, 4)
    if pick == 0:
        return luce_dataset(rng, n, size)
    if pick == 1:
        return pum_dataset("quadratic", rng, n, size)
    if pick == 2:
        return regret_dataset(rng, n, size, theta=float(rng.uniform(1.5, 4.0)))
    return random_probs_dataset(rng, n, size)


def realize_weights(W_target: np.ndarray, rng: np.random.Generator) -> Dataset:
    """Data whose edge weights are W_target up to rounding.

    With P of full row rank (|A| > n), V solves P V^T = M for M = -W_target
    off the diagonal, and W[i, j] = M[i, i] - M[i, j].
    """
    n = W_target.shape[0]
    P = rng.dirichlet(np.ones(n + 1), n)
    M = -np.where(np.eye(n, dtype=bool), 0.0, W_target)
    V = (np.linalg.pinv(P) @ M).T
    return Dataset(menu_of(n + 1), V.tolist(), P.tolist())


def benchmark_lowdim_menu(seed: int, k: int) -> Dataset:
    """Menu ``lowdim_0k`` of the benchmark's ``report_menus`` workload.

    Rebuilt with numpy as ``bench/inputs.py`` draws it from
    ``default_rng(seed)``: 150 value vectors of 4 alternatives uniform on
    [-3, 3], each odd row moving one coordinate of the row before it, with
    softmax choices for even k and simplex projections for odd k.
    """
    rng = np.random.default_rng(seed)
    n, size = 150, 4
    for _ in range(k + 1):
        V = rng.uniform(-3.0, 3.0, (n, size))
        for i in range(1, n, 2):
            V[i] = V[i - 1]
            V[i, rng.integers(size)] = rng.uniform(-3.0, 3.0)
    if k % 2 == 0:
        Z = np.exp(V - V.max(axis=1, keepdims=True))
        P = Z / Z.sum(axis=1, keepdims=True)
    else:
        U = -np.sort(-V, axis=1)
        css = np.cumsum(U, axis=1) - 1.0
        rho = (U - css / np.arange(1, size + 1) > 0).sum(axis=1)
        theta = css[np.arange(n), rho - 1] / rho
        P = np.maximum(V - theta[:, None], 0.0)
    return Dataset(menu_of(size, f"lowdim_{k:02d}"), V.tolist(), P.tolist())
