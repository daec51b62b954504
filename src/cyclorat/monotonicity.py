"""Cyclic-monotonicity tests, witness extraction, and related diagnostics.

A dataset of (value vector, choice probabilities) pairs is cyclically
monotone when every cycle i1 -> i2 -> ... -> ik -> i1 of observations has

    sum_j <p^{i_j}, v^{i_j} - v^{i_{j+1}}>  >=  0.

Equivalently, the complete digraph on observations with edge weight
w(i -> j) = <p^i, v^i - v^j> has no negative cycle.  The fast check runs a
vectorized Bellman-Ford relaxation and extracts candidate cycles from the
predecessor structure; a Karp minimum-mean-cycle pass supplies a diagnostic
and, net of the edge-weight rounding bound, a certified lower bound on every
cycle sum; candidate sums are recomputed with compensated summation.  The
exhaustive ``brute_force_cm`` enumerates all simple cycles and serves as the
independent oracle at small n.

Observation indices in cycles, witnesses, and violation reports are 1-based
positions into ``Dataset.observations``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import TOL_CM, TOL_SIMPLEX, Dataset
from .errors import IndexOutOfRangeError, InconsistentPairError, TooLargeError


@dataclass(frozen=True)
class CycleWitness:
    """A cycle of 1-based observation indices certifying a violation.

    ``indices`` lists each node once; the cycle closes from the last index
    back to the first.  ``cycle_sum`` is the definitional sum recomputed
    with compensated summation.
    """

    indices: tuple[int, ...]
    cycle_sum: float

    def __post_init__(self):
        if len(self.indices) < 2:
            raise ValueError("a cycle needs at least two observations")
        if len(set(self.indices)) != len(self.indices):
            raise ValueError("cycle indices must be distinct")


@dataclass(frozen=True)
class CMVerdict:
    """Outcome of a cyclic-monotonicity check.

    ``status`` is ``"pass"`` or ``"violation"``; a violation carries a
    ``witness``.  ``min_cycle_mean`` is the most negative mean-weight cycle
    found (None when no cycle exists, i.e. n = 1).  ``min_cycle_sum`` is the
    smallest recomputed sum among cycles the check materialized; exhaustive
    search always fills it, the fast check only when it extracted candidates.
    """

    status: str
    witness: CycleWitness | None
    min_cycle_mean: float | None
    min_cycle_sum: float | None

    @property
    def is_pass(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict:
        out: dict = {
            "status": self.status,
            "min_cycle_mean": self.min_cycle_mean,
            "min_cycle_sum": self.min_cycle_sum,
        }
        if self.witness is not None:
            out["witness"] = {
                "cycle": list(self.witness.indices),
                "cycle_sum": self.witness.cycle_sum,
            }
        return out


@dataclass(frozen=True)
class TwoPointViolation:
    """A pair of observations breaking single-coordinate monotonicity."""

    first: int
    second: int
    alternative: str
    product: float


def cycle_sum(dataset: Dataset, cycle: Sequence[int]) -> float:
    """Definitional sum over a cycle of 1-based observation indices.

    Computes sum_j <p^{c_j}, v^{c_j} - v^{c_{j+1}}> with wraparound, using
    one compensated summation over every term.
    """
    idx = [int(i) for i in cycle]
    if len(idx) < 2:
        raise IndexOutOfRangeError("a cycle needs at least two indices")
    n = dataset.n
    for i in idx:
        if not 1 <= i <= n:
            raise IndexOutOfRangeError(f"index {i} outside 1..{n}")
    V = dataset.values_matrix
    P = dataset.probs_matrix
    terms: list[float] = []
    for pos, i in enumerate(idx):
        j = idx[(pos + 1) % len(idx)]
        terms.extend((P[i - 1] * (V[i - 1] - V[j - 1])).tolist())
    return math.fsum(terms)


def edge_weights(dataset: Dataset) -> np.ndarray:
    """Matrix W with W[i, j] = <p^i, v^i - v^j> (0-based, +inf diagonal).

    One matrix product: W = diag(M) - M with M = P V^T.  Each finite entry
    is within ``_edge_weight_error`` of exact arithmetic.
    """
    M = dataset.probs_matrix @ dataset.values_matrix.T
    W = M.diagonal()[:, None] - M
    np.fill_diagonal(W, np.inf)
    return W


def _edge_weight_error(dataset: Dataset) -> float:
    # Rows of P lie on the simplex, so |W~ - W| <= 2 gamma_{|A|+1} max|V|
    # entrywise (Higham, Accuracy and Stability, sec. 3.1).
    k = dataset.menu.size + 1
    u = np.finfo(float).eps / 2
    vmax = float(np.max(np.abs(dataset.values_matrix)))
    return 2.0 * k * u / (1.0 - k * u) * vmax


def _canonical_cycle(nodes: Sequence[int]) -> tuple[int, ...]:
    # Rotate so the smallest node leads; direction is preserved.
    nodes = list(nodes)
    k = nodes.index(min(nodes))
    return tuple(nodes[k:] + nodes[:k])


def _cycles_from_predecessors(pred: np.ndarray, starts: np.ndarray, n: int) -> set[tuple[int, ...]]:
    cycles: set[tuple[int, ...]] = set()
    for s in np.flatnonzero(starts):
        # Walk back n steps to guarantee landing inside a predecessor cycle.
        cur = int(s)
        for _ in range(n):
            if pred[cur] < 0:
                cur = -1
                break
            cur = int(pred[cur])
        if cur < 0:
            continue
        seen: dict[int, int] = {}
        chain: list[int] = []
        node = cur
        while node not in seen and pred[node] >= 0:
            seen[node] = len(chain)
            chain.append(node)
            node = int(pred[node])
        if node in seen:
            backward = chain[seen[node]:]
            cycles.add(_canonical_cycle(list(reversed(backward))))
    return cycles


def _bellman_ford(W: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Relax from a virtual source connected to every node at distance 0.

    Returns (dist, pred, relaxable) where ``relaxable`` marks nodes that
    still improved in the extra n-th pass; any such node's predecessor chain
    leads into a negative cycle.
    """
    n = W.shape[0]
    dist = np.zeros(n)
    pred = np.full(n, -1, dtype=int)
    for _ in range(n - 1):
        cand = dist[:, None] + W
        arg = np.argmin(cand, axis=0)
        best = cand[arg, np.arange(n)]
        improved = best < dist
        if not improved.any():
            return dist, pred, np.zeros(n, dtype=bool)
        dist = np.where(improved, best, dist)
        pred = np.where(improved, arg, pred)
    cand = dist[:, None] + W
    arg = np.argmin(cand, axis=0)
    best = cand[arg, np.arange(n)]
    relaxable = best < dist
    pred = np.where(relaxable, arg, pred)
    return dist, pred, relaxable


def _karp_min_mean(W: np.ndarray) -> tuple[float, tuple[int, ...] | None]:
    """Karp's minimum mean-weight cycle, plus one cycle attaining it.

    d_k(v) = min weight of a walk of exactly k edges from node 0 to v;
    the minimum cycle mean is min_v max_k (d_n(v) - d_k(v)) / (n - k).
    """
    n = W.shape[0]
    D = np.full((n + 1, n), np.inf)
    D[0, 0] = 0.0
    parent = np.full((n + 1, n), -1, dtype=int)
    for k in range(1, n + 1):
        cand = D[k - 1][:, None] + W
        arg = np.argmin(cand, axis=0)
        D[k] = cand[arg, np.arange(n)]
        parent[k] = np.where(np.isfinite(D[k]), arg, -1)

    finals = D[n]
    reachable = np.isfinite(finals)
    if not reachable.any():
        return math.inf, None
    denom = (n - np.arange(n)).astype(float)
    with np.errstate(invalid="ignore"):
        ratios = (finals[None, :] - D[:n]) / denom[:, None]
    ratios[~np.isfinite(D[:n])] = -np.inf
    per_node = np.max(ratios, axis=0)
    per_node[~reachable] = np.inf
    v_star = int(np.argmin(per_node))
    lam = float(per_node[v_star])

    # Recover a cycle from the length-n walk ending at the arg-min node.
    walk = [v_star]
    node = v_star
    for k in range(n, 0, -1):
        node = int(parent[k, node])
        if node < 0:
            return lam, None
        walk.append(node)
    first_pos: dict[int, int] = {}
    for pos, u in enumerate(walk):
        if u in first_pos:
            backward = walk[first_pos[u]:pos]
            return lam, _canonical_cycle(list(reversed(backward)))
        first_pos[u] = pos
    return lam, None


def check_cyclic_monotonicity(dataset: Dataset, tol: float = TOL_CM) -> CMVerdict:
    """Decide cyclic monotonicity up to an absolute cycle-sum tolerance.

    Passes iff no directed cycle has total weight below ``-tol``.  Detection
    combines Bellman-Ford relaxation (cycles extracted from the predecessor
    structure and recomputed with compensated sums) with a Karp minimum-mean
    pass: when n * (min_mean - err) >= -tol, with err the edge-weight
    rounding bound, every cycle sum is certified above ``-tol`` and the
    verdict is a pass; closer to the threshold the Karp cycle is recomputed
    with compensated sums and decides.  Any returned witness recomputes to a
    sum strictly below ``-tol``; the witness is not guaranteed minimal.
    """
    n = dataset.n
    W = edge_weights(dataset)
    lam, karp_cycle = _karp_min_mean(W)

    candidates: set[tuple[int, ...]] = set()
    _, pred, relaxable = _bellman_ford(W)
    if relaxable.any():
        candidates |= _cycles_from_predecessors(pred, relaxable, n)
    if lam < -tol / n + _edge_weight_error(dataset) and karp_cycle is not None:
        candidates.add(karp_cycle)

    min_mean = None if math.isinf(lam) else lam
    if not candidates:
        return CMVerdict("pass", None, min_mean, None)

    sums = {
        cyc: cycle_sum(dataset, [i + 1 for i in cyc]) for cyc in candidates
    }
    worst_cycle = min(sums, key=lambda c: (sums[c], c))
    worst = sums[worst_cycle]
    if worst < -tol:
        witness = CycleWitness(tuple(i + 1 for i in worst_cycle), worst)
        return CMVerdict("violation", witness, min_mean, worst)
    return CMVerdict("pass", None, min_mean, worst)


#: Exhaustive enumeration guard; simple-cycle count grows factorially.
BRUTE_FORCE_MAX_N = 8


def brute_force_cm(dataset: Dataset, tol: float = TOL_CM) -> CMVerdict:
    """Enumerate every simple directed cycle and take the minimum sum.

    Independent oracle for :func:`check_cyclic_monotonicity`; guarded to
    n <= 8 because the number of simple cycles grows factorially.
    """
    n = dataset.n
    if n > BRUTE_FORCE_MAX_N:
        raise TooLargeError(
            f"exhaustive cycle enumeration is limited to n <= {BRUTE_FORCE_MAX_N}, got {n}"
        )
    if n == 1:
        return CMVerdict("pass", None, None, None)
    V = dataset.values_matrix
    P = dataset.probs_matrix

    def sum_of(cyc: tuple[int, ...]) -> float:
        terms: list[float] = []
        for pos, i in enumerate(cyc):
            j = cyc[(pos + 1) % len(cyc)]
            terms.extend((P[i] * (V[i] - V[j])).tolist())
        return math.fsum(terms)

    best_sum = math.inf
    best_cycle: tuple[int, ...] | None = None
    best_mean = math.inf
    for k in range(2, n + 1):
        for subset in itertools.combinations(range(n), k):
            head = subset[0]
            for rest in itertools.permutations(subset[1:]):
                cyc = (head,) + rest
                s = sum_of(cyc)
                if s < best_sum:
                    best_sum = s
                    best_cycle = cyc
                if s / k < best_mean:
                    best_mean = s / k
    assert best_cycle is not None
    if best_sum < -tol:
        witness = CycleWitness(tuple(i + 1 for i in best_cycle), best_sum)
        return CMVerdict("violation", witness, best_mean, best_sum)
    return CMVerdict("pass", None, best_mean, best_sum)


#: Coordinates are considered equal when they differ by at most this much.
TWO_POINT_COORD_TOL = 1e-12


def check_two_point_monotonicity(
    dataset: Dataset, tol: float = TOL_CM
) -> list[TwoPointViolation]:
    """Scan observation pairs whose value vectors differ in one coordinate.

    For such a pair the product (p_a(v) - p_a(v')) * (v_a - v'_a) over the
    differing coordinate a must be non-negative: raising an alternative's
    value, all else fixed, cannot make it relatively less appealing.  Pairs
    with product below ``-tol`` are reported (1-based indices).
    """
    V = dataset.values_matrix
    P = dataset.probs_matrix
    labels = dataset.menu.alternatives
    out: list[TwoPointViolation] = []
    n = dataset.n
    for i in range(n):
        for j in range(i + 1, n):
            diff = V[i] - V[j]
            moved = np.abs(diff) > TWO_POINT_COORD_TOL
            if np.count_nonzero(moved) != 1:
                continue
            a = int(np.argmax(moved))
            product = (P[i, a] - P[j, a]) * diff[a]
            if product < -tol:
                out.append(TwoPointViolation(i + 1, j + 1, labels[a], float(product)))
    return out


def check_weak_stochastic_transitivity(
    binary: Mapping[tuple[str, str], float], tol: float = TOL_SIMPLEX
) -> list[tuple[str, str, str]]:
    """Flag ordered triples violating weak stochastic transitivity.

    ``binary[(x, y)]`` is the probability of choosing x from the pair
    {x, y}.  Whenever p(x,y) >= 1/2 and p(y,z) >= 1/2, the triple (x, y, z)
    is flagged if p(x,z) < 1/2.  If only one orientation of a pair is
    stored, the other is implied as its complement; when both are stored
    they must sum to one within ``tol`` or ``InconsistentPairError`` is
    raised.  Triples with missing pairs are skipped.
    """
    probs: dict[tuple[str, str], float] = {}
    for (x, y), p in binary.items():
        if x == y:
            raise InconsistentPairError(f"pair ({x!r}, {x!r}) compares an item to itself")
        probs[(x, y)] = float(p)
    for (x, y), p in probs.items():
        q = probs.get((y, x))
        if q is not None and abs(p + q - 1.0) > tol:
            raise InconsistentPairError(
                f"p({x},{y}) + p({y},{x}) = {p + q!r}, expected 1 within {tol:g}"
            )

    def lookup(x: str, y: str) -> float | None:
        p = probs.get((x, y))
        if p is not None:
            return p
        q = probs.get((y, x))
        return None if q is None else 1.0 - q

    items = sorted({z for pair in probs for z in pair})
    violations: list[tuple[str, str, str]] = []
    for x, y, z in itertools.permutations(items, 3):
        pxy = lookup(x, y)
        pyz = lookup(y, z)
        pxz = lookup(x, z)
        if pxy is None or pyz is None or pxz is None:
            continue
        if pxy >= 0.5 and pyz >= 0.5 and pxz < 0.5:
            violations.append((x, y, z))
    return violations
