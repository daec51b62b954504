"""Cyclic-monotonicity tests, witness extraction, and related diagnostics.

A dataset of (value vector, choice probabilities) pairs is cyclically
monotone when every cycle i1 -> i2 -> ... -> ik -> i1 of observations has

    sum_j <p^{i_j}, v^{i_j} - v^{i_{j+1}}>  >=  0.

Equivalently, the complete digraph on observations with edge weight
w(i -> j) = <p^i, v^i - v^j> has no negative cycle.  A tolerance is a
per-edge slack eps: the data pass iff every cycle mean is at least -eps,
i.e. iff Afriat potentials exist that hold every inequality to within eps.
The fast check runs Howard policy iteration for the minimum cycle mean,
O(n^2) per round, and decides from that one run: its final potentials
certify a lower bound on every cycle mean, which, net of the edge-weight
rounding bound, decides a pass that carries them; its cycle, recomputed
with compensated summation, decides a violation; and a converged run whose
cycle sits between the two passes with the same potentials, which then hold
every inequality to within eps plus rounding.

The indices in cycles, witnesses, and violation reports are 1-based rows
of the dataset's matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .core import TOL_CM, TOL_SIMPLEX, Dataset
from .errors import CycloratError, NoProgressError, ValidationError


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
    ``witness`` whose compensated cycle mean is below ``-tol``.
    ``min_cycle_mean`` is the compensated mean of the policy-iteration
    cycle, an attained mean within the certificate of the true minimum
    (None when no cycle exists, i.e. n = 1).  ``min_cycle_sum`` is that
    cycle's recomputed sum, set when the lower bound does not certify a
    pass.  The witness is the min-mean cycle, in canonical rotation
    (smallest index first); ties between least-mean policy cycles go to the
    lexicographically smallest.
    Every pass carries the Afriat ``potentials`` certifying it, 0 at the
    first observation; ``policy_iterations`` counts the check's rounds, and
    ``decided_by`` names the step that decided it: ``"certificate"``,
    ``"witness"`` or ``"band"``.  None of the three compares.
    """

    status: str
    witness: CycleWitness | None
    min_cycle_mean: float | None
    min_cycle_sum: float | None
    potentials: np.ndarray | None = field(default=None, compare=False, repr=False)
    policy_iterations: int | None = field(default=None, compare=False)
    decided_by: str | None = field(default=None, compare=False)

    @property
    def is_pass(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict:
        out: dict = {
            "status": self.status,
            "min_cycle_mean": self.min_cycle_mean,
            "min_cycle_sum": self.min_cycle_sum,
            "policy_iterations": self.policy_iterations,
            "decided_by": self.decided_by,
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
        raise CycloratError("a cycle needs at least two indices")
    n = dataset.n
    for i in idx:
        if not 1 <= i <= n:
            raise CycloratError(f"index {i} outside 1..{n}")
    V = dataset.values_matrix
    P = dataset.probs_matrix
    terms: list[float] = []
    for pos, i in enumerate(idx):
        j = idx[(pos + 1) % len(idx)]
        terms.extend((P[i - 1] * (V[i - 1] - V[j - 1])).tolist())
    return math.fsum(terms)


def edge_weights(dataset: Dataset, rows: slice | None = None) -> np.ndarray:
    """Matrix W with W[i, j] = <p^i, v^i - v^j> (0-based, +inf diagonal), or
    its rows ``rows``, one of ``row_blocks(n)``.

    W is formed by row blocks, each one product M = P[rows] V^T overwritten
    in place by diag(M) - M, so a block has the bits of its rows of W however
    BLAS rounds.  Each finite entry is within ``_edge_weight_error`` of exact
    arithmetic.
    """
    P, V = dataset.probs_matrix, dataset.values_matrix
    W = np.empty((dataset.n, dataset.n)) if rows is None else P[rows] @ V.T
    for block in row_blocks(dataset.n) if rows is None else ():
        np.matmul(P[block], V.T, out=W[block])
    square = W[:, 0 if rows is None else rows.start :]  # M_ii of W's rows on its diagonal
    np.subtract(square.diagonal().copy()[:, None], W, out=W)
    np.fill_diagonal(square, np.inf)
    return W


#: Cells of W in one row block: readers of W form one block at a time.
ROW_BLOCK_CELLS = 2**15


def row_blocks(n: int, m: int | None = None) -> list[slice]:
    """Row slices of an m x n matrix (n x n by default), ROW_BLOCK_CELLS // n
    rows each (at least one); the first is the largest."""
    step, m = max(1, ROW_BLOCK_CELLS // n), n if m is None else m
    return [slice(r, min(r + step, m)) for r in range(0, m, step)]


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


#: Cap on policy-iteration rounds.  A run cut short still returns an attained
#: cycle mean and a valid, only looser, lower bound; a check that neither
#: decides raises rather than pass on that bound.
MIN_MEAN_MAX_ITERATIONS = 500


class MinMeanCycle(NamedTuple):
    """Minimum mean-weight cycle of a weight matrix, with a certificate.

    ``cycle`` lists 0-based nodes in canonical rotation (None when n < 2) and
    ``mean`` is its weight sum, compensated, over its length, so the minimum
    cycle mean is at most ``mean``; it is at least ``lower``.
    ``iterations`` counts policy-iteration rounds.  The final relative
    values ``x`` satisfy x_i <= x_j + W_ij - lower for every edge.
    """

    mean: float
    cycle: tuple[int, ...] | None
    lower: float
    iterations: int
    x: np.ndarray


def _policy_values(
    pi: list[int], w: list[float]
) -> tuple[np.ndarray, np.ndarray, list[tuple[float, tuple[int, ...]]]]:
    # Value determination for the policy i -> pi[i] with weights w[i].  Every
    # node leads into exactly one cycle; it takes that cycle's mean eta, and
    # x is 0 at the cycle's smallest node and (w[i] + x[pi[i]]) - eta
    # elsewhere.  Returns eta, x and the (mean, canonical cycle) pairs.
    n = len(pi)
    eta = [0.0] * n
    x = [0.0] * n
    state = [0] * n  # 0 unseen, 1 on the current walk, 2 valued
    cycles: list[tuple[float, tuple[int, ...]]] = []
    for start in range(n):
        walk: list[int] = []
        node = start
        while state[node] == 0:
            state[node] = 1
            walk.append(node)
            node = pi[node]
        if state[node] == 1:
            k = walk.index(node)
            cycle = _canonical_cycle(walk[k:])
            mean = math.fsum(w[u] for u in cycle) / len(cycle)
            cycles.append((mean, cycle))
            eta[cycle[0]] = mean
            state[cycle[0]] = 2
            # The cycle's other nodes are valued backwards from its head,
            # then the walk that led into it.
            walk = walk[:k] + list(cycle[1:])
        for u in reversed(walk):
            eta[u] = eta[pi[u]]
            x[u] = (w[u] + x[pi[u]]) - eta[u]
            state[u] = 2
    return np.array(eta), np.array(x), cycles


def _improve(
    W: np.ndarray, x: np.ndarray, cols: np.ndarray | None, blocks: list[slice], buf: np.ndarray
) -> np.ndarray:
    # Row by row, the first argmin over j in cols (all columns when None) of
    # W_ij + x_j, formed one row block at a time in buf.
    xc = x if cols is None else x[cols]
    succ = np.empty(W.shape[0], dtype=np.intp)
    for rows in blocks:
        block = buf[: (rows.stop - rows.start) * xc.size].reshape(-1, xc.size)
        if cols is None:
            np.add(W[rows], xc, out=block)
        else:  # cols are in range; "clip" lets take write straight into block
            np.add(np.take(W[rows], cols, axis=1, out=block, mode="clip"), xc, out=block)
        np.argmin(block, axis=1, out=succ[rows])
    return succ if cols is None else cols[succ]


def _min_mean_cycle(W: np.ndarray) -> MinMeanCycle:
    """Minimum mean-weight cycle by Howard policy iteration, certified.

    Each node follows one out-edge (the policy).  Value determination gives
    every node the mean eta of the policy cycle it leads into and a relative
    value x; improvement first moves nodes to the least-mean cycles, then
    switches a node to an edge that lowers x_i = min_j (W_ij + x_j) - eta by
    more than 16 u (2 max|x| + max_i |W[i, pi(i)]| + |eta|), u the unit
    roundoff: rounding-level gains would trade equal-mean cycles forever.
    Each round is O(n^2) (Cochet-Terrasson et al. 1998; Dasdan 2004) and
    reads W in ``row_blocks``, so no second n x n array is formed; blocks
    split rows only, so each argmin keeps its smallest index.

    The result holds however the iteration ends: ``mean`` is attained by the
    returned cycle, and for any lam and x every cycle mean is at least
    lam - max_ij (x_i - x_j - W_ij + lam), so ``lower`` is that bound from
    the final lam and x, widened by the rounding of its evaluation.  Ties
    between least-mean policy cycles go to the lexicographically smallest.
    """
    n = W.shape[0]
    if n < 2:
        return MinMeanCycle(math.inf, None, math.inf, 0, np.zeros(n))
    rows = np.arange(n)
    blocks = row_blocks(n)
    buf = np.empty(blocks[0].stop * n)  # one block of W + x, reused every round
    u = np.finfo(float).eps / 2
    pi = np.argmin(W, axis=1)
    for iterations in range(1, MIN_MEAN_MAX_ITERATIONS + 1):
        w = W[rows, pi]
        eta, x, cycles = _policy_values(pi.tolist(), w.tolist())
        lam = float(eta.min())
        tied = eta == lam
        succ = _improve(W, x, None if tied.all() else np.flatnonzero(tied), blocks, buf)
        best = W[rows, succ] + x[succ]
        thr = 16.0 * u * (2.0 * float(np.max(np.abs(x))) + float(np.max(np.abs(w))) + abs(lam))
        switch = (~tied | (best - lam < x - thr)) & (succ != pi)
        if not switch.any():
            break
        pi = np.where(switch, succ, pi)
    if not tied.all():
        succ = _improve(W, x, None, blocks, buf)
        best = W[rows, succ] + x[succ]
    # Each (x_i - fl(W_ij + x_j)) + lam carries three roundings and forming
    # lam - delta two more, so gamma_5 times the summed magnitudes bounds
    # the error (Higham, sec. 3.1).
    slack = float(np.max((x - best) + lam))
    # The off-diagonal entries, in place: row i of this view runs from W[i, i+1]
    # to W[i+1, i].  Only an overflowed entry needs the finite mask.
    off = W.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :n]
    top = float(off.max())
    if top == math.inf:
        top = float(np.max(off, where=np.isfinite(off), initial=0.0))
    wmax = max(-float(off.min()), top)
    scale = 2.0 * float(np.max(np.abs(x))) + wmax + abs(lam) + abs(slack)
    delta = slack + 5.0 * u / (1.0 - 5.0 * u) * scale
    cycle = min(c for mean, c in cycles if mean == lam)
    return MinMeanCycle(lam, cycle, lam - delta, iterations, x)


def check_cyclic_monotonicity(dataset: Dataset, tol: float = TOL_CM) -> CMVerdict:
    """Decide cyclic monotonicity up to a per-edge slack ``tol``.

    Passes iff potentials phi exist with
    phi_j >= phi_i + <p^i, v^j - v^i> - tol for every ordered pair, which
    holds iff every cycle has mean weight at least ``-tol`` (Afriat 1967,
    with the goodness-of-fit reading of Varian 1990).  One policy-iteration
    run gives a minimum-mean cycle of compensated mean ``mean``, a certified
    lower bound ``lower`` on every cycle mean, and relative values x with
    x_i <= x_j + W_ij - lower on every edge.  Three steps decide from it:

    1. Certificate: when lower - err >= -tol, with err the edge-weight
       rounding bound, the verdict is a pass with potentials x - x_1.
    2. Witness: when the cycle's compensated mean is below ``-tol``, the
       verdict is a violation with that cycle as the witness.
    3. Rounding band: otherwise a converged run passes with potentials
       x - x_1 and ``min_cycle_sum`` its cycle's sum.  They hold every
       inequality within tol + (mean - lower) + err, and converged rounds
       leave mean - lower at rounding level, below
       16 eps (2 max|x| + 2 max|V| + |mean|), as |W_ij| <= 2 max|V|.  A run
       that reached ``MIN_MEAN_MAX_ITERATIONS`` rounds, or whose
       mean - lower exceeds that allowance, may carry a loose bound, so it
       raises ``NoProgressError`` instead.

    Every pass carries its potentials.  A witness has a compensated mean,
    hence also a sum, below ``-tol``; it is not guaranteed to be the most
    negative cycle.  A NaN ``tol`` raises ``ValueError``.
    """
    if math.isnan(tol):
        raise ValueError("tol must not be NaN")
    W = edge_weights(dataset)
    mm = _min_mean_cycle(W)
    x = mm.x - mm.x[0]  # a pass's potentials, read-only as fits share them
    x.flags.writeable = False
    if mm.lower - _edge_weight_error(dataset) >= -tol:
        min_mean = None if mm.cycle is None else mm.mean
        return CMVerdict("pass", None, min_mean, None, x, mm.iterations, "certificate")
    total = cycle_sum(dataset, [i + 1 for i in mm.cycle])
    if total / len(mm.cycle) < -tol:
        witness = CycleWitness(tuple(i + 1 for i in mm.cycle), total)
        return CMVerdict("violation", witness, mm.mean, total, None, mm.iterations, "witness")
    vmax = np.abs(dataset.values_matrix).max()
    allowance = 16 * np.finfo(float).eps * (2.0 * (np.abs(mm.x).max() + vmax) + abs(mm.mean))
    if mm.iterations == MIN_MEAN_MAX_ITERATIONS or mm.mean - mm.lower > allowance:
        raise NoProgressError(
            f"policy iteration ran {mm.iterations} rounds of its {MIN_MEAN_MAX_ITERATIONS}-round "
            f"cap without deciding per-edge slack {tol:g}: cycle means are bounded below only "
            f"by {mm.lower:.3e}, {mm.mean - mm.lower:.1e} below the cycle found"
        )
    return CMVerdict("pass", None, mm.mean, total, x, mm.iterations, "band")


#: Coordinates are considered equal when they differ by at most this much.
TWO_POINT_COORD_TOL = 1e-12


def check_two_point_monotonicity(
    dataset: Dataset, tol: float = TOL_CM
) -> list[TwoPointViolation]:
    """Scan observation pairs whose value vectors differ in one coordinate.

    For such a pair the product (p_a(v) - p_a(v')) * (v_a - v'_a) over the
    differing coordinate a must be non-negative: raising an alternative's
    value, all else fixed, cannot make it relatively less appealing.  Pairs
    with product below ``-tol`` are reported (1-based indices) in row-major
    i < j order, scanned over the ``row_blocks`` of i, each block against the
    rows j after its first.
    """
    V = dataset.values_matrix
    P = dataset.probs_matrix
    labels = dataset.menu.alternatives
    out: list[TwoPointViolation] = []
    for rows in row_blocks(dataset.n):
        later = np.arange(rows.start + 1, dataset.n)
        first, second = np.nonzero(np.arange(rows.start, rows.stop)[:, None] < later)
        diff = (V[rows, None] - V[rows.start + 1 :])[first, second]
        first, second = first + rows.start, later[second]
        moved = np.abs(diff) > TWO_POINT_COORD_TOL
        k = np.flatnonzero(np.count_nonzero(moved, axis=1) == 1)
        a = np.argmax(moved[k], axis=1)
        i, j = first[k], second[k]
        product = (P[i, a] - P[j, a]) * diff[k, a]
        bad = product < -tol
        found = zip(i[bad].tolist(), j[bad].tolist(), a[bad].tolist(), product[bad].tolist())
        out += [TwoPointViolation(ii + 1, jj + 1, labels[aa], p) for ii, jj, aa, p in found]
    return out


def check_weak_stochastic_transitivity(
    binary: Mapping[tuple[str, str], float], tol: float = TOL_SIMPLEX
) -> list[tuple[str, str, str]]:
    """Flag ordered triples violating weak stochastic transitivity.

    ``binary[(x, y)]`` is the probability of choosing x from the pair
    {x, y}.  Whenever p(x,y) >= 1/2 and p(y,z) >= 1/2, the triple (x, y, z)
    is flagged if p(x,z) < 1/2.  If only one orientation of a pair is
    stored, the other is implied as its complement.  ``ValidationError`` is
    raised for a pair of an item with itself, a stored p outside [0, 1] or
    not finite, and two orientations that do not sum to one within ``tol``;
    ``ValueError`` for a NaN ``tol``.  Triples with missing pairs are skipped.
    """
    if math.isnan(tol):
        raise ValueError("tol must not be NaN")
    probs: dict[tuple[str, str], float] = {}
    for (x, y), p in binary.items():
        if x == y:
            raise ValidationError(f"pair ({x!r}, {x!r}) compares an item to itself")
        probs[(x, y)] = p = float(p)
        if not 0.0 <= p <= 1.0:  # NaN fails too
            raise ValidationError(f"p({x},{y}) = {p!r} is not a probability in [0, 1]")
    for (x, y), p in probs.items():
        q = probs.get((y, x))
        if q is not None and abs(p + q - 1.0) > tol:
            raise ValidationError(f"p({x},{y}) + p({y},{x}) = {p + q!r}, expected 1 within {tol:g}")

    # M[x, y] = p(x, y), stored or implied; NaN (never flagged) if missing or x = y.
    items = sorted({z for pair in probs for z in pair})
    index = {z: k for k, z in enumerate(items)}
    M = np.full((len(items), len(items)), np.nan)
    for (x, y), p in probs.items():
        M[index[x], index[y]] = p
        if (y, x) not in probs:
            M[index[y], index[x]] = 1.0 - p
    return [
        (items[i], items[j], items[k])
        for i, row in enumerate(M)
        for j, k in np.argwhere((row >= 0.5)[:, None] & (M >= 0.5) & (row < 0.5)).tolist()
    ]
