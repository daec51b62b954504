"""Convex-cost rationalization of cyclically monotone choice data.

Forward direction: from a cyclically monotone dataset, take per-observation
Afriat potentials phi_i, phi_i <= phi_k + w(i -> k) + tol over the edge
weights w(i -> k) = <p^i, v^i - v^k>, from the certificate with which
``check_cyclic_monotonicity`` passed the data; extend them off the data as
the max-affine convex function

    f(v) = max_i [ phi_i + <g_i, v - v^i> ],      g_i = p^i,

and obtain the rationalizing cost as the convex conjugate of f.  For a
max-affine f the conjugate is the finite linear program

    C(p) = min { sum_i lam_i * c_i :  lam >= 0, sum lam_i = 1,
                 sum_i lam_i * g_i = p },         c_i = <g_i, v^i> - phi_i,

equal to +inf outside conv{g_i}.  Fenchel equality <v^i, p^i> = f(v^i) +
C(p^i) then certifies that every observation maximizes <v, p> - C(p).

Converse direction: closed-form, vertex and Frank-Wolfe solvers produce the
choice probabilities of a perturbed utility model, argmax_{p in simplex}
<v, p> - C(p), whose outputs are cyclically monotone by construction.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field

import numpy as np

from .core import TOL_CM, TOL_OPT, Dataset, comp_dot, exact_simplex_array
from .errors import (
    CycloratError,
    EmptyDomainError,
    NoProgressError,
    NotCyclicallyMonotoneError,
)
from .lp import FEAS_TOL, solve_equality_lp
from .monotonicity import CMVerdict, check_cyclic_monotonicity, edge_weights, row_blocks

#: Counts of a ``_conjugate_many`` batch: solves from an artificial and from a
#: certified basis, their pivots, queries reused bases answered, failed bases.
LP_COUNTERS = ("cold_solves", "warm_solves", "pivots", "reused", "rejected_bases")


def compute_potentials(
    dataset: Dataset, tol: float = TOL_CM, *, verdict: CMVerdict | None = None
) -> np.ndarray:
    """Afriat potentials within ``tol``, read off a passing check's certificate.

    ``verdict`` is ``check_cyclic_monotonicity(dataset, tol)``, run here when
    not given.  Returns its read-only ``potentials`` array phi, 0 at the
    first observation, since the fitted function is only determined up to an
    additive constant.  phi[i] is the fitted value at v^i, and p^i its
    gradient there, so a fit is read together with its dataset.  Its
    policy-iteration values hold every inequality with a margin up to the
    minimum cycle mean, if positive, and within ``tol`` otherwise:

        phi[j] >= phi[i] + <p^i, v^j - v^i> - tol,

    up to the check's allowance: none when its certificate decides, and at
    most (mean - lower) + err in its rounding band.  Every pass carries
    them; a violation raises ``NotCyclicallyMonotoneError`` with its witness.
    """
    if verdict is None:
        verdict = check_cyclic_monotonicity(dataset, tol)
    if verdict.potentials is None:
        raise NotCyclicallyMonotoneError(
            f"no Afriat potentials within per-edge slack {tol:g}", witness=verdict.witness
        )
    return verdict.potentials


def evaluate_extension(phi: np.ndarray, dataset: Dataset, v) -> float:
    """Max-affine extension of the fitted potentials at any value vector.

    Returns max_i [ phi_i + <p^i, v - v^i> ]; convex and piecewise affine,
    and interpolates the potentials at the observed value vectors.
    """
    vv = np.asarray(v, dtype=float)
    V, G = dataset.values_matrix, dataset.probs_matrix
    return max(phi[i] + comp_dot(G[i], vv - V[i]) for i in range(phi.size))


def _max_affine_data(phi: np.ndarray, dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Gradients G = P and affine offsets c_i = <g_i, v^i> - phi_i."""
    V, G = dataset.values_matrix, dataset.probs_matrix
    c = np.array([comp_dot(G[i], V[i]) - phi[i] for i in range(phi.size)])
    return G, c


def cost_description(phi: np.ndarray, dataset: Dataset) -> dict:
    """Serializable description of the fitted conjugate cost.

    The cost is determined by the gradient vertices g_i and the affine
    offsets c_i = <g_i, v^i> - phi_i: C(p) is the lower convex envelope of
    the points (g_i, c_i) on conv{g_i} and +inf elsewhere.
    """
    G, c = _max_affine_data(phi, dataset)
    return {
        "kind": "max-affine conjugate",
        "vertices": G.tolist(),
        "offsets": c.tolist(),
    }


def conjugate_cost(phi: np.ndarray, dataset: Dataset, p) -> float:
    """Convex conjugate of the max-affine extension, as a finite LP.

    Returns the minimum of sum_i lam_i (<g_i, v^i> - phi_i) over mixture
    weights lam >= 0, sum lam = 1, with sum_i lam_i g_i = p.  Outside
    conv{g_i} the conjugate is +inf, returned as ``math.inf`` (a domain
    signal, not an error).  Solved by the dense two-phase simplex, the
    one-query case of ``_conjugate_many``.
    """
    return DataDerivedCost(phi, dataset).value(p)


def _conjugate_many(
    G: np.ndarray, c: np.ndarray, Q: np.ndarray, counts: dict | None = None
) -> np.ndarray:
    """Conjugate values at a batch of points, +inf outside conv{g_i}.

    Queries share the LP's A and c and differ only in b = (q, 1), so an
    optimal basis B stays dual feasible for all of them (Chvatal, Linear
    Programming, ch. 10).  Each basis the simplex returns must pass a dual
    certificate: y = (B^+)'c_B must solve B'y = c_B and price every column
    at c - A'y >= -FEAS_TOL.  A certified basis then answers every other
    query it is primal feasible for (lam_B = B^+ b >= -FEAS_TOL, with the
    residual test of ``batch_support_values``); as lam sums to one, weak
    duality bounds each reused value's error by FEAS_TOL plus its residual
    terms.  The first query is solved cold; each later unanswered query
    starts from the certified basis whose lam_B was least infeasible for
    it, so dual pivots replace phase 1.  A cold basis that fails the
    certificate (a rank-deficient one, say) answers only its own query; a
    warm one answers nothing and its query is solved cold.  ``counts``, a
    dict keyed by ``LP_COUNTERS``, accumulates the batch's LP work.
    """
    A = np.vstack([G.T, np.ones((1, G.shape[0]))])  # sum lam_i g_i = q, sum lam_i = 1
    rhs = np.hstack([Q, np.ones((Q.shape[0], 1))])
    scale = 1.0 + np.abs(rhs).max(axis=1)
    values = np.empty(rhs.shape[0])
    todo = np.ones(rhs.shape[0], dtype=bool)
    bases: list[tuple[int, ...]] = []
    nearest = np.full(rhs.shape[0], -1)  # per query: index into bases
    closest = np.full(rhs.shape[0], -np.inf)  # and min(lam_B) there
    counts = dict.fromkeys(LP_COUNTERS, 0) if counts is None else counts
    while todo.any():
        k = int(np.argmax(todo))
        start = bases[nearest[k]] if nearest[k] >= 0 else None
        res = solve_equality_lp(c, A, rhs[k], start=start)
        counts["warm_solves" if start else "cold_solves"] += 1
        counts["pivots"] += res.pivots
        if res.status == "infeasible":
            values[k] = math.inf
            todo[k] = False
            continue
        if res.status != "optimal":
            raise CycloratError(f"conjugate LP did not converge: {res.status}")
        cols = list(res.basis)
        AB, cB = A[:, cols], c[cols]
        pinv = np.linalg.pinv(AB)
        y = pinv.T @ cB
        solved = np.abs(AB.T @ y - cB).max() <= FEAS_TOL * (1.0 + np.abs(cB).max())
        if not solved or (c - A.T @ y).min() < -FEAS_TOL:
            counts["rejected_bases"] += 1
            values[k], todo[k], nearest[k] = res.value, bool(start), -1  # warm: redo cold
            continue
        values[k] = res.value
        todo[k] = False
        bases.append(res.basis)
        rest = np.flatnonzero(todo)
        lam = pinv @ rhs[rest].T
        resid = np.abs(AB @ lam - rhs[rest].T).max(axis=0)
        low = lam.min(axis=0)
        hit = (low >= -FEAS_TOL) & (resid <= FEAS_TOL * scale[rest])
        values[rest[hit]] = cB @ lam[:, hit]
        todo[rest[hit]] = False
        counts["reused"] += int(hit.sum())
        closer = low > closest[rest]
        nearest[rest[closer]], closest[rest[closer]] = len(bases) - 1, low[closer]
    return values


# ---------------------------------------------------------------------------
# Perturbed utility model solvers.


def softmax_probabilities(v) -> np.ndarray:
    """Softmax with a max-shift guard, renormalized exactly."""
    arr = np.asarray(v, dtype=float)
    z = np.exp(arr - np.max(arr))
    return exact_simplex_array(z)


def simplex_projection(v) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-threshold)."""
    arr = np.asarray(v, dtype=float)
    u = np.sort(arr)[::-1]
    cums = np.cumsum(u)
    j = np.arange(1, arr.size + 1)
    rho = int(np.max(np.flatnonzero(u - (cums - 1.0) / j > 0)))
    theta = (cums[rho] - 1.0) / (rho + 1.0)
    out = np.maximum(arr - theta, 0.0)
    return exact_simplex_array(out)


def pum_solve_closed(kind: str, v) -> np.ndarray:
    """Closed-form perturbed-utility choice for the two strictly convex costs.

    ``negentropy`` (C(p) = sum p ln p) gives the softmax of v; ``quadratic``
    (C(p) = 0.5 * sum p^2) gives the Euclidean projection of v onto the
    simplex.  Both maximizers are unique by strict convexity.
    """
    if kind not in _CLOSED_FORMS:
        raise ValueError(f"unknown cost kind {kind!r}; expected 'negentropy' or 'quadratic'")
    return _CLOSED_FORMS[kind][1](v)


class CostEvaluator(abc.ABC):
    """A convex cost on the simplex; ``pum_solve_general`` solves the built-in four."""

    @abc.abstractmethod
    def value(self, p: np.ndarray) -> float:
        """Cost at p; +inf outside the effective domain."""


def _neg_entropy(p: np.ndarray) -> float:
    # sum_a p_a ln p_a with 0 ln 0 = 0, compensated; NaN on a negative entry.
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p == 0, 0.0, p * np.log(p))
    return math.fsum(terms.tolist())


class NegEntropyCost(CostEvaluator):
    """C(p) = sum_a p_a ln p_a (negative Shannon entropy)."""

    def value(self, p: np.ndarray) -> float:
        return _neg_entropy(p)


class QuadraticCost(CostEvaluator):
    """C(p) = 0.5 * sum_a p_a^2."""

    def value(self, p: np.ndarray) -> float:
        return 0.5 * math.fsum((p * p).tolist())


#: Each strictly convex cost's class and closed-form maximizer, by kind.
_CLOSED_FORMS = {
    "negentropy": (NegEntropyCost, softmax_probabilities),
    "quadratic": (QuadraticCost, simplex_projection),
}


class DataDerivedCost(CostEvaluator):
    """Conjugate of a fitted max-affine extension; +inf outside conv{g_i}."""

    def __init__(self, phi: np.ndarray, dataset: Dataset):
        self.vertices, self.offsets = _max_affine_data(phi, dataset)

    def value(self, p: np.ndarray) -> float:
        return float(_conjugate_many(self.vertices, self.offsets, np.asarray(p, float)[None, :])[0])


class SmoothedDataDerivedCost(DataDerivedCost):
    """Data-derived cost plus epsilon * sum p ln p, restoring strict convexity.

    The entropic term biases the maximizer; the induced suboptimality under
    the unsmoothed cost is at most epsilon * ln(number of alternatives).
    """

    def __init__(self, phi: np.ndarray, dataset: Dataset, epsilon: float):
        if not epsilon > 0:  # NaN included
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        super().__init__(phi, dataset)
        self.epsilon = epsilon

    def value(self, p: np.ndarray) -> float:
        base = super().value(p)
        if math.isinf(base):
            return base
        return base + self.epsilon * _neg_entropy(p)


@dataclass(frozen=True)
class PumSolution:
    """Solver output: the point, its objective, and the certified gap.

    ``gap`` is 0.0 from the exact routes (closed form and vertex scan) and
    the final Frank-Wolfe gap from the smoothed data-derived route.
    ``unique`` is False for piecewise-linear costs, whose argmax can be a
    face; the returned point still maximizes the objective.
    """

    probs: np.ndarray
    objective: float
    gap: float
    unique: bool
    iterations: int


def _solve_data_derived(cost: DataDerivedCost, v: np.ndarray) -> PumSolution:
    # The objective is piecewise linear over conv{g_i}; its maximum over the
    # polytope is attained at a vertex, found by direct enumeration.
    G, c = cost.vertices, cost.offsets
    scores = np.array([comp_dot(v, G[j]) - c[j] for j in range(G.shape[0])])
    j = int(np.argmax(scores))
    return PumSolution(G[j].copy(), float(scores[j]), 0.0, False, 1)


def _solve_smoothed_data(
    cost: SmoothedDataDerivedCost, v: np.ndarray, tol: float, budget: int
) -> PumSolution:
    # Maximize J(lam) = <v, G'lam> - c'lam - eps * sum q ln q, q = G'lam, by
    # pairwise Frank-Wolfe from e_s, s the unsmoothed maximizer, which the
    # smoothed one stays near; the mixture cost c'lam is tight for C(q) at
    # the optimum.  J is eps-strongly concave in q under l1 (Pinsker), so q
    # is within sqrt(2 * gap / eps) of the maximizer in every coordinate.
    G, c, eps = cost.vertices, cost.offsets, cost.epsilon
    lam = np.zeros(G.shape[0])
    lam[int(np.argmax(G @ v - c))] = 1.0
    q = lam @ G

    def j_value(qv: np.ndarray, cost_lin: float) -> float:
        return comp_dot(v, qv) - cost_lin - eps * _neg_entropy(qv)

    cost_lin = comp_dot(c, lam)
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    for it in range(1, budget + 1):
        grad_q = v - eps * (1.0 + np.log(np.maximum(q, 1e-300)))
        grad_lam = G @ grad_q - c
        s = int(np.argmax(grad_lam))
        gap = float(grad_lam[s]) - comp_dot(grad_lam, lam)
        if gap <= tol:
            return PumSolution(
                exact_simplex_array(np.maximum(q, 0.0)),
                j_value(q, cost_lin),
                gap,
                True,
                it,
            )
        active = np.flatnonzero(lam > 1e-15)
        a = int(active[np.argmin(grad_lam[active])])
        if s == a:
            break
        gamma_max = float(lam[a])
        dq = G[s] - G[a]
        dcost = float(c[s] - c[a])

        # Golden-section the 1-D slice; J is concave along the segment.
        lo, hi = 0.0, gamma_max
        m1 = hi - (hi - lo) / phi
        m2 = lo + (hi - lo) / phi
        f1 = j_value(q + m1 * dq, cost_lin + m1 * dcost)
        f2 = j_value(q + m2 * dq, cost_lin + m2 * dcost)
        for _ in range(60):
            if hi - lo < 1e-14 * (1.0 + gamma_max):
                break
            if f1 < f2:
                lo, m1, f1 = m1, m2, f2
                m2 = lo + (hi - lo) / phi
                f2 = j_value(q + m2 * dq, cost_lin + m2 * dcost)
            else:
                hi, m2, f2 = m2, m1, f1
                m1 = hi - (hi - lo) / phi
                f1 = j_value(q + m1 * dq, cost_lin + m1 * dcost)
        gamma = 0.5 * (lo + hi)
        end = j_value(q + gamma_max * dq, cost_lin + gamma_max * dcost)
        if end > j_value(q + gamma * dq, cost_lin + gamma * dcost):
            gamma = gamma_max
        if gamma <= 0.0:
            break
        lam = lam.copy()
        lam[s] += gamma
        lam[a] -= gamma
        if lam[a] < 1e-17:
            lam[a] = 0.0
        cost_lin = cost_lin + gamma * dcost
        q = q + gamma * dq
        if it % 64 == 0:
            q = lam @ G
            cost_lin = comp_dot(c, lam)
    raise NoProgressError(f"pairwise Frank-Wolfe stalled above gap {tol:.3e}")


def pum_solve_general(
    cost: CostEvaluator,
    v,
    tol: float = TOL_OPT,
    *,
    budget: int = 100_000,
) -> PumSolution:
    """Maximize <v, p> - C(p) over the feasible probabilities.

    ``NegEntropyCost`` and ``QuadraticCost`` take the closed form of
    ``pum_solve_closed``, and ``DataDerivedCost`` its best vertex g_j
    (flagged as non-unique); both are exact, with gap 0.0.
    ``SmoothedDataDerivedCost`` runs pairwise Frank-Wolfe until its gap, a
    certified optimality bound, is at most ``tol``, and raises
    ``NoProgressError`` when the gap stalls or ``budget`` runs out.  Any
    other ``CostEvaluator`` raises ``EmptyDomainError``.
    """
    arr = np.asarray(v, dtype=float)
    if isinstance(cost, SmoothedDataDerivedCost):
        return _solve_smoothed_data(cost, arr, tol, budget)
    if isinstance(cost, DataDerivedCost):
        return _solve_data_derived(cost, arr)
    for cls, kernel in _CLOSED_FORMS.values():
        if type(cost) is cls:  # a subclass may change C, and with it the maximizer
            p = kernel(arr)
            return PumSolution(p, comp_dot(arr, p) - cost.value(p), 0.0, True, 1)
    raise EmptyDomainError(f"no solver route for cost {type(cost).__name__}")


# ---------------------------------------------------------------------------
# Round-trip verification.


@dataclass(frozen=True)
class RationalizationReport:
    """Numerical certificate that the fitted cost rationalizes the data.

    For each observation i, ``fenchel_gaps[i]`` is the Afriat shortfall
    f(v^i) - phi_i >= 0, which bounds the true gap |<v^i, p^i> - C(p^i) -
    f(v^i)|: lam = e_i gives C(p^i) <= c_i = <v^i, p^i> - phi_i, and
    Fenchel-Young gives C(p^i) >= <v^i, p^i> - f(v^i).
    ``optimality_gaps[i]`` is the largest advantage any sampled competitor
    q attains over phi_i in <v^i, q> - C(q), vertices priced at c_j.  Both
    should sit at numerical noise level for cyclically monotone data.  The
    sampled mixtures can only test the conjugate LP: by Fenchel-Moreau
    (Rockafellar, Convex Analysis, Thm. 12.2) the advantage over the whole
    simplex is f(v^i) - phi_i, the Fenchel gap, so no sample decides it.
    """

    fenchel_gaps: np.ndarray
    optimality_gaps: np.ndarray
    tolerance: float
    n_vertex_points: int
    n_mixture_points: int
    lp: dict = field(default_factory=dict)  # LP_COUNTERS of the mixture batch

    @property
    def max_fenchel_gap(self) -> float:
        return float(np.max(self.fenchel_gaps))

    @property
    def max_optimality_gap(self) -> float:
        return float(np.max(self.optimality_gaps))

    @property
    def passed(self) -> bool:
        return (
            self.max_fenchel_gap <= self.tolerance
            and self.max_optimality_gap <= self.tolerance
        )

    def to_dict(self) -> dict:
        return {
            "fenchel_gaps": self.fenchel_gaps.tolist(),
            "optimality_gaps": self.optimality_gaps.tolist(),
            "max_fenchel_gap": self.max_fenchel_gap,
            "max_optimality_gap": self.max_optimality_gap,
            "tolerance": self.tolerance,
            "n_vertex_points": self.n_vertex_points,
            "n_mixture_points": self.n_mixture_points,
            "lp": dict(self.lp),
            "passed": self.passed,
        }


def verify_rationalization(
    dataset: Dataset,
    phi: np.ndarray,
    tol: float = TOL_OPT,
    *,
    mixtures: int = 1000,
    rng: np.random.Generator | None = None,
) -> RationalizationReport:
    """Check Fenchel equality and sampled optimality at every observation.

    The competitor pool contains every gradient vertex g_j plus ``mixtures``
    random convex combinations drawn from the supplied generator (seeded
    from 0 when omitted, so runs are reproducible).  All pool points lie in
    conv{g_j}, where the conjugate is finite by construction.  The gradients
    are the probabilities, so f(v^j) is read off the edge weights.  Vertices
    are priced at c_j, within the Afriat shortfall of C(g_j) (see
    ``RationalizationReport``), so only the mixtures go to the LP.

    Memory is O((n + mixtures) |A|) plus ``ROW_BLOCK_CELLS``-cell blocks: W,
    the Dirichlet draws and the competitor values <v^i, q> - C(q) are formed
    one block at a time, and each block is reduced to pool points or to
    maxima, which are exact in any order.
    """
    if mixtures < 0:
        raise ValueError(f"mixtures must be non-negative, got {mixtures}")
    if rng is None:
        rng = np.random.default_rng(0)
    G, c = _max_affine_data(phi, dataset)
    V, n = dataset.values_matrix, dataset.n

    # f(v^j) = max(phi_j, max_i phi_i - W[i, j]); the +inf diagonal drops i = j.
    extension = phi.copy()
    for rows in row_blocks(n):
        W = edge_weights(dataset, rows)
        np.maximum(extension, np.max(np.subtract(phi[rows, None], W, out=W), axis=0), out=extension)
    # numpy draws a Dirichlet sample row by row, so blocks continue one stream.
    draws = (rng.dirichlet(np.ones(n), size=b.stop - b.start) @ G for b in row_blocks(n, mixtures))
    pool = np.vstack([G, *draws])
    lp = dict.fromkeys(LP_COUNTERS, 0)
    pool_cost = np.concatenate([c, _conjugate_many(G, c, pool[n:], lp)])
    if not np.all(np.isfinite(pool_cost)):
        raise CycloratError("conjugate reported infeasible at an in-hull point")

    # <v^i, g_i> - c_i = phi_i, so the Fenchel gap is the Afriat shortfall.
    best = np.full(n, -np.inf)
    for cols in row_blocks(n, pool.shape[0]):
        np.maximum(best, (V @ pool[cols].T - pool_cost[cols]).max(axis=1), out=best)
    return RationalizationReport(
        fenchel_gaps=extension - phi,
        optimality_gaps=best - phi,
        tolerance=tol,
        n_vertex_points=n,
        n_mixture_points=pool.shape[0] - n,
        lp=lp,
    )
