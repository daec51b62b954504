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

Converse direction: the choices of a perturbed utility model, argmax_{p in
simplex} <v, p> - C(p), are cyclically monotone by construction.  Each cost
has its own route: ``softmax_probabilities`` for C(p) = sum p ln p,
``simplex_projection`` for C(p) = 0.5 * sum p^2, ``fitted_choice`` for the
fitted cost, and ``smoothed_choices`` for the fitted cost plus
epsilon * sum p ln p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import TOL_CM, TOL_OPT, Dataset, _check_tol, _check_vector, comp_dot, exact_simplex_array
from .errors import CycloratError, NoProgressError, NotCyclicallyMonotoneError, ValidationError
from .lp import FEAS_TOL, solve_equality_lp
from .monotonicity import check_cyclic_monotonicity, edge_weights, row_blocks

#: Counts of a ``_conjugate_many`` batch: solves from an artificial and from a
#: certified basis, their pivots, queries reused bases answered, failed bases.
LP_COUNTERS = ("cold_solves", "warm_solves", "pivots", "reused", "rejected_bases")


def compute_potentials(dataset: Dataset, tol: float = TOL_CM) -> np.ndarray:
    """Afriat potentials within ``tol``, read off a passing check's certificate.

    Runs ``check_cyclic_monotonicity(dataset, tol)`` and returns its read-only
    ``potentials`` array phi, 0 at the first observation, since the fitted
    function is only determined up to an additive constant.  phi[i] is the
    fitted value at v^i, and p^i its gradient there, so a fit is read
    together with its dataset.  Its policy-iteration values hold every
    inequality with a margin up to the minimum cycle mean, if positive, and
    within ``tol`` otherwise:

        phi[j] >= phi[i] + <p^i, v^j - v^i> - tol,

    up to the check's allowance: none when its certificate decides, and at
    most (mean - lower) + err in its rounding band.  A violation raises
    ``NotCyclicallyMonotoneError`` whose ``witness`` is the verdict's cycle
    of 1-based indices.
    """
    verdict = check_cyclic_monotonicity(dataset, tol)
    if verdict.witness is not None:
        raise NotCyclicallyMonotoneError(
            f"no Afriat potentials within per-edge slack {tol:g}", witness=verdict.witness
        )
    return verdict.potentials


def _query_point(dataset: Dataset, x, name: str) -> np.ndarray:
    # x as a finite vector over the dataset's menu, else a ValidationError.
    arr = _check_vector(x, name=name)
    if arr.size != dataset.menu.size:
        raise ValidationError(f"{name} has {arr.size} entries against a menu of size {dataset.menu.size}")
    return arr


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
    one-query case of ``_conjugate_many``.  A ``p`` that is not a finite
    vector over the menu raises ``ValidationError``.
    """
    q = _query_point(dataset, p, "point p")
    G, c = _max_affine_data(phi, dataset)
    return float(_conjugate_many(G, c, q[None, :])[0])


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
    it, and from its certificate's B^+, so dual pivots replace phase 1.  A
    cold basis that fails the certificate (a rank-deficient one, say)
    answers only its own query; a warm one answers nothing and its query is
    solved cold.  ``counts``, a dict keyed by ``LP_COUNTERS``, sums its work.
    The LP sees c over the power of two at or above max|c|, an exact scaling.
    """
    unit = math.frexp(float(np.abs(c).max()))[1]
    c = np.ldexp(c, -unit)
    A = np.vstack([G.T, np.ones((1, G.shape[0]))])  # sum lam_i g_i = q, sum lam_i = 1
    rhs = np.hstack([Q, np.ones((Q.shape[0], 1))])
    scale = 1.0 + np.abs(rhs).max(axis=1)
    values = np.empty(rhs.shape[0])
    todo = np.ones(rhs.shape[0], dtype=bool)
    bases: list[tuple[tuple[int, ...], np.ndarray]] = []  # certified, with B^+
    nearest = np.full(rhs.shape[0], -1)  # per query: index into bases
    closest = np.full(rhs.shape[0], -np.inf)  # and min(lam_B) there
    counts = dict.fromkeys(LP_COUNTERS, 0) if counts is None else counts
    while todo.any():
        k = int(np.argmax(todo))
        start, inverse = bases[nearest[k]] if nearest[k] >= 0 else (None, None)
        res = solve_equality_lp(c, A, rhs[k], start=start, inverse=inverse)
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
        bases.append((res.basis, pinv))
        rest = np.flatnonzero(todo)
        R = rhs[rest].T
        lam = pinv @ R
        resid = np.abs(AB @ lam - R).max(axis=0)
        low = lam.min(axis=0)
        hit = (low >= -FEAS_TOL) & (resid <= FEAS_TOL * scale[rest])
        values[rest[hit]] = cB @ lam[:, hit]
        todo[rest[hit]] = False
        counts["reused"] += int(hit.sum())
        closer = low > closest[rest]
        nearest[rest[closer]], closest[rest[closer]] = len(bases) - 1, low[closer]
    return np.ldexp(values, unit)


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


def _neg_entropy(p: np.ndarray) -> float:
    # sum_a p_a ln p_a with 0 ln 0 = 0, compensated; NaN on a negative entry.
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p == 0, 0.0, p * np.log(p))
    return math.fsum(terms.tolist())


def fitted_choice(phi: np.ndarray, dataset: Dataset, v) -> tuple[np.ndarray, float]:
    """Best vertex g_j of <v, p> - C(p) under the fitted conjugate cost C,
    and the maximum, f(v) = max_i [ phi_i + <g_i, v - v^i> ] by Fenchel-Moreau.

    Enumerates the pieces of f, each compensated, so f(v^i) >= phi_i
    exactly; the maximizer need not be unique.  A ``v`` that is not a
    finite vector over the menu raises ``ValidationError``.
    """
    vv = _query_point(dataset, v, "value vector")
    V, G = dataset.values_matrix, dataset.probs_matrix
    pieces = [phi[i] + comp_dot(G[i], vv - V[i]) for i in range(phi.size)]
    j = int(np.argmax(pieces))
    return G[j].copy(), float(pieces[j])


#: Pairwise Frank-Wolfe steps a smoothed solve may take before it gives up.
FW_MAX_ITERATIONS = 100_000


@dataclass(frozen=True)
class PumSolution:
    """A smoothed solve: the point, its objective, and the certified
    Frank-Wolfe gap reached after ``iterations`` steps."""

    probs: np.ndarray
    objective: float
    gap: float
    iterations: int


def smoothed_choices(
    phi: np.ndarray, dataset: Dataset, epsilon: float, values, tol: float = TOL_OPT
) -> list[PumSolution]:
    """Maximize <v, p> - C(p) - epsilon * sum p ln p at each row v of ``values``.

    C is the fitted conjugate cost; the entropic term restores a unique
    maximizer, and costs at most epsilon * ln|A| of unsmoothed objective.
    Each solve runs pairwise Frank-Wolfe until its gap, a certified
    optimality bound, is at most ``tol``, and raises ``NoProgressError``
    when the gap stalls or ``FW_MAX_ITERATIONS`` steps run out.  A row that
    is not a finite vector over the menu raises ``ValidationError``, and a
    NaN ``tol`` raises ``ValueError``.
    """
    if not epsilon > 0:  # NaN included
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    _check_tol(tol)
    G, c = _max_affine_data(phi, dataset)
    return [_frank_wolfe(G, c, epsilon, _query_point(dataset, v, "value vector"), tol) for v in values]


def _frank_wolfe(G: np.ndarray, c: np.ndarray, eps: float, v: np.ndarray, tol: float) -> PumSolution:
    # Maximize J(lam) = <v, G'lam> - c'lam - eps * sum q ln q, q = G'lam, by
    # pairwise Frank-Wolfe from e_s, s the unsmoothed maximizer, which the
    # smoothed one stays near; the mixture cost c'lam is tight for C(q) at
    # the optimum.  J is eps-strongly concave in q under l1 (Pinsker), so q
    # is within sqrt(2 * gap / eps) of the maximizer in every coordinate.
    lam = np.zeros(G.shape[0])
    lam[int(np.argmax(G @ v - c))] = 1.0
    q = lam @ G
    for it in range(1, FW_MAX_ITERATIONS + 1):
        grad_q = v - eps * (1.0 + np.log(np.maximum(q, 1e-300)))
        grad_lam = G @ grad_q - c
        s = int(np.argmax(grad_lam))
        gap = float(grad_lam[s]) - comp_dot(grad_lam, lam)
        if gap <= tol:
            objective = comp_dot(v, q) - comp_dot(c, lam) - eps * _neg_entropy(q)
            return PumSolution(exact_simplex_array(np.maximum(q, 0.0)), objective, gap, it)
        # The away vertex a is the worst of those carrying over tol / n of
        # the gap, one of which always does; a smaller weight may stay put.
        carries = lam * (grad_lam[s] - grad_lam) > tol / lam.size
        a = int(np.argmin(np.where(carries, grad_lam, np.inf)))
        # Exact line search: moving gamma from a to s, J'(gamma) = <v, dq> -
        # (c_s - c_a) - eps <dq, 1 + ln(q + gamma dq)> falls, so the step is
        # the largest double in [0, lam_a] where J' >= 0: lam_a, or found by
        # bisecting the bit patterns, which order non-negative doubles.
        dq = G[s] - G[a]
        rise = float(v @ dq - (c[s] - c[a]))
        qs, dq = q[dq != 0], dq[dq != 0]
        step = lam[a:a + 1].copy()
        bits = step.view(np.int64)
        lo = 0
        hi = mid = int(bits[0])
        with np.errstate(divide="ignore", invalid="ignore"):  # ln 0 = -inf on a face
            while lo < hi:
                bits[0] = mid
                if rise - eps * float(dq @ (1.0 + np.log(qs + step * dq))) >= 0.0:
                    lo = mid
                else:
                    hi = mid - 1
                mid = (lo + hi + 1) // 2
        if lo == 0:
            break
        bits[0] = lo
        lam[s] += step[0]
        lam[a] -= step[0]
        q = lam @ G
    raise NoProgressError(f"pairwise Frank-Wolfe stalled above gap {tol:.3e}")


# ---------------------------------------------------------------------------
# Round-trip verification.


@dataclass(frozen=True)
class RationalizationReport:
    """Numerical certificate that the fitted cost rationalizes the data.

    For each observation i, ``fenchel_gaps[i]`` is the Afriat shortfall
    f(v^i) - phi_i >= 0, which bounds the true gap |<v^i, p^i> - C(p^i) -
    f(v^i)|: lam = e_i gives C(p^i) <= c_i = <v^i, p^i> - phi_i, and
    Fenchel-Young gives C(p^i) >= <v^i, p^i> - f(v^i).
    ``optimality_gaps[i]`` is the largest advantage any competitor q attains
    over phi_i in <v^i, q> - C(q), vertices priced through f.  Both
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

    The competitors are every gradient vertex g_j plus ``mixtures`` random
    convex combinations drawn from the supplied generator (seeded from 0
    when omitted, so runs are reproducible), all in conv{g_j}, where the
    conjugate is finite.  The gradients are the probabilities, so f(v^j) is
    read off the edge weights.  Priced at c_j, vertex g_j's advantage at v^i
    is phi_j - w(j -> i) - phi_i, so their best is f(v^i) - phi_i, the
    Fenchel gap: only the mixtures go to the LP and to products with V.

    ``tol`` is absolute and bounds both gaps.  A Fenchel gap is an Afriat
    shortfall, which the potentials' certified slack bounds, so pass the
    check's slack plus a numerical tolerance.  A NaN ``tol`` raises
    ``ValueError``.

    Memory is O((n + mixtures) |A|) plus ``ROW_BLOCK_CELLS``-cell blocks: W,
    the Dirichlet draws and the mixtures' values <v^i, q> - C(q) are formed
    one block at a time, and each block is reduced to mixture points or to
    maxima, which are exact in any order.
    """
    if mixtures < 0:
        raise ValueError(f"mixtures must be non-negative, got {mixtures}")
    _check_tol(tol)
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
    Q = np.vstack([G[:0], *draws])
    lp = dict.fromkeys(LP_COUNTERS, 0)
    cost = _conjugate_many(G, c, Q, lp)
    if not np.all(np.isfinite(cost)):
        raise CycloratError("conjugate reported infeasible at an in-hull point")

    # <v^i, g_j> - c_j = phi_j - W[j, i], so the vertices' best is f(v^i).
    best = extension
    for cols in row_blocks(n, mixtures):
        best = np.maximum(best, (V @ Q[cols].T - cost[cols]).max(axis=1))
    return RationalizationReport(
        fenchel_gaps=extension - phi,
        optimality_gaps=best - phi,
        tolerance=tol,
        n_vertex_points=n,
        n_mixture_points=mixtures,
        lp=lp,
    )
