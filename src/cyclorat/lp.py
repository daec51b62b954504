"""Small dense linear programming in standard equality form.

Solves  min c'x  s.t.  A x = b, x >= 0  for problems with a handful of rows
(here: one row per alternative plus the mixture constraint) and up to a few
hundred columns, by a tableau simplex that stays exact at basic solutions,
which the conjugate-cost tests rely on.  Pivots follow Dantzig's rule until
m consecutive pivots make no step, then Bland's smallest-index rule, which
cannot cycle, until one moves again.  A solve runs two phases from an
artificial basis or, given ``start`` (the basis an optimal result for the
same A and c carries) and optionally its columns' pseudo-inverse, dual
pivots from that basis in place of phase 1.  Each result counts its pivots.

``batch_support_values`` scans candidate supports directly, for many
right-hand sides at once; it is combinatorial in the column count and is
the tests' reference, with ``enumerate_basic_values`` as its one-query form.

Every solve takes its tolerances from three constants: ``FEAS_TOL``, the
feasibility slack, scaled by 1 + max|b|; ``PIVOT_TOL``, below which a tableau
entry, reduced cost or step counts as zero; ``MAX_PIVOTS``, per phase.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

FEAS_TOL = 1e-9
PIVOT_TOL = 1e-11
MAX_PIVOTS = 10_000


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded" | "stalled"
    x: np.ndarray | None
    value: float
    basis: tuple[int, ...] = ()  # when optimal: one column per row phase 1 kept
    pivots: int = 0


def _pivot(T: np.ndarray, row: int, col: int) -> None:
    # One rank-1 update eliminates the column from every other row.
    T[row] /= T[row, col]
    f = T[:, col].copy()
    f[row] = 0.0
    T -= np.outer(f, T[row])


def _run_simplex(
    T: np.ndarray, basis: list[int], ncols: int, dual: float | None = None
) -> tuple[str, int]:
    # Reduced costs live in T[-1, :ncols].  Primal pivots enter the most
    # negative one.  Dual pivots, given ``dual``, keep them >= 0 and drop the
    # most negative basic value, entering the least reduced cost over |row
    # entry|; a row below -dual with no negative entry proves infeasibility.
    # Bland's rule takes over after m pivots without a step.  Ratio ties go
    # to the smallest index, as the conjugate instances are heavily
    # degenerate.  Returns the status and the number of pivots.
    m = T.shape[0] - 1
    basis_arr = np.asarray(basis)
    stuck = 0
    for it in range(MAX_PIVOTS):
        if dual is None:
            red = T[-1, :ncols]
            col = int(np.argmin(red) if stuck < m else np.argmax(red < -PIVOT_TOL))
            if red[col] >= -PIVOT_TOL:
                return "optimal", it
            colvals = T[:m, col]
            pos = colvals > PIVOT_TOL
            if not pos.any():
                return "unbounded", it
            ratios = np.full(m, np.inf)
            ratios[pos] = T[:m, -1][pos] / colvals[pos]
            step = float(np.min(ratios))
            tied = np.flatnonzero(ratios <= step + PIVOT_TOL * (1.0 + abs(step)))
            row = int(tied[np.argmin(basis_arr[tied])])
        else:
            vals = T[:m, -1]
            negs = np.flatnonzero(vals < -PIVOT_TOL)
            if negs.size == 0:
                return "optimal", it
            row = int(negs[np.argmin(vals[negs] if stuck < m else basis_arr[negs])])
            rowvals = T[row, :ncols]
            neg = rowvals < -PIVOT_TOL
            if not neg.any():
                return ("infeasible" if vals[row] < -dual else "stalled"), it
            ratios = np.full(ncols, np.inf)
            ratios[neg] = np.maximum(T[-1, :ncols][neg], 0.0) / -rowvals[neg]
            step = float(np.min(ratios))
            col = int(np.flatnonzero(ratios <= step + PIVOT_TOL * (1.0 + step))[0])
        _pivot(T, row, col)
        basis[row] = col
        basis_arr[row] = col
        stuck = stuck + 1 if step <= PIVOT_TOL else 0
    return "stalled", MAX_PIVOTS


def _warm_tableau(
    c: np.ndarray, A: np.ndarray, b: np.ndarray, basis: list[int], bound: float, inverse=None
) -> np.ndarray | None:
    # Phase-2 tableau of a start basis B: rows B^+ [A | b], with B^+ = ``inverse`` if given, exact
    # only if B has full column rank and spans the columns of A and b; None otherwise.
    r, n = len(basis), A.shape[1]
    AB, Ab = A[:, basis], np.column_stack([A, b])
    T = np.zeros((r + 1, n + 1))
    T[:r] = (np.linalg.pinv(AB) if inverse is None else inverse) @ Ab
    if np.abs(AB @ T[:r] - Ab).max() > bound or np.abs(T[:r, basis] - np.eye(r)).max() > bound:
        return None
    T[:r, basis] = np.eye(r)
    T[-1] = np.append(c, 0.0) - c[basis] @ T[:r]
    return T


def solve_equality_lp(
    c: np.ndarray, A: np.ndarray, b: np.ndarray, *, start: tuple[int, ...] | None = None, inverse=None
) -> LPResult:
    """Simplex for min c'x, A x = b, x >= 0, cold or from ``start``.

    A start that is no basis of A, or from which the dual pivots do not
    settle, falls back to the two phases.  A warm start uses ``inverse``,
    the pseudo-inverse of A's ``start`` columns, or else computes it.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    m, n = A.shape
    bound = FEAS_TOL * (1.0 + float(np.abs(b).max(initial=0.0)))
    basis = list(start or ())
    T2 = _warm_tableau(c, A, b, basis, bound, inverse) if start else None
    pivots = 0
    if T2 is not None:
        status, pivots = _run_simplex(T2, basis, n, bound)
        if status == "infeasible":
            return LPResult("infeasible", None, math.inf, (), pivots)
        if status != "optimal":
            T2 = None
    if T2 is None:
        flip = b < 0
        A = np.where(flip[:, None], -A, A)
        b = np.where(flip, -b, b)

        # Phase 1: artificial variables, minimize their sum.
        T = np.zeros((m + 1, n + m + 1))
        T[:m, :n] = A
        T[:m, n : n + m] = np.eye(m)
        T[:m, -1] = b
        T[-1, :n] = -A.sum(axis=0)
        T[-1, -1] = -b.sum()
        basis = list(range(n, n + m))
        status, phase1 = _run_simplex(T, basis, n + m)
        pivots += phase1
        if status != "optimal":
            return LPResult("stalled", None, math.nan, (), pivots)
        if -T[-1, -1] > bound:
            return LPResult("infeasible", None, math.inf, (), pivots)

        # Drive leftover artificials out of the basis where possible,
        # pivoting only on entries that stand out of the tableau's rounding.
        dust = PIVOT_TOL * max(1.0, float(np.abs(T[:m, :n]).max(initial=0.0)))
        for r in range(m):
            if basis[r] >= n:
                cols = np.flatnonzero(np.abs(T[r, :n]) > dust)
                if cols.size:
                    _pivot(T, r, int(cols[0]))
                    basis[r] = int(cols[0])
                    pivots += 1

        # Rows still basic in an artificial are redundant (zero level).
        keep = [r for r in range(m) if basis[r] < n]
        basis = [basis[r] for r in keep]

        # Phase 2: restore the real objective, priced out over the basis.
        T2 = np.zeros((len(keep) + 1, n + 1))
        T2[:-1, :n] = T[keep, :n]
        T2[:-1, -1] = T[keep, -1]
        T2[-1] = np.append(c, 0.0) - c[basis] @ T2[:-1]
    status, phase2 = _run_simplex(T2, basis, n)
    pivots += phase2
    if status == "unbounded":
        return LPResult("unbounded", None, -math.inf, (), pivots)
    if status != "optimal":
        return LPResult("stalled", None, math.nan, (), pivots)
    x = np.zeros(n)
    x[basis] = T2[:-1, -1]
    return LPResult("optimal", x, float(np.dot(c, x)), tuple(basis), pivots)


def batch_support_values(c: np.ndarray, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Minimum objective over basic feasible solutions, per right-hand side.

    Every vertex of {x >= 0, A x = b} has a support whose columns are
    linearly independent, so scanning supports of size 1..m visits every
    vertex; assumes the feasible set is bounded, so a vertex attains the
    minimum.  ``B`` has one right-hand side per row.  Supports are grouped
    by size so the pseudo-inverses and feasibility checks run batched.
    Returns one value per query (+inf where infeasible).  Intended for
    small column counts.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    c = np.asarray(c, dtype=float)
    m, n = A.shape
    nq = B.shape[0]
    scale = 1.0 + np.abs(B).max(axis=1)
    best = np.full(nq, np.inf)
    for size in range(1, min(n, m) + 1):
        supports = list(itertools.combinations(range(n), size))
        idx = np.array(supports)  # (ns, size)
        cols = np.stack([A[:, list(s)] for s in supports])  # (ns, m, size)
        pinv = np.linalg.pinv(cols)  # (ns, size, m)
        lam = pinv @ B.T  # (ns, size, nq)
        resid = np.abs(cols @ lam - B.T[None, :, :]).max(axis=1)  # (ns, nq)
        feas = (lam.min(axis=1) >= -FEAS_TOL) & (resid <= FEAS_TOL * scale[None, :])
        vals = np.einsum("ns,nsq->nq", c[idx], lam)
        vals = np.where(feas, vals, np.inf)
        best = np.minimum(best, vals.min(axis=0))
    return best


def enumerate_basic_values(c: np.ndarray, A: np.ndarray, b: np.ndarray) -> float:
    """``batch_support_values`` for the single right-hand side ``b``."""
    B = np.asarray(b, dtype=float)[None, :]
    return float(batch_support_values(c, A, B)[0])
