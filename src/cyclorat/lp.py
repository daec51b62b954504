"""Small dense linear programming in standard equality form.

Solves  min c'x  s.t.  A x = b, x >= 0  for problems with a handful of rows
(here: one row per alternative plus the mixture constraint) and up to a few
hundred columns.  A two-phase tableau simplex with a Dantzig rule and a
Bland fallback against cycling keeps the solves exact at basic solutions,
which the conjugate-cost tests rely on.  An optimal result carries its
final basis, so a caller with many right-hand sides can reuse it.

``batch_support_values`` scans candidate supports directly, for many
right-hand sides at once; it is combinatorial in the column count and is
the tests' reference, with ``enumerate_basic_values`` as its one-query form.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded" | "stalled"
    x: np.ndarray | None
    value: float
    basis: tuple[int, ...] = ()  # when optimal: one column per row phase 1 kept


def _pivot(T: np.ndarray, row: int, col: int) -> None:
    # One rank-1 update eliminates the column from every other row.
    T[row] /= T[row, col]
    f = T[:, col].copy()
    f[row] = 0.0
    T -= np.outer(f, T[row])


def _run_simplex(
    T: np.ndarray, basis: list[int], ncols: int, tol: float, max_iter: int
) -> str:
    # Objective row is T[-1]; reduced costs live in T[-1, :ncols].  Dantzig
    # pricing runs first for speed; after `bland_after` iterations both the
    # entering and leaving choices switch to Bland's smallest-index rule,
    # which cannot cycle.  Ratio-test ties always break toward the smallest
    # basis variable index (the leaving half of Bland's rule) since the
    # conjugate instances are heavily degenerate.
    m = T.shape[0] - 1
    bland_after = 50 + 3 * (m + ncols)
    basis_arr = np.asarray(basis)
    for it in range(max_iter):
        red = T[-1, :ncols]
        if it < bland_after:
            col = int(np.argmin(red))
            if red[col] >= -tol:
                return "optimal"
        else:
            negs = np.flatnonzero(red < -tol)
            if negs.size == 0:
                return "optimal"
            col = int(negs[0])
        colvals = T[:m, col]
        pos = colvals > tol
        if not pos.any():
            return "unbounded"
        ratios = np.full(m, np.inf)
        ratios[pos] = T[:m, -1][pos] / colvals[pos]
        rmin = float(np.min(ratios))
        tied = np.flatnonzero(ratios <= rmin + tol * (1.0 + abs(rmin)))
        row = int(tied[np.argmin(basis_arr[tied])])
        _pivot(T, row, col)
        basis[row] = col
        basis_arr[row] = col
    return "stalled"


def solve_equality_lp(
    c: np.ndarray,
    A: np.ndarray,
    b: np.ndarray,
    *,
    feas_tol: float = 1e-9,
    pivot_tol: float = 1e-11,
    max_iter: int = 10_000,
) -> LPResult:
    """Two-phase simplex for min c'x, A x = b, x >= 0."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    m, n = A.shape

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
    status = _run_simplex(T, basis, n + m, pivot_tol, max_iter)
    if status != "optimal":
        return LPResult("stalled", None, math.nan)
    infeas = -T[-1, -1]
    if infeas > feas_tol * (1.0 + float(np.abs(b).max(initial=0.0))):
        return LPResult("infeasible", None, math.inf)

    # Drive leftover artificials out of the basis where possible.
    for r in range(m):
        if basis[r] >= n:
            cols = np.flatnonzero(np.abs(T[r, :n]) > pivot_tol)
            if cols.size:
                _pivot(T, r, int(cols[0]))
                basis[r] = int(cols[0])

    keep = [r for r in range(m) if basis[r] < n]
    drop = [r for r in range(m) if basis[r] >= n]
    if drop:
        # Rows still basic in an artificial are redundant (zero level).
        T = np.delete(T, drop, axis=0)
        basis = [basis[r] for r in keep]
        m = len(basis)

    # Phase 2: restore the real objective, priced out over the basis.
    T2 = np.zeros((m + 1, n + 1))
    T2[:m, :n] = T[:m, :n]
    T2[:m, -1] = T[:m, -1]
    T2[-1, :n] = c
    for r, col in enumerate(basis):
        T2[-1] -= c[col] * T2[r]
    status = _run_simplex(T2, basis, n, pivot_tol, max_iter)
    if status == "unbounded":
        return LPResult("unbounded", None, -math.inf)
    if status != "optimal":
        return LPResult("stalled", None, math.nan)
    x = np.zeros(n)
    for r, col in enumerate(basis):
        x[col] = T2[r, -1]
    value = float(np.dot(c, x))
    return LPResult("optimal", x, value, tuple(basis))


def batch_support_values(
    c: np.ndarray,
    A: np.ndarray,
    B: np.ndarray,
    *,
    feas_tol: float = 1e-9,
) -> np.ndarray:
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
        feas = (lam.min(axis=1) >= -feas_tol) & (resid <= feas_tol * scale[None, :])
        vals = np.einsum("ns,nsq->nq", c[idx], lam)
        vals = np.where(feas, vals, np.inf)
        best = np.minimum(best, vals.min(axis=0))
    return best


def enumerate_basic_values(
    c: np.ndarray,
    A: np.ndarray,
    b: np.ndarray,
    *,
    feas_tol: float = 1e-9,
) -> float:
    """``batch_support_values`` for the single right-hand side ``b``."""
    B = np.asarray(b, dtype=float)[None, :]
    return float(batch_support_values(c, A, B, feas_tol=feas_tol)[0])
