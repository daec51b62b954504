"""Independent brute-force oracles used by the tests.

These deliberately avoid the library's LP code paths: the exact
two-alternative conjugate is resolved by enumerating piece crossings of the
one-dimensional slice, and the grid transform scans value differences
directly.  The minimum cycle mean has two references: Karp's O(n^3)
dynamic program and, for small n, enumeration of every simple cycle, which
also decides cyclic monotonicity on its own (``brute_force_cm``).
Policy iteration's row-blocked rounds and verification's streamed blocks
are checked bit for bit against their dense forms.  The conjugate LP has
two: a one-query support scan by least squares, independent of the
library's batched pseudo-inverse scan, and a cold two-phase simplex solve
per query, which shares no basis between queries as the batched route
does.  The series CSV's reference builds every row as a tuple and formats
them one at a time.
Dataset validation's reference checks and builds a (values, probabilities)
pair of arrays per record, one record at a time, and returns matrices of
its own rather than a ``Dataset``, whose constructor is what it checks; the
CSV parser's reference reads one row at a time into nested dicts.
Weak stochastic transitivity's reference looks up every ordered triple of
labels in turn.
"""

from __future__ import annotations

import csv
import itertools
import math
import warnings
from pathlib import Path

import numpy as np

from cyclorat.core import TOL_CM, Dataset, Menu, _check_vector, validate_simplex
from cyclorat.dataio import CSV_COLUMNS, ParseError, csv_field
from cyclorat.errors import DuplicateValuesWarning, RecordValidationError, ValidationError
from cyclorat.lp import solve_equality_lp
from cyclorat import monotonicity
from cyclorat.monotonicity import (
    CMVerdict,
    MinMeanCycle,
    _policy_values,
    cycle_sum,
    edge_weights,
    row_blocks,
)
from cyclorat.rationalization import (
    LP_COUNTERS,
    RationalizationReport,
    _conjugate_many,
    _max_affine_data,
)


def conjugate_exact_2alt(slopes: np.ndarray, offsets: np.ndarray, x: float) -> float:
    """Exact conjugate of a two-alternative max-affine function at p = (x, 1-x).

    With pieces f(v) = max_i [s_i * (v1 - v2) - c_i] + v2 (s_i the first
    gradient coordinate, c_i the affine offset), the conjugate at x is
    sup_t [x * t - max_i (s_i * t - c_i)], a concave piecewise-linear
    function of t whose supremum sits at a crossing of two pieces (or at a
    flat when x equals a piece slope).  Evaluating the objective at every
    pairwise crossing is therefore exact.
    """
    s = np.asarray(slopes, dtype=float)
    c = np.asarray(offsets, dtype=float)
    lo, hi = float(np.min(s)), float(np.max(s))
    if x < lo - 1e-12 or x > hi + 1e-12:
        return math.inf
    x = min(max(x, lo), hi)
    if hi - lo <= 1e-15:  # single effective piece
        return float(np.min(c))
    best = -math.inf
    n = s.size
    for i in range(n):
        for j in range(i + 1, n):
            if s[i] == s[j]:
                continue
            t = (c[i] - c[j]) / (s[i] - s[j])
            val = x * t - float(np.max(s * t - c))
            if val > best:
                best = val
    return best


def conjugate_grid_2alt(
    slopes: np.ndarray, offsets: np.ndarray, x: float, *, half_range: float = 50.0, step: float = 1e-3
) -> float:
    """Grid Legendre transform over v in [-half_range, half_range]^2.

    Because probabilities and gradients both sum to one, the objective
    <v, p> - f(v) depends on v only through t = v1 - v2; the square grid
    therefore realizes exactly the t values k * step with |t| <= 2 *
    half_range, and the two-dimensional grid supremum equals this
    one-dimensional scan.  The scan never exceeds the true supremum, and
    undershoots it by O(step) at points where the supremum sits between
    grid nodes.
    """
    s = np.asarray(slopes, dtype=float)
    c = np.asarray(offsets, dtype=float)
    k = int(round(2 * half_range / step))
    t = np.arange(-k, k + 1, dtype=float) * step
    vals = x * t - np.max(s[:, None] * t[None, :] - c[:, None], axis=0)
    return float(np.max(vals))


def karp_min_mean(W: np.ndarray) -> tuple[float, tuple[int, ...] | None]:
    """Karp's minimum mean-weight cycle, plus one cycle attaining it.

    d_k(v) = min weight of a walk of exactly k edges from node 0 to v;
    the minimum cycle mean is min_v max_k (d_n(v) - d_k(v)) / (n - k).
    The cycle comes back as 0-based nodes, smallest first.
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
            cycle = walk[first_pos[u]:pos][::-1]
            k = cycle.index(min(cycle))
            return lam, tuple(cycle[k:] + cycle[:k])
        first_pos[u] = pos
    return lam, None


def simple_cycles(n: int):
    """Every simple directed cycle on nodes 0..n-1 once, smallest node first:
    by length, then node set in combination order, then permutation order.
    Their number grows factorially, so n should stay at 8 or below."""
    for k in range(2, n + 1):
        for subset in itertools.combinations(range(n), k):
            for rest in itertools.permutations(subset[1:]):
                yield (subset[0],) + rest


def min_mean_by_enumeration(W: np.ndarray) -> float:
    """Smallest compensated-sum mean over every simple cycle of W (small n)."""
    best = math.inf
    for cyc in simple_cycles(W.shape[0]):
        total = math.fsum(W[i, j] for i, j in zip(cyc, cyc[1:] + cyc[:1]))
        best = min(best, total / len(cyc))
    return best


def brute_force_cm(dataset: Dataset, tol: float = TOL_CM) -> CMVerdict:
    """Decide cyclic monotonicity by summing every simple cycle (small n).

    The same per-edge rule as ``check_cyclic_monotonicity``: a violation iff
    some cycle's compensated mean is below ``-tol``, with the first
    least-mean cycle of ``simple_cycles`` as the witness.  ``min_cycle_sum``
    is the smallest cycle sum, a diagnostic; n = 1 passes with no cycle.
    """
    best_sum = best_mean = math.inf
    best = None
    for cyc in simple_cycles(dataset.n):
        indices = tuple(i + 1 for i in cyc)
        s = cycle_sum(dataset, indices)
        best_sum = min(best_sum, s)
        if s / len(cyc) < best_mean:
            best_mean, best = s / len(cyc), indices
    if best is None:
        return CMVerdict(None, None, None)
    if best_mean < -tol:
        return CMVerdict(best, best_mean, best_sum)
    return CMVerdict(None, best_mean, best_sum)


def dense_min_mean_cycle(W: np.ndarray) -> MinMeanCycle:
    """Howard policy iteration as the library ran it before row blocks.

    Each round forms the whole n x n matrix W + x (or W[:, cols] + x[cols])
    and the final pass masks W with ``isfinite``; the blocked routine must
    return the same result bit for bit.
    """
    n = W.shape[0]
    if n < 2:
        return MinMeanCycle(math.inf, None, math.inf, 0, np.zeros(n))
    rows = np.arange(n)
    buf = np.empty_like(W)
    u = np.finfo(float).eps / 2
    pi = np.argmin(W, axis=1)
    for iterations in range(1, monotonicity.MIN_MEAN_MAX_ITERATIONS + 1):
        w = W[rows, pi]
        eta, x, cycles = _policy_values(pi.tolist(), w.tolist())
        lam = float(eta.min())
        tied = eta == lam
        if tied.all():
            succ = np.argmin(np.add(W, x, out=buf), axis=1)
        else:
            cols = np.flatnonzero(tied)
            succ = cols[np.argmin(W[:, cols] + x[cols], axis=1)]
        best = W[rows, succ] + x[succ]
        thr = 16.0 * u * (2.0 * float(np.max(np.abs(x))) + float(np.max(np.abs(w))) + abs(lam))
        switch = (~tied | (best - lam < x - thr)) & (succ != pi)
        if not switch.any():
            break
        pi = np.where(switch, succ, pi)
    if not tied.all():
        best = np.min(np.add(W, x, out=buf), axis=1)
    slack = float(np.max((x - best) + lam))
    wmax = max(-float(W.min()), float(np.max(W, where=np.isfinite(W), initial=0.0)))
    scale = 2.0 * float(np.max(np.abs(x))) + wmax + abs(lam) + abs(slack)
    delta = slack + 5.0 * u / (1.0 - 5.0 * u) * scale
    cycle = min(c for mean, c in cycles if mean == lam)
    return MinMeanCycle(lam, cycle, lam - delta, iterations, x)


def dense_verify(
    dataset: Dataset, phi, tol: float = 1e-8, *, mixtures: int = 1000, rng=None, blocked: bool = True
) -> RationalizationReport:
    """``verify_rationalization`` with every operand whole: W, the mixtures x n
    Dirichlet draws made in one call, and the n x (n + mixtures) competitor
    matrix, maximized in one pass.

    BLAS may round a block of a product differently from the same entries of
    the whole product.  So by default the pool is formed from the library's
    row blocks of the draws and the competitor matrix from its column blocks
    of the pool, and a comparison tests the streaming, not BLAS.
    ``blocked=False`` forms both as single products, as verification did
    before it streamed.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    G, c = _max_affine_data(phi, dataset)
    V, n = dataset.values_matrix, dataset.n
    extension = np.maximum(phi, np.max(phi[:, None] - edge_weights(dataset), axis=0))
    draws = rng.dirichlet(np.ones(n), size=mixtures)
    blocks = row_blocks(n, mixtures) if blocked else [slice(None)]
    pool = np.vstack([G] + [draws[b] @ G for b in blocks])
    lp = dict.fromkeys(LP_COUNTERS, 0)
    pool_cost = np.concatenate([c, _conjugate_many(G, c, pool[n:], lp)])
    cols = row_blocks(n, pool.shape[0]) if blocked else [slice(None)]
    competitor = np.hstack([V @ pool[b].T for b in cols]) - pool_cost
    return RationalizationReport(extension - phi, competitor.max(axis=1) - phi, tol, n, mixtures, lp)


def enumerate_basic_values(
    c: np.ndarray,
    A: np.ndarray,
    b: np.ndarray,
    *,
    feas_tol: float = 1e-9,
) -> float:
    """Minimum objective over basic feasible solutions by support scan.

    Every vertex of {x >= 0, A x = b} has a support whose columns are
    linearly independent, so scanning supports of size 1..m and solving the
    restricted least-squares system visits every vertex.  Assumes the
    feasible set is bounded, so a vertex attains the minimum.  Returns +inf
    when no support is feasible.  Intended for small column counts.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    m, n = A.shape
    scale = 1.0 + float(np.abs(b).max(initial=0.0))
    best = math.inf
    for size in range(1, min(n, m) + 1):
        for support in itertools.combinations(range(n), size):
            cols = A[:, support]
            x, *_ = np.linalg.lstsq(cols, b, rcond=None)
            if np.min(x, initial=0.0) < -feas_tol:
                continue
            if np.max(np.abs(cols @ x - b), initial=0.0) > feas_tol * scale:
                continue
            val = float(np.dot(c[list(support)], x))
            if val < best:
                best = val
    return best


def wst_by_permutations(binary: dict, tol: float = 1e-9) -> list[tuple[str, str, str]]:
    """Weak-stochastic-transitivity triples, one ordered triple at a time."""
    probs: dict[tuple[str, str], float] = {}
    for (x, y), p in binary.items():
        if x == y:
            raise ValidationError(f"pair ({x!r}, {x!r}) compares an item to itself")
        p = float(p)
        if math.isnan(p) or p < 0.0 or p > 1.0:
            raise ValidationError(f"p({x},{y}) = {p!r} is not a probability in [0, 1]")
        probs[(x, y)] = p
    for (x, y), p in probs.items():
        q = probs.get((y, x))
        if q is not None and abs(p + q - 1.0) > tol:
            raise ValidationError(
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


def cold_conjugate_values(c: np.ndarray, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """One two-phase simplex solve per right-hand side row of ``B``."""
    return np.array([solve_equality_lp(c, A, b).value for b in B])


def series_rows(datasets: dict, report: dict) -> list[tuple[str, str, str, float]]:
    """Tidy (menu_id, series, key, value) rows of the report-all series CSV.

    Menus in id order: the two-cycle sums over i < j in row-major order,
    then potentials, Fenchel gaps and optimality gaps, one tuple per row.
    """
    rows: list[tuple[str, str, str, float]] = []
    by_id = {section["menu_id"]: section for section in report.get("menus", [])}
    for menu_id in sorted(datasets):
        d = datasets[menu_id]
        W = edge_weights(d)
        first, second = np.triu_indices(d.n, 1)
        for i, j, s in zip(first, second, (W + W.T)[first, second].tolist()):
            rows.append((menu_id, "two_cycle_sum", f"{i + 1}-{j + 1}", s))
        section = by_id.get(menu_id, {})
        for i, phi in enumerate(section.get("potentials", {}).get("potentials", []), start=1):
            rows.append((menu_id, "potential", str(i), float(phi)))
        verification = section.get("verification", {})
        for name in ("fenchel_gaps", "optimality_gaps"):
            for i, gap in enumerate(verification.get(name, []), start=1):
                rows.append((menu_id, name[:-1], str(i), float(gap)))
    return rows


def write_series_csv(path: Path, rows: list[tuple[str, str, str, float]]) -> None:
    """Write ``series_rows`` output one formatted row at a time."""
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("menu_id,series,key,value\n")
        for menu_id, series, key, value in rows:
            fh.write(f"{csv_field(menu_id)},{series},{key},{value:.17g}\n")


def validate_dataset_per_record(menu: Menu, values_rows, probs_rows, *, tol=1e-9) -> tuple:
    """``Dataset(menu, values_rows, probs_rows, tol=tol)`` one record at a
    time, through the scalar validators: ``(menu, values, probs)``, the
    matrices built here from the validated rows."""
    if len(values_rows) != len(probs_rows):
        raise ValidationError(f"{len(values_rows)} value rows vs {len(probs_rows)} probability rows")
    if not len(values_rows):
        raise ValidationError("no records supplied")

    pairs: list[tuple[np.ndarray, np.ndarray]] = []
    failures: list[tuple[int, Exception]] = []
    for k, (values, probs) in enumerate(zip(values_rows, probs_rows)):
        try:
            v = _check_vector(values, name="value vector")
            if v.size != menu.size:
                raise ValidationError(
                    f"{v.size} values against a menu of size {menu.size}"
                )
            p = validate_simplex(probs, tol)
            if p.size != menu.size:
                raise ValidationError(
                    f"{p.size} probabilities against a menu of size {menu.size}"
                )
            pairs.append((v, p))
        except Exception as exc:  # aggregated below with record indices
            failures.append((k + 1, exc))
    if failures:
        raise RecordValidationError(failures)
    vmax = max(float(np.max(np.abs(v))) for v, _ in pairs)
    bound = np.finfo(float).max / (32 * len(pairs))
    if vmax > bound:
        raise ValidationError(
            f"menu {menu.id!r} has values up to {vmax:.6g} in magnitude, above "
            f"float max / (32 n) = {bound:.6g}, where cycle sums can overflow"
        )

    seen: dict[bytes, tuple[int, bytes]] = {}
    for k, (v, p) in enumerate(pairs):
        key, pkey = v.tobytes(), p.tobytes()
        if key in seen and seen[key][1] != pkey:
            warnings.warn(
                f"observations {seen[key][0] + 1} and {k + 1} share a value vector "
                "but differ in probabilities",
                DuplicateValuesWarning,
                stacklevel=2,
            )
        seen.setdefault(key, (k, pkey))

    return menu, np.array([v for v, _ in pairs]), np.array([p for _, p in pairs])


def parse_datasets_csv_per_row(path) -> dict[str, tuple]:
    """``parse_datasets_csv`` one row at a time, validating per record: each
    menu's ``(menu, values, probs)`` from ``validate_dataset_per_record``."""
    with Path(path).open("r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(1, "file is empty; expected a header row") from None
        header = [h.strip() for h in header]
        missing = [c for c in CSV_COLUMNS if c not in header]
        if missing:
            raise ValidationError(f"missing column(s): {', '.join(missing)}")
        extra = [c for c in header if c not in CSV_COLUMNS]
        if extra:
            raise ParseError(1, f"unexpected column(s): {', '.join(extra)}")
        repeated = [c for c in CSV_COLUMNS if header.count(c) > 1]
        if repeated:
            raise ParseError(1, f"repeated column(s): {', '.join(repeated)}")
        col = {name: header.index(name) for name in CSV_COLUMNS}

        # menu_id -> {"alts": [...], "obs": {obs_id: {alt: (value, prob)}}}
        menus: dict[str, dict] = {}
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise ParseError(line_no, f"expected {len(header)} fields, got {len(row)}")
            menu_id = row[col["menu_id"]].strip()
            obs_id = row[col["obs_id"]].strip()
            alt = row[col["alternative"]].strip()
            try:
                value = float(row[col["value"]])
                prob = float(row[col["prob"]])
            except ValueError as exc:
                raise ParseError(line_no, str(exc)) from None
            entry = menus.setdefault(menu_id, {"alts": [], "obs": {}})
            if alt not in entry["alts"]:
                entry["alts"].append(alt)
            cells = entry["obs"].setdefault(obs_id, {})
            if alt in cells:
                raise ParseError(
                    line_no,
                    f"duplicate alternative {alt!r} for menu {menu_id!r}, observation {obs_id!r}",
                )
            cells[alt] = (value, prob)
    if not menus:
        raise ValidationError(f"{path} holds no records")

    out: dict[str, tuple] = {}
    for menu_id, entry in menus.items():
        alts = entry["alts"]
        values_rows, probs_rows = [], []
        for obs_id, cells in entry["obs"].items():
            absent = [a for a in alts if a not in cells]
            if absent:
                raise ValidationError(
                    f"menu {menu_id!r}, observation {obs_id!r} lacks alternatives {absent!r}"
                )
            values_rows.append([cells[a][0] for a in alts])
            probs_rows.append([cells[a][1] for a in alts])
        out[menu_id] = validate_dataset_per_record(Menu(menu_id, tuple(alts)), values_rows, probs_rows)
    return out
