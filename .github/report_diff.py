"""Compare the CLI outputs of two source trees on the benchmark's seeded inputs.

    python3 .github/report_diff.py BASE_SRC HEAD_SRC WORKDIR [SEED ...]

Builds the check_n1000, verify_n200 and report_menus inputs of each seed
(seed 1 by default) with ``bench/inputs.py``, runs each through the CLI of
both trees (``PYTHONPATH=<tree>``) and prints, per workload and seed, whether
the exit code, stderr, the report without its ``timing*`` keys and the
series CSV are byte-identical.  Where a report or series differs, it names
each field that moved (list indices as ``[]``) with its largest absolute
move.  It only prints; its exit code is 0 whatever it finds.
"""

from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import inputs  # noqa: E402

WORKLOADS = ("check_n1000", "verify_n200", "report_menus")


def run_cli(src: Path, command: str, data: Path, out: Path) -> dict:
    # One output path for both trees, so the report's series_csv field agrees.
    series = out.with_suffix(".series.csv")
    for stale in (out, series):
        stale.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "cyclorat.cli", command, "--input", str(data), "--output", str(out)],
        env=env, stdin=subprocess.DEVNULL, capture_output=True,
    )
    return {
        "exit code": proc.returncode,
        "stderr": proc.stderr,
        "report": json.loads(out.read_text()) if out.exists() else None,
        "series": series.read_text() if series.exists() else None,
    }


def strip_timing(obj):
    # cyclorat.report.strip_timing, restated so that neither tree's code
    # takes part in the comparison.
    if isinstance(obj, dict):
        return {k: strip_timing(v) for k, v in obj.items() if not str(k).startswith("timing")}
    if isinstance(obj, list):
        return [strip_timing(v) for v in obj]
    return obj


def moves(a, b, path: str, out: dict) -> None:
    """Record, per field path, the largest |b - a| (inf where not both numbers)."""
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        for k in a:
            moves(a[k], b[k], f"{path}.{k}" if path else k, out)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for x, y in zip(a, b):
            moves(x, y, f"{path}[]", out)
    elif a != b:
        num = all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (a, b))
        out[path] = max(out.get(path, 0.0), abs(b - a) if num else float("inf"))


def series_moves(a: str, b: str) -> dict:
    """Per series column, the largest move of a row's value (inf if its keys moved)."""
    out: dict = {}
    rows_a, rows_b = list(csv.reader(io.StringIO(a))), list(csv.reader(io.StringIO(b)))
    if len(rows_a) != len(rows_b):
        return {"row count": float("inf")}
    for x, y in zip(rows_a, rows_b):
        if x != y:
            same_key = x[:3] == y[:3]
            out[x[1]] = max(out.get(x[1], 0.0), abs(float(y[3]) - float(x[3])) if same_key else float("inf"))
    return out


def describe(found: dict) -> str:
    return "; ".join(f"{k or 'the whole report'} (largest move {v:.3g})" for k, v in sorted(found.items()))


def compare(base: Path, head: Path, work: Path, name: str, seed: int) -> None:
    workload = inputs.WORKLOADS[name](np.random.default_rng(seed))
    data, out = work / f"{name}_{seed}.csv", work / "report.json"
    inputs.write_csv(data, workload.menus)
    a, b = (run_cli(src, workload.command, data, out) for src in (base, head))
    same = {k: a[k] == b[k] for k in ("exit code", "stderr", "series")}
    ra, rb = (strip_timing(r["report"]) for r in (a, b))
    same["report"] = json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)
    verdict = ", ".join(f"{k} {'identical' if ok else 'differs'}" for k, ok in same.items())
    print(f"- {name} seed {seed}: {verdict}")
    if not same["report"]:
        found: dict = {}
        moves(ra, rb, "", found)
        print(f"  - report fields moved: {describe(found)}")
    if not same["series"] and a["series"] is not None and b["series"] is not None:
        print(f"  - series rows moved: {describe(series_moves(a['series'], b['series']))}")


def main(argv: list[str]) -> int:
    base, head, work = (Path(a).resolve() for a in argv[:3])
    work.mkdir(parents=True, exist_ok=True)
    for name in WORKLOADS:
        for seed in [int(s) for s in argv[3:]] or [1]:
            try:
                compare(base, head, work, name, seed)
            except Exception as exc:  # noqa: BLE001 - this script only reports
                print(f"- {name} seed {seed}: could not compare ({exc!r})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
