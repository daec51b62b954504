"""Seeded benchmark of the cyclorat command line, end to end and per layer.

Run from the repository root; it needs numpy and the standard library, runs
the CLI from ``src/`` with ``PYTHONPATH=src`` (no install) and builds its
inputs itself from the seed:

    python3 bench/run.py --workload check_n1000 --seed 1 --seconds 30 --trace 0

``--trace 0`` times untraced CLI processes in a closed loop, one after the
other, for ``--seconds`` seconds and reports the median wall time, peak RSS
and the median interpreter start-up (``setup_s``).  ``--trace 1`` times a few
untraced calls, then makes one call in a traced process (``tracer.py``) and
reports per-layer self times and call counts.  Every call's outputs are
checked against the benchmark's own ground truth (``checks.py``).  The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, where ``attempted`` and
``failed`` count output checks.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import inputs
from tracer import LAYERS

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
RUN_LIMIT_S = 160  # every run must end within 180 s
SETUP_REPEATS = 5
CLI = [sys.executable, "-m", "cyclorat.cli"]
TRACER = [sys.executable, str(BENCH / "tracer.py")]

# Per-layer metrics: name -> unit.  "<layer>_s" is the summed self time of
# that layer's spans, "<layer>_calls" their number.
PER_LAYER = {
    "import.numpy_s": "s",
    "import.cyclorat_s": "s",
    "dataio.parse_s": "s",
    "dataio.rows": "count",
    "dataio.bytes_in": "bytes",
    "core.validate_s": "s",
    "monotonicity.check_s": "s",
    "monotonicity.check_calls": "count",
    "monotonicity.edge_weights_s": "s",
    "monotonicity.edge_weights_calls": "count",
    "monotonicity.cycle_sum_s": "s",
    "monotonicity.cycle_sum_calls": "count",
    "monotonicity.two_point_s": "s",
    "rationalization.potentials_s": "s",
    "rationalization.verify_s": "s",
    "rationalization.cost_description_s": "s",
    "lp.simplex_s": "s",
    "lp.simplex_calls": "count",
    "lp.simplex_ms_per_call": "ms",
    "lp.enumerate_s": "s",
    "lp.enumerate_calls": "count",
    "lp.batch_support_s": "s",
    "lp.batch_support_calls": "count",
    "report.dumps_s": "s",
    "report.bytes_out": "bytes",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "cli.series_rows": "count",
    "proc.cpu_s": "s",
    "proc.trace_overhead_s": "s",
}


@dataclass(frozen=True)
class Child:
    wall_s: float  # spawn to exit
    rss_mb: float  # maximum resident set size
    cpu_s: float  # user plus system time
    exit_code: int


def spawn(argv: list[str], log: Path, limit_s: float) -> Child:
    """Run one child process to completion and read its usage with wait4."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = threading.Event()
    with log.open("ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err
        )
    timer = threading.Timer(max(limit_s, 1.0), lambda: done.is_set() or proc.kill())
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        done.set()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime, proc.returncode)


class Run:
    """One benchmark run: inputs, child processes and check tallies."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.input = inputs.WORKLOADS[workload](np.random.default_rng(seed))
        self.csv = workdir / "input.csv"
        self.sha256 = inputs.write_csv(self.csv, self.input.menus)
        self.log = workdir / "stderr.log"
        self.report = workdir / "report.json"
        self.spans = workdir / "spans.json"
        self.trace: dict | None = None
        self.attempted = 0  # output checks
        self.failures: list[str] = []

    def left(self) -> float:
        return self.deadline - time.perf_counter()

    def record(self, label: str, results: dict[str, bool]) -> None:
        self.attempted += len(results)
        self.failures += [f"{label}:{name}" for name, ok in results.items() if not ok]

    def call(self, label: str, traced: bool = False) -> Child:
        """Spawn one CLI call, plain or under the tracer, and check its outputs."""
        for stale in (self.report, self.report.with_suffix(".series.csv")):
            stale.unlink(missing_ok=True)
        head = TRACER + [str(self.spans), "--"] if traced else CLI
        args = [self.input.command, "--input", str(self.csv), "--output", str(self.report)]
        child = spawn(head + args, self.log, self.left())
        code = child.exit_code
        if traced and code == 0:
            # The tracer exits 0 after writing the spans; the CLI's code is inside.
            self.trace = json.loads(self.spans.read_text(encoding="utf-8"))
            code = self.trace["exit_code"]
        self.record(label, checks.check_invocation(self.input, code, self.report, self.seed))
        return child

    def untraced(self, seconds: float) -> list[Child]:
        """Closed loop of CLI calls, stopping near ``seconds`` of elapsed time."""
        calls: list[Child] = []
        start = time.perf_counter()
        while True:
            child = self.call(f"call{len(calls) + 1}")
            calls.append(child)
            elapsed = time.perf_counter() - start
            if elapsed + child.wall_s / 2 >= seconds or child.wall_s * 1.2 > self.left():
                return calls

    def setup_times(self) -> list[float]:
        """Fresh interpreters importing the CLI; the first, which may write
        bytecode caches, is not counted."""
        times = []
        for k in range(SETUP_REPEATS + 1):
            child = spawn([sys.executable, "-c", "import cyclorat.cli"], self.log, self.left())
            self.record(f"setup{k}", {"import_exit_code": child.exit_code == 0})
            if k:
                times.append(child.wall_s)
        return times


def layer_metrics(run: Run, traced: Child, calls: list[Child]) -> tuple[dict, dict]:
    """Per-layer metrics from the spans, plus the closure of self times."""
    spans = run.trace["spans"]
    nested = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            nested[parent] += end - start
    self_s: defaultdict[str, float] = defaultdict(float)
    calls_of: Counter = Counter()
    root: list[int] = []
    under_main = 0.0
    for k, (name, parent, start, end) in enumerate(spans):
        own = end - start - nested[k]
        self_s[name] += own
        calls_of[name] += 1
        root.append(k if parent < 0 else root[parent])
        if spans[root[k]][0] == "cli.main":
            under_main += own
    main_s = sum(end - start for name, _, start, end in spans if name == "cli.main")

    absent = set(run.trace["absent"])
    out: dict[str, float | int | None] = {}
    for metric in PER_LAYER:
        layer, _, kind = metric.rpartition("_")
        if layer in LAYERS:
            out[metric] = None if layer in absent else self_s[layer] if kind == "s" else calls_of[layer]
    out["import.numpy_s"] = self_s["import.numpy"]
    out["import.cyclorat_s"] = self_s["import.cyclorat"]
    if out["lp.simplex_s"] is not None:
        # 0 when the simplex was not called.
        out["lp.simplex_ms_per_call"] = 1000.0 * out["lp.simplex_s"] / max(out["lp.simplex_calls"], 1)
    report = run.report
    series = report.with_suffix(".series.csv")
    out["dataio.rows"] = run.input.rows
    out["dataio.bytes_in"] = run.csv.stat().st_size
    out["report.bytes_out"] = sum(p.stat().st_size for p in (report, series) if p.exists())
    out["cli.main_s"] = main_s
    out["cli.self_s"] = self_s["cli.main"]
    out["cli.series_rows"] = len(series.read_bytes().splitlines()) - 1 if series.exists() else 0
    out["proc.cpu_s"] = statistics.median(c.cpu_s for c in calls)
    out["proc.trace_overhead_s"] = traced.wall_s - statistics.median(c.wall_s for c in calls)
    return {m: out.get(m) for m in PER_LAYER}, {"cli.main_s": main_s, "sum_of_self_s": under_main}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_threads() -> str:
    # numpy wheels bundle OpenBLAS under numpy.libs; ask it directly.
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return str(getattr(lib, symbol)())
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS") or "unknown"


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def environment() -> dict:
    def version(pkg: str) -> str:
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "commit": git_commit(),
        "src_lines": sum(
            len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py"))
        ),
    }


def measure(run: Run, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Returns (metrics, details) for one run."""
    if not trace:
        setup = run.setup_times()
        calls = run.untraced(seconds)
        walls = [c.wall_s for c in calls]
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(c.rss_mb for c in calls),
        }
        return metrics, {"wall_s_each": walls, "cpu_s_each": [c.cpu_s for c in calls], "setup_s_each": setup}

    calls = run.untraced(seconds / 2)
    traced = run.call("traced", traced=True)
    if run.trace is None:
        run.record("traced", {"tracer_exit_code": False})
        return dict.fromkeys(PER_LAYER), {}
    metrics, closure = layer_metrics(run, traced, calls)
    # Self times partition cli.main: nesting errors in the spans show here.
    gap = abs(closure["sum_of_self_s"] - closure["cli.main_s"])
    run.record("traced", {"self_times_sum_to_main": gap <= 1e-6 * max(1.0, closure["cli.main_s"])})
    return metrics, {"closure": closure, "absent": run.trace["absent"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cyclorat" / "cli.py").is_file():
        print(f"error: {SRC / 'cyclorat' / 'cli.py'} not found; run from the repository root", file=sys.stderr)
        return 2

    env = environment()
    (BENCH / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BENCH / ".work"))
    try:
        run = Run(args.workload, args.seed, workdir)
        metrics, details = measure(run, args.seconds, bool(args.trace))
        stderr_tail = run.log.read_text(errors="replace")[-2000:]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            (BENCH / ".work").rmdir()

    attempted, failed = run.attempted, len(run.failures)
    units = PER_LAYER if args.trace else {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  input sha256 {run.sha256}")
    print(f"environment {json.dumps(env, sort_keys=True)}")
    for name, unit in units.items():
        value = metrics[name]
        print(f"  {name:36s} {'absent' if value is None else format(value, '.6g')} {unit}")
    print(f"  {'fail_frac':36s} {failed / max(attempted, 1):.6g} 1  ({failed} of {attempted} checks failed)")
    detail = dict(details, failures=run.failures[:20], environment=env, input_sha256=run.sha256)
    if failed:
        detail["stderr_tail"] = stderr_tail
    print(f"detail {json.dumps(detail, sort_keys=True)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
