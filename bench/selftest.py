"""Self-test of the benchmark: tiny workloads, tampered outputs, tracing.

Run from the repository root (takes a few seconds):

    python3 bench/selftest.py

It runs every workload at a tiny size and requires every output check to
pass, then requires the checker to reject a flipped verdict, a corrupted
witness and a truncated series CSV, the tracer to report a missing layer as
absent, and ``run.py`` to fail without printing a result where there is no
``src/``.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import checks
import inputs
import run
import tracer

TINY = {
    "check_n1000": dict(n=40),
    "verify_n200": dict(n=30),
    "report_menus": dict(n=24, n_small=6, count=2),
}


def cli(w: inputs.WorkloadInput, workdir: Path) -> tuple[int, Path]:
    csv = workdir / "input.csv"
    inputs.write_csv(csv, w.menus)
    report = workdir / "report.json"
    argv = run.CLI + [w.command, "--input", str(csv), "--output", str(report)]
    child = run.spawn(argv, workdir / "stderr.log", 120)
    return child.exit_code, report


def failed(w, code, report) -> list[str]:
    return [name for name, ok in checks.check_invocation(w, code, report, 0).items() if not ok]


def edit_report(report: Path, change) -> None:
    data = json.loads(report.read_text())
    change({s["menu_id"]: s for s in data["menus"]})
    report.write_text(json.dumps(data))


def test_workloads_and_tampering(workdir: Path) -> None:
    outputs = {}
    for name, sizes in TINY.items():
        w = inputs.WORKLOADS[name](np.random.default_rng(7), **sizes)
        sub = workdir / name
        sub.mkdir()
        code, report = cli(w, sub)
        assert code == w.expected_exit, (name, code)
        assert failed(w, code, report) == [], (name, failed(w, code, report))
        outputs[name] = (w, code, report)

    w, code, report = outputs["check_n1000"]
    assert failed(w, 0, report) == checks.plan(w), "wrong exit code must fail every check"

    pristine = report.read_text()
    edit_report(report, lambda s: s["regret"]["cyclic_monotonicity"].update(status="pass"))
    assert failed(w, code, report) == ["regret.verdict"]

    report.write_text(pristine)
    regret = next(m for m in w.menus if m.menu_id == "regret")
    i, j = next(
        (i, j)
        for i in range(1, regret.n + 1)
        for j in range(i + 1, regret.n + 1)
        if checks.fsum_cycle(regret, [i, j]) >= 0
    )
    edit_report(report, lambda s: s["regret"]["cyclic_monotonicity"]["witness"].update(cycle=[i, j]))
    assert failed(w, code, report) == ["regret.witness"]

    w, code, report = outputs["report_menus"]
    series = report.with_suffix(".series.csv")
    lines = series.read_text().splitlines(keepends=True)
    series.write_text("".join(lines[:-50]))
    bad = failed(w, code, report)
    assert bad and all(name.endswith(".series") for name in bad), bad

    report.unlink()
    assert failed(w, code, report) == checks.plan(w), "a missing report must fail every check"


def test_tracer_absent_layer() -> None:
    sys.path.insert(0, str(run.SRC))
    import cyclorat.rationalization as rat

    original = rat.solve_equality_lp
    tracer.LAYERS["lp.removed"] = ("cyclorat.lp", "no_such_function")
    try:
        absent = tracer.install(tracer.Recorder())
    finally:
        del tracer.LAYERS["lp.removed"]
    assert absent == ["lp.removed"], absent
    # Wrapped where the caller looks it up, not only where it is defined.
    assert rat.solve_equality_lp is not original
    assert rat.solve_equality_lp.__wrapped__ is original


def test_no_source_tree(workdir: Path) -> None:
    bare = workdir / "bare"
    shutil.copytree(run.BENCH, bare / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify_n200", "--seed", "1", "--seconds", "1"],
        cwd=bare,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc.stdout


def main() -> int:
    (run.BENCH / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.BENCH / ".work"))
    try:
        test_workloads_and_tampering(workdir)
        print("ok  tiny workloads pass; tampered reports are rejected")
        test_tracer_absent_layer()
        print("ok  tracer wraps callers' names and reports a missing layer as absent")
        test_no_source_tree(workdir)
        print("ok  run.py fails without src/")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # a benchmark run may still use it
            (run.BENCH / ".work").rmdir()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
