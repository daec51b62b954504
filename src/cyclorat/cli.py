"""Command-line front end.

Subcommands wire the library into a pipeline over CSV datasets:

* ``simulate``   - run a preference model over a value design, write a dataset CSV
* ``check``      - test cyclic monotonicity, reporting witness cycles
* ``fit``        - build potentials and the conjugate cost description
* ``verify``     - fit plus Fenchel/optimality verification
* ``report-all`` - the full pipeline plus two-point and weak-stochastic-
  transitivity diagnostics

Exit codes: 0 success, 2 usage/IO/config failure or a solver that stopped
undecided, 3 analysis ran and the hypothesis was rejected (a violation was
found or verification exceeded its tolerance).  Menus in a multi-menu file are analyzed independently; report
sections are ordered by menu id.  ``CYCLORAT_LOG`` sets log verbosity.
On two CPUs, report-all's two-cycle rows are formatted in a forked child.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import logging
import os
import sys
import threading
import time
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path

# One OpenBLAS thread unless the caller set a count: a second thread's worker
# spins between calls and slows the small products a CLI run makes.  numpy
# reads the setting when it loads OpenBLAS, so it comes before that import.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import __version__
from .core import TOL_CM, TOL_OPT, TOL_SIMPLEX, Dataset
from .dataio import csv_field, parse_datasets_csv, write_dataset_csv
from .errors import CycloratError, DuplicateValuesWarning
from .monotonicity import (
    check_cyclic_monotonicity,
    check_two_point_monotonicity,
    check_weak_stochastic_transitivity,
    edge_weights,
)
from .report import SCHEMA_VERSION, dumps_report

# ``models`` and ``rationalization`` are imported by the subcommands that run them.
log = logging.getLogger("cyclorat")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_REJECTED = 3


@dataclass
class RunConfig:
    """Everything one invocation needs; tolerances must be finite and positive."""

    command: str
    input: str | None = None
    output: str | None = None
    model: str | None = None
    tol_cm: float = TOL_CM
    tol_opt: float = TOL_OPT
    epsilon: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("tol_cm", "tol_opt"):  # NaN fails every comparison
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and positive")
        if not 0 <= self.epsilon < np.inf:
            raise ValueError("epsilon must be finite and non-negative")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")


def _base_report(config: RunConfig) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "cyclorat", "version": __version__},
        "config": asdict(config),
    }


def _wst_section(datasets: dict[str, Dataset]) -> dict | None:
    # Weak stochastic transitivity needs plain binary choice frequencies:
    # use menus of exactly two alternatives carrying a single observation.
    binary: dict[tuple[str, str], float] = {}
    used = []
    for menu_id in sorted(datasets):
        d = datasets[menu_id]
        if d.menu.size != 2 or d.n != 1:
            continue
        x, y = d.menu.alternatives
        p = float(d.probs_matrix[0, 0])
        for key, val in (((x, y), p), ((y, x), 1.0 - p)):
            if key in binary and abs(binary[key] - val) > TOL_SIMPLEX:
                return {
                    "error": f"conflicting binary probabilities for pair {key!r}",
                    "menus_used": used,
                }
            binary[key] = val
        used.append(menu_id)
    if len({z for pair in binary for z in pair}) < 3:
        return None
    # Both orientations of a pair come from one p, and Menu rejects x == y.
    triples = check_weak_stochastic_transitivity(binary, TOL_SIMPLEX)
    return {"menus_used": used, "violations": [list(t) for t in triples]}


def _analyze_menu(d: Dataset, config: RunConfig) -> tuple[dict, bool, bool]:
    """Returns (section, cm_ok, verify_ok) for one menu at the command's depth."""
    depth = config.command
    section: dict = {"menu_id": d.menu.id, "n_observations": d.n, "n_alternatives": d.menu.size}
    t0 = time.perf_counter()
    verdict = check_cyclic_monotonicity(d, config.tol_cm)
    section["cyclic_monotonicity"] = dict(verdict.to_dict(), tolerance=config.tol_cm)
    cm_ok = verdict.is_pass
    verify_ok = True
    if depth != "check" and cm_ok:
        from . import rationalization as rat

        phi = verdict.potentials
        section["potentials"] = {"base_index": 1, "potentials": phi.tolist()}
        section["cost"] = rat.cost_description(phi, d)
        if depth in ("verify", "report-all"):
            rng = np.random.default_rng(config.seed)
            report = rat.verify_rationalization(d, phi, config.tol_cm + config.tol_opt, rng=rng)
            section["verification"] = report.to_dict()
            verify_ok = report.passed
            if config.epsilon > 0:
                solutions = rat.smoothed_choices(phi, d, config.epsilon, d.values_matrix, config.tol_opt)
                rows = []
                for i, (sol, p) in enumerate(zip(solutions, d.probs_matrix), start=1):
                    q = sol.probs
                    rows.append(
                        {
                            "observation": i,
                            "probs": q.tolist(),
                            "distance_to_observed": float(np.max(np.abs(q - p))),
                            "distance_bound": (2.0 * max(sol.gap, 0.0) / config.epsilon) ** 0.5,
                        }
                    )
                section["smoothed_solutions"] = {"epsilon": config.epsilon, "rows": rows}
    if depth == "report-all":
        violations = check_two_point_monotonicity(d, config.tol_cm)
        section["two_point_violations"] = [asdict(v) for v in violations]
    section["timing_ms"] = (time.perf_counter() - t0) * 1000.0
    return section, cm_ok, verify_ok


def _write_two_cycle_rows(fh, menu_id: str, d: Dataset) -> None:
    head, cells = csv_field(menu_id).replace("%", "%%"), [f"{k},%.17g\n" for k in range(1, d.n + 1)]
    W = edge_weights(d)  # freed on return, before the next menu's is built
    for i in range(d.n - 1):
        prefix = f"{head},two_cycle_sum,{i + 1}-"
        fh.write((prefix + prefix.join(cells[i + 1 :])) % tuple((W[i, i + 1 :] + W[i + 1 :, i]).tolist()))


def _write_series_csv(path: Path, datasets: dict[str, Dataset], sections: list[dict],
                      two_cycle_rows=_write_two_cycle_rows) -> None:
    """Write the tidy (menu_id, series, key, value) table for plotting.

    Per menu, in id order: two-cycle sums W_ij + W_ji keyed ``i-j`` over
    i < j in row-major order, then any potentials, Fenchel gaps and
    optimality gaps of its section, at 17 significant digits; ids quoted as
    csv does.  Each row of pairs (written by ``two_cycle_rows``), and each
    later series, is one % call on its values alone.
    """
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("menu_id,series,key,value\n")
        for menu_id, section in zip(sorted(datasets), sections):
            two_cycle_rows(fh, menu_id, datasets[menu_id])
            head = csv_field(menu_id).replace("%", "%%") + ","
            verification = section.get("verification", {})
            for series, values in (
                ("potential", section.get("potentials", {}).get("potentials", [])),
                ("fenchel_gap", verification.get("fenchel_gaps", [])),
                ("optimality_gap", verification.get("optimality_gaps", [])),
            ):
                if values:  # a menu that failed the check has none
                    prefix = f"{head}{series},"
                    cells = (f"{k},%.17g\n" for k in range(1, len(values) + 1))
                    fh.write((prefix + prefix.join(cells)) % tuple(values))


@contextlib.contextmanager
def _series_writer(config: RunConfig, datasets: dict[str, Dataset]):
    """Yield ``write(sections)``, which writes report-all's series CSV.

    Where fork is (``sched_getaffinity`` exists only there), on two usable
    CPUs and with no other thread, a forked child formats the two-cycle rows
    into an unlinked file beside the CSV while the caller analyzes the menus;
    ``write`` copies them in-kernel, or formats them itself if the child failed.
    """
    path = config.output and Path(config.output).with_suffix(".series.csv")
    pid, tmp = 0, None
    if (config.command == "report-all" and path and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) > 1 and threading.active_count() == 1):
        import mmap
        import signal
        import tempfile

        with contextlib.suppress(OSError):  # no room for the rows: write them inline
            tmp = tempfile.TemporaryFile("w+", encoding="utf-8", newline="\n", dir=path.parent)
            # Each menu's end offset in ``tmp``, in memory shared with the child.
            ends = np.frombuffer(mmap.mmap(-1, 8 * (len(datasets) + 1)), dtype=np.int64)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DeprecationWarning)  # Python 3.12+, on OS threads
                pid = os.fork()
            if not pid:  # the child: silent, and any warning or error exits 1
                code = 1
                try:
                    os.dup2(os.open(os.devnull, os.O_WRONLY), 2)
                    warnings.simplefilter("error")
                    for k, menu_id in enumerate(sorted(datasets), start=1):
                        _write_two_cycle_rows(tmp, menu_id, datasets[menu_id])
                        ends[k] = tmp.tell()  # a byte offset, as nothing is read
                    code = 0
                finally:
                    os._exit(code)

    def write(sections: list[dict]) -> None:
        nonlocal pid
        if pid:
            status, pid = os.waitpid(pid, 0)[1], 0
            if status == 0:  # the child exited 0: every menu's rows are in tmp
                spans = zip(ends[:-1].tolist(), ends[1:].tolist())

                def copy_rows(fh, menu_id: str, d: Dataset) -> None:
                    fh.flush()  # the copy lands at the file's offset
                    start, end = next(spans)
                    while start < end:
                        start += os.sendfile(fh.fileno(), tmp.fileno(), start, end - start)

                return _write_series_csv(path, datasets, sections, copy_rows)
        _write_series_csv(path, datasets, sections)

    try:
        yield write
    finally:
        if pid:  # left early
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        if tmp is not None:
            tmp.close()


def run(config: RunConfig) -> tuple[int, dict]:
    """Execute one command and write its ``--output`` files; returns (exit_code,
    report dict).  A report-all series CSV is written only beside its report."""
    report = _base_report(config)

    if config.command == "simulate":
        if not config.model or not config.output:
            raise CycloratError("simulate needs --model and --output")
        from .models import load_model_spec, simulate_dataset

        model, menu, value_rows = load_model_spec(config.model, config.seed)
        dataset = simulate_dataset(model, menu, value_rows)
        write_dataset_csv(config.output, dataset)
        report["simulate"] = {
            "menu_id": menu.id,
            "n_observations": dataset.n,
            "output": config.output,
        }
        return EXIT_OK, report

    if not config.input:
        raise CycloratError(f"{config.command} needs --input")
    datasets = parse_datasets_csv(config.input)

    with _series_writer(config, datasets) as write_series:
        sections = []
        all_cm = True
        all_verified = True
        for menu_id in sorted(datasets):
            section, cm_ok, verify_ok = _analyze_menu(datasets[menu_id], config)
            sections.append(section)
            all_cm &= cm_ok
            all_verified &= verify_ok
        report["menus"] = sections
        if config.command == "report-all":
            wst = _wst_section(datasets)
            if wst is not None:
                report["weak_stochastic_transitivity"] = wst
            if config.output:
                report["series_csv"] = str(Path(config.output).with_suffix(".series.csv"))
        if config.output:
            Path(config.output).write_text(dumps_report(report), encoding="utf-8", newline="\n")
            if "series_csv" in report:
                write_series(sections)

    if not all_cm:
        return EXIT_REJECTED, report
    if config.command in ("verify", "report-all") and not all_verified:
        return EXIT_REJECTED, report
    return EXIT_OK, report


#: Each flag's argparse settings.  A subcommand accepts only the flags it
#: reads; a field whose flag is omitted or absent keeps its ``RunConfig`` default.
_FLAGS = {
    "input": {"help": "dataset CSV path"},
    "output": {"help": "output path (report JSON, or dataset CSV for simulate)"},
    "model": {"help": "model spec JSON path"},
    "tol-cm": {"type": float, "help": "per-edge slack on cycle means"},
    "tol-opt": {"type": float, "help": "verification slack beyond --tol-cm"},
    "epsilon": {"type": float, "help": "entropic smoothing weight"},
    "seed": {"type": int, "help": "seed for sampled verification or the simulated design"},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclorat",
        description="Cyclic-monotonicity tests and convex-cost rationalization "
        "for stochastic choice datasets.",
    )
    parser.add_argument("--version", action="version", version=f"cyclorat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc, flags in (
        ("simulate", "simulate a dataset from a model spec", "model output seed"),
        ("check", "test cyclic monotonicity", "input output tol-cm"),
        ("fit", "fit potentials and the conjugate cost", "input output tol-cm"),
        ("verify", "fit plus Fenchel/optimality verification", "input output tol-cm tol-opt epsilon seed"),
        ("report-all", "full pipeline plus diagnostics", "input output tol-cm tol-opt epsilon seed"),
    ):
        p = sub.add_parser(name, help=doc, argument_default=argparse.SUPPRESS)
        for flag in flags.split():
            p.add_argument(f"--{flag}", **_FLAGS[flag])
    return parser


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("CYCLORAT_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    with warnings.catch_warnings():
        warnings.simplefilter("always", DuplicateValuesWarning)
        warnings.showwarning = _print_warning
        try:
            config = RunConfig(**vars(args))
            code, report = run(config)
            if config.command == "simulate" or not config.output:
                sys.stdout.write(dumps_report(report))
        except (CycloratError, OSError, ValueError, csv.Error) as exc:
            log.debug("%s failed", args.command, exc_info=exc)
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
    return code


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    # A data warning is one ``warning:`` line, without the library's source line.
    print(f"warning: {message}", file=sys.stderr)


if __name__ == "__main__":
    raise SystemExit(main())
