"""Run one cyclorat CLI call in this process with a span around each layer.

Usage, from the repository root:

    PYTHONPATH=src python3 bench/tracer.py SPANS.json -- check --input data.csv

Each function in ``LAYERS`` is wrapped under every name a ``cyclorat``
module binds it to, because callers look names up in their own module (the
rationalization module imports ``edge_weights`` and ``solve_equality_lp`` by
name).  A function a later commit removed or moved is listed as absent.
Spans stay in memory as ``[name, parent index, start, end]`` and are written
out once the call has returned, together with the exit code.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

#: span name -> (module, function) of each traced layer.
LAYERS = {
    "dataio.parse": ("cyclorat.dataio", "parse_datasets_csv"),
    "core.validate": ("cyclorat.core", "validate_dataset"),
    "monotonicity.check": ("cyclorat.monotonicity", "check_cyclic_monotonicity"),
    "monotonicity.edge_weights": ("cyclorat.monotonicity", "edge_weights"),
    "monotonicity.cycle_sum": ("cyclorat.monotonicity", "cycle_sum"),
    "monotonicity.two_point": ("cyclorat.monotonicity", "check_two_point_monotonicity"),
    "rationalization.potentials": ("cyclorat.rationalization", "compute_potentials"),
    "rationalization.verify": ("cyclorat.rationalization", "verify_rationalization"),
    "rationalization.cost_description": ("cyclorat.rationalization", "cost_description"),
    "lp.simplex": ("cyclorat.lp", "solve_equality_lp"),
    "lp.enumerate": ("cyclorat.lp", "enumerate_basic_values"),
    "lp.batch_support": ("cyclorat.lp", "batch_support_values"),
    "report.dumps": ("cyclorat.report", "dumps_report"),
    "cli.main": ("cyclorat.cli", "main"),
}


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            k = len(spans)
            spans.append([name, stack[-1] if stack else -1, 0.0, 0.0])
            stack.append(k)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[k][2:] = start, clock()
                stack.pop()

        return traced

    def timed_import(self, name, module):
        start = time.perf_counter()
        importlib.import_module(module)
        self.spans.append([name, -1, start, time.perf_counter()])


def install(recorder: Recorder) -> list[str]:
    """Wrap every layer function wherever it is bound; returns absent layers."""
    absent = []
    for name, (module, attr) in LAYERS.items():
        try:
            fn = getattr(importlib.import_module(module), attr)
        except (ImportError, AttributeError):
            absent.append(name)
            continue
        traced = recorder.wrap(name, fn)
        for modname, mod in list(sys.modules.items()):
            if modname == "cyclorat" or modname.startswith("cyclorat."):
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, traced)
    return absent


def main(argv: list[str]) -> int:
    out, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS.json -- CLI_ARGS...")
    recorder = Recorder()
    recorder.timed_import("import.numpy", "numpy")
    recorder.timed_import("import.cyclorat", "cyclorat.cli")
    absent = install(recorder)
    code = sys.modules["cyclorat.cli"].main(cli_args)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"exit_code": code, "absent": absent, "spans": recorder.spans}, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
