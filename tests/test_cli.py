"""End-to-end tests of the command-line front end."""

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from cyclorat import monotonicity
from cyclorat.cli import EXIT_OK, EXIT_REJECTED, EXIT_USAGE, RunConfig, main, run
from cyclorat.dataio import parse_dataset_csv, parse_datasets_csv, write_dataset_csv
from cyclorat.rationalization import RationalizationReport
from cyclorat.report import dumps_report, strip_timing

from conftest import realize_weights
from oracles import series_rows, write_series_csv

VIOLATION_CSV = """menu_id,obs_id,alternative,value,prob
m,1,x,1,0.3
m,1,y,0,0.7
m,2,x,0,0.6
m,2,y,1,0.4
"""

SOFTMAX_CSV = """menu_id,obs_id,alternative,value,prob
m,1,x,0,0.5
m,1,y,0,0.5
m,2,x,1,0.73106
m,2,y,0,0.26894
"""

BINARY_MENUS_CSV = """menu_id,obs_id,alternative,value,prob
xy,1,x,0,0.6
xy,1,y,0,0.4
yz,1,y,0,0.55
yz,1,z,0,0.45
xz,1,x,0,0.4
xz,1,z,0,0.6
"""


def softmax_rows(menu_id: str, rng: np.random.Generator, n: int, size: int) -> list[str]:
    # Seeded softmax choices on uniform(-3, 3) values: cyclically monotone.
    V = rng.uniform(-3.0, 3.0, (n, size))
    P = np.exp(V) / np.exp(V).sum(axis=1, keepdims=True)
    return [
        f"{menu_id},{i},a{a + 1},{v[a]!r},{p[a]!r}"
        for i, (v, p) in enumerate(zip(V.tolist(), P.tolist()), start=1)
        for a in range(size)
    ]


def mixed_menus_csv(rng: np.random.Generator) -> str:
    # A passing menu, a violation menu, the n=1 binary menus of the weak
    # stochastic transitivity section, and a menu id holding a '%'.
    rows = softmax_rows("pass", rng, 12, 3) + softmax_rows("50%_x", rng, 5, 2)
    rows += VIOLATION_CSV.replace("m,", "viol,").splitlines()[1:]
    rows += BINARY_MENUS_CSV.splitlines()[1:]
    return "\n".join(["menu_id,obs_id,alternative,value,prob"] + rows) + "\n"


@pytest.fixture
def violation_path(tmp_path):
    path = tmp_path / "violation.csv"
    path.write_text(VIOLATION_CSV)
    return path


@pytest.fixture
def softmax_path(tmp_path):
    path = tmp_path / "softmax.csv"
    path.write_text(SOFTMAX_CSV)
    return path


class TestCheck:
    def test_violation_exits_3_with_witness(self, violation_path, tmp_path):
        out = tmp_path / "report.json"
        code = main(["check", "--input", str(violation_path), "--output", str(out)])
        assert code == EXIT_REJECTED
        report = json.loads(out.read_text())
        cm = report["menus"][0]["cyclic_monotonicity"]
        assert cm["status"] == "violation"
        assert cm["witness"]["cycle"] == [1, 2]
        assert abs(cm["witness"]["cycle_sum"] - (-0.6)) <= 1e-12

    def test_pass_exits_0(self, softmax_path, tmp_path):
        out = tmp_path / "report.json"
        code = main(["check", "--input", str(softmax_path), "--output", str(out)])
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert report["menus"][0]["cyclic_monotonicity"]["status"] == "pass"
        assert report["schema_version"] == 2

    def test_cut_short_band_exits_2(self, tmp_path, monkeypatch, capsys):
        # One policy round leaves the three-cycle 1 -> 2 -> 3 -> 1 (mean
        # -0.65/3) undecided at tol 0.15: no pass on a loose bound, no guess.
        W = np.full((3, 3), 10.0)
        W[0, 1], W[1, 0], W[1, 2], W[2, 0] = -0.5, 0.3, 0.35, -0.5
        path = tmp_path / "three.csv"
        write_dataset_csv(path, realize_weights(W, np.random.default_rng(47)))
        monkeypatch.setattr(monotonicity, "MIN_MEAN_MAX_ITERATIONS", 1)
        code = main(["check", "--input", str(path), "--tol-cm", "0.15"])
        assert code == EXIT_USAGE
        lines = capsys.readouterr().err.splitlines()
        assert any(line.startswith("error: ") and "1-round cap" in line for line in lines)


class TestFitVerify:
    def test_fit_then_verify(self, softmax_path, tmp_path):
        out = tmp_path / "report.json"
        assert main(["fit", "--input", str(softmax_path), "--output", str(out)]) == EXIT_OK
        fit_report = json.loads(out.read_text())
        menu = fit_report["menus"][0]
        assert menu["potentials"]["potentials"] == [0, 0.61553]
        assert menu["cyclic_monotonicity"]["policy_iterations"] == 1
        assert menu["cost"]["kind"] == "max-affine conjugate"

        assert main(["verify", "--input", str(softmax_path), "--output", str(out)]) == EXIT_OK
        verify_report = json.loads(out.read_text())
        ver = verify_report["menus"][0]["verification"]
        assert ver["max_fenchel_gap"] <= 1e-9
        assert ver["passed"] is True

    @pytest.mark.parametrize("command", ["verify", "report-all"])
    def test_report_writes_probabilities_once(self, command, softmax_path, tmp_path):
        # The gradients are the probabilities; schema 2 writes them only as
        # the cost's vertices.
        out = tmp_path / "report.json"
        assert main([command, "--input", str(softmax_path), "--output", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["schema_version"] == 2
        assert "tol_simplex" not in report["config"]
        menu = report["menus"][0]
        assert set(menu["potentials"]) == {"base_index", "potentials"}
        assert menu["cost"]["vertices"] == parse_dataset_csv(softmax_path).probs_matrix.tolist()
        assert "gradients" not in out.read_text()

    def test_check_pass_is_not_a_verify_failure(self, tmp_path):
        # A two-cycle of mean -2e-7 passes the check at --tol-cm 1e-6 by
        # certificate; its Fenchel gaps, 2e-7, are above --tol-opt but within
        # the check's slack, which the verification gate adds.
        path = tmp_path / "tight.csv"
        path.write_text(
            "menu_id,obs_id,alternative,value,prob\n"
            "m,1,x,0,0.3\nm,1,y,1,0.4\nm,1,z,0,0.3\n"
            f"m,2,x,0,0.3\nm,2,y,0,{0.4 + 4e-7!r}\nm,2,z,0,{0.3 - 4e-7!r}\n"
        )
        out = tmp_path / "report.json"
        assert main(["verify", "--input", str(path), "--output", str(out), "--tol-cm", "1e-6"]) == EXIT_OK
        menu = json.loads(out.read_text())["menus"][0]
        assert menu["cyclic_monotonicity"]["decided_by"] == "certificate"
        verification = menu["verification"]
        assert verification["tolerance"] == 1e-6 + 1e-8
        assert 1e-8 < verification["max_fenchel_gap"] <= 1e-6
        assert verification["passed"] is True

    def test_fit_on_violation_exits_3(self, violation_path, tmp_path):
        out = tmp_path / "report.json"
        assert main(["fit", "--input", str(violation_path), "--output", str(out)]) == EXIT_REJECTED
        report = json.loads(out.read_text())
        assert "potentials" not in report["menus"][0]

    @pytest.mark.parametrize("command", ["verify", "report-all"])
    def test_failed_optimality_gap_exits_3(self, command, softmax_path, tmp_path, monkeypatch):
        # Fenchel gaps pass but a sampled competitor beats p^i: the exit code
        # must follow the report's overall verdict, not the Fenchel gap alone.
        def failing_verify(dataset, phi, tol, **kwargs):
            return RationalizationReport(
                fenchel_gaps=np.zeros(dataset.n),
                optimality_gaps=np.full(dataset.n, 10 * tol),
                tolerance=tol,
                n_vertex_points=dataset.n,
                n_mixture_points=0,
            )

        monkeypatch.setattr("cyclorat.rationalization.verify_rationalization", failing_verify)
        out = tmp_path / "report.json"
        assert main([command, "--input", str(softmax_path), "--output", str(out)]) == EXIT_REJECTED
        assert json.loads(out.read_text())["menus"][0]["verification"]["passed"] is False


class TestSimulate:
    def test_simulate_round_trip(self, tmp_path):
        spec = tmp_path / "model.json"
        spec.write_text(
            '{"family": "luce_exponential",'
            ' "menu": {"id": "sim", "alternatives": ["a", "b", "c"]},'
            ' "design": {"count": 8, "low": -2, "high": 2}}'
        )
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--model", str(spec), "--output", str(out), "--seed", "9"]) == EXIT_OK
        d = parse_dataset_csv(out)
        assert d.n == 8
        assert d.menu.size == 3
        # Deterministic under the same seed.
        out2 = tmp_path / "sim2.csv"
        assert main(["simulate", "--model", str(spec), "--output", str(out2), "--seed", "9"]) == EXIT_OK
        assert out.read_bytes() == out2.read_bytes()

    def test_values_check_rejects_exit_2(self, tmp_path, capsys):
        # Values whose cycle sums can overflow get check's own error line
        # before any probability is computed, and no file is written.
        spec, data, out = tmp_path / "model.json", tmp_path / "data.csv", tmp_path / "sim.csv"
        menu = {"id": "sim", "alternatives": ["a", "b"]}
        spec.write_text(json.dumps({"family": "luce_exponential", "menu": menu, "values": [[1e308, -1e308]]}))
        data.write_text("menu_id,obs_id,alternative,value,prob\nsim,1,a,1e308,0.5\nsim,1,b,-1e308,0.5\n")
        assert main(["simulate", "--model", str(spec), "--output", str(out)]) == EXIT_USAGE
        simulated = capsys.readouterr()
        assert main(["check", "--input", str(data)]) == EXIT_USAGE
        assert simulated == capsys.readouterr()
        assert simulated.err.startswith("error: menu 'sim' has values up to 1e+308 in magnitude, above ")
        assert not out.exists()

    def test_simulate_needs_model(self, tmp_path):
        assert main(["simulate", "--output", str(tmp_path / "x.csv")]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "fields, error",
        [
            ({"params": {"theta": "a"}}, "pairwise_regret parameter 'theta'"),
            ({"params": [1]}, "pairwise_regret 'params' must be an object"),
            ({"values": 5}, "model spec 'values' must be a list of rows"),
            ({"family": "custom_table", "params": {"rows": [1]}}, "custom_table row 1 needs"),
            ({"values": [[None, 1]]}, "model spec 'values' entry must be a number"),
            ({"values": None, "design": {"count": None}}, "model spec design 'count'"),
            ({"menu": {"id": "sim", "alternatives": 5}}, "model spec menu 'alternatives'"),
            ({"family": ["x"]}, "model spec 'family'"),
            ({"values": None, "design": {"count": 2.7}}, "model spec design 'count'"),
            ({"values": None, "design": {"count": True}}, "model spec design 'count'"),
            ({"values": None, "design": {"count": -1}}, "model spec design 'count'"),
            ({"menu": {"id": ["x"], "alternatives": ["a", "b"]}}, "model spec menu 'id'"),
            ({"menu": {"id": 5, "alternatives": ["a", "b"]}}, "model spec menu 'id'"),
            ({"params": {"theta": True}}, "pairwise_regret parameter 'theta'"),
            ({"values": [[True, 0]]}, "model spec 'values' entry must be a number"),
        ],
        ids=[
            "theta", "params", "values", "rows", "values-entry", "count", "alternatives", "family",
            "count-float", "count-bool", "count-negative", "id-list", "id-number", "theta-bool",
            "values-entry-bool",
        ],
    )
    def test_malformed_spec_exits_2(self, fields, error, tmp_path, capsys):
        # A malformed or mistyped field is an error line and exit 2, not a
        # traceback.  A field set to None here is left out of the spec.
        spec = tmp_path / "model.json"
        menu = {"id": "sim", "alternatives": ["a", "b"]}
        fields = {"family": "pairwise_regret", "menu": menu, "values": [[0, 1]], **fields}
        spec.write_text(json.dumps({k: v for k, v in fields.items() if v is not None}))
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--model", str(spec), "--output", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"error: {error}")
        assert not out.exists()


class TestReportAll:
    def test_multi_menu_sections_sorted_and_wst(self, tmp_path):
        path = tmp_path / "menus.csv"
        path.write_text(BINARY_MENUS_CSV)
        out = tmp_path / "report.json"
        code = main(["report-all", "--input", str(path), "--output", str(out)])
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert [m["menu_id"] for m in report["menus"]] == ["xy", "xz", "yz"]
        wst = report["weak_stochastic_transitivity"]
        assert ["x", "y", "z"] in wst["violations"]

    def test_series_csv_emitted(self, softmax_path, tmp_path):
        out = tmp_path / "report.json"
        assert main(["report-all", "--input", str(softmax_path), "--output", str(out)]) == EXIT_OK
        series = tmp_path / "report.series.csv"
        assert series.exists()
        lines = series.read_text().splitlines()
        assert lines[0] == "menu_id,series,key,value"
        kinds = {line.split(",")[1] for line in lines[1:]}
        assert {"two_cycle_sum", "potential", "fenchel_gap", "optimality_gap"} <= kinds
        # The lone two-cycle sum is the fixture's 0.23106.
        row = next(line for line in lines[1:] if ",two_cycle_sum," in line)
        assert abs(float(row.split(",")[3]) - 0.23106) < 1e-12

    def test_epsilon_adds_smoothed_section(self, softmax_path, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            ["report-all", "--input", str(softmax_path), "--output", str(out), "--epsilon", "0.01"]
        )
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        smoothed = report["menus"][0]["smoothed_solutions"]
        assert smoothed["epsilon"] == 0.01
        assert len(smoothed["rows"]) == 2
        for row in smoothed["rows"]:
            assert 0.0 <= row["distance_bound"] <= 1e-3


SERIES_FIXTURES = {
    # One observation: no pairs, so no two_cycle_sum rows.
    "n1": ("\n".join(SOFTMAX_CSV.splitlines()[:3]) + "\n", EXIT_OK, 3),
    "n2": (SOFTMAX_CSV, EXIT_OK, 7),
    # A failing menu has its pair's sum and no potentials or gaps.
    "failing": (VIOLATION_CSV, EXIT_REJECTED, 1),
    "quoted_id": (SOFTMAX_CSV.replace("\nm,", '\n"a,""b""%c",'), EXIT_OK, 7),
    "mixed": (mixed_menus_csv(np.random.default_rng(70)), EXIT_REJECTED, None),
}


class TestSeriesCsv:
    @pytest.mark.parametrize("name", list(SERIES_FIXTURES))
    def test_matches_row_oracle(self, name, tmp_path):
        text, exit_code, n_rows = SERIES_FIXTURES[name]
        data, out = tmp_path / "menus.csv", tmp_path / "report.json"
        data.write_text(text)
        code, report = run(RunConfig(command="report-all", input=str(data), output=str(out)))
        assert code == exit_code
        oracle = tmp_path / "oracle.csv"
        write_series_csv(oracle, series_rows(parse_datasets_csv(data), report))
        written = (tmp_path / "report.series.csv").read_bytes()
        assert written == oracle.read_bytes()
        if n_rows is not None:
            assert written.count(b"\n") == 1 + n_rows

    def test_runs_are_byte_identical(self, tmp_path):
        data, out = tmp_path / "menus.csv", tmp_path / "report.json"
        data.write_text(mixed_menus_csv(np.random.default_rng(71)))
        outputs = []
        for _ in range(2):
            assert main(["report-all", "--input", str(data), "--output", str(out)]) == EXIT_REJECTED
            report = dumps_report(strip_timing(json.loads(out.read_text())))
            outputs.append((report, (tmp_path / "report.series.csv").read_bytes()))
        assert outputs[0] == outputs[1]

    def test_quoted_menu_id(self, tmp_path):
        # A menu id holding the delimiter is quoted, so every row keeps
        # four fields.
        data, out = tmp_path / "menus.csv", tmp_path / "report.json"
        data.write_text(SOFTMAX_CSV.replace("\nm,", '\n"m,1",'))
        assert main(["report-all", "--input", str(data), "--output", str(out)]) == EXIT_OK
        with (tmp_path / "report.series.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 8  # header, one sum, two potentials, four gaps
        assert all(len(row) == 4 for row in rows)
        assert {row[0] for row in rows[1:]} == {"m,1"}


class TestErrorsAndDeterminism:
    def test_missing_input_is_usage_error(self):
        assert main(["check"]) == EXIT_USAGE

    def test_nonexistent_file_is_usage_error(self, tmp_path):
        assert main(["check", "--input", str(tmp_path / "nope.csv")]) == EXIT_USAGE

    def test_malformed_data_never_raises(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("menu_id,obs_id,alternative,value,prob\nm,1,x,zero,0.5\n")
        assert main(["check", "--input", str(path)]) == EXIT_USAGE

    @pytest.mark.parametrize("command", ["check", "fit", "verify", "report-all"])
    def test_unreadable_record_exits_2(self, command, tmp_path, capsys):
        # A field over the csv module's size limit is an error line and exit
        # 2, and no report is written.
        path = tmp_path / "big.csv"
        oversized = "m,1,x,0," + "9" * (csv.field_size_limit() + 1) + "\n"
        path.write_text("menu_id,obs_id,alternative,value,prob\n" + oversized)
        out = tmp_path / "report.json"
        assert main([command, "--input", str(path), "--output", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: field larger than field limit")
        assert not out.exists() and not out.with_suffix(".series.csv").exists()

    @pytest.mark.parametrize("command", ["check", "fit", "verify", "report-all"])
    def test_header_only_file_exits_2(self, command, tmp_path, capsys):
        # A file with no record has nothing checked: an error line and exit
        # 2, not a pass over no menus, and no report is written.
        path = tmp_path / "hdr.csv"
        path.write_text("menu_id,obs_id,alternative,value,prob\n\n")
        out = tmp_path / "report.json"
        assert main([command, "--input", str(path), "--output", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {path} holds no records\n"
        assert not out.exists() and not out.with_suffix(".series.csv").exists()

    def test_error_is_printed_once(self, tmp_path):
        # The error line is the whole of stderr: no log record repeats it.
        path = tmp_path / "hdr.csv"
        path.write_text("menu_id,obs_id,alternative,value,prob\n")
        env = {k: v for k, v in os.environ.items() if k != "CYCLORAT_LOG"}
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        proc = subprocess.run(
            [sys.executable, "-m", "cyclorat.cli", "check", "--input", str(path)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr == f"error: {path} holds no records\n"

    def test_duplicate_values_print_one_warning_line_each(self, tmp_path):
        # Observations 2 and 3 repeat observation 1's values with other
        # probabilities: two plain warning lines, and the check still passes.
        path = tmp_path / "dup.csv"
        path.write_text(
            "menu_id,obs_id,alternative,value,prob\n"
            + "".join(f"m,{k},x,1,{p}\nm,{k},y,0,{1 - p}\n" for k, p in ((1, 0.5), (2, 0.25), (3, 0.75)))
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run(
            [sys.executable, "-m", "cyclorat.cli", "check", "--input", str(path)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == EXIT_OK
        assert proc.stderr == "".join(
            f"warning: observations 1 and {k} share a value vector but differ in probabilities\n"
            for k in (2, 3)
        )

    @pytest.mark.parametrize("target", ["nodir/x.json", "adir"])
    @pytest.mark.parametrize("command", ["check", "fit", "verify", "report-all"])
    def test_unwritable_output_exits_2(self, command, target, softmax_path, tmp_path, capsys):
        # A report that cannot be written (a missing directory, or a path
        # that is a directory) is an IO failure: an error line and exit 2.
        (tmp_path / "adir").mkdir()
        out = tmp_path / target
        assert main([command, "--input", str(softmax_path), "--output", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.is_file() and not out.with_suffix(".series.csv").exists()

    @pytest.mark.parametrize(
        "big, probs", [("8e307", (1, 0, 0, 1)), ("1e308", (0.3, 0.7, 0.6, 0.4))]
    )
    @pytest.mark.parametrize("command", ["check", "report-all"])
    def test_values_whose_cycle_sums_overflow_exit_2(self, command, big, probs, tmp_path, capsys):
        # Finite values whose differences overflow a cycle sum are rejected
        # when the file is read: an error line naming the bound, exit 2.
        path = tmp_path / "huge.csv"
        path.write_text(
            "menu_id,obs_id,alternative,value,prob\n"
            "m,1,x,{0},{1}\nm,1,y,-{0},{2}\nm,2,x,-{0},{3}\nm,2,y,{0},{4}\n".format(big, *probs)
        )
        out = tmp_path / "report.json"
        assert main([command, "--input", str(path), "--output", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith(
            f"error: menu 'm' has values up to {float(big):.6g} in magnitude, "
            "above float max / (32 n) = "
        )
        assert not out.exists() and not out.with_suffix(".series.csv").exists()

    @pytest.mark.parametrize(
        "command, text, error",
        [
            ("check", "m,1,x,0,0.5\nm,1,y,1,0.4\n",
             "1 invalid record(s): record 1: entries sum to 0.9, expected 1 within 1e-09"),
            ("check", "m,1,x,0,-0.5\nm,1,y,1,1.5\n",
             "1 invalid record(s): record 1: entry -0.5 at position 0 is below -1e-09"),
            ("simulate", {"menu": {"id": "sim", "alternatives": ["a", "b", "c"]}},
             "1 invalid record(s): record 1: 2 values against a menu of size 3"),
            ("check", "m,1,x,nan,0.5\nm,1,y,1,0.5\n",
             "1 invalid record(s): record 1: value vector contains non-finite entries"),
            ("check", "m,1,x,1e308,0.5\nm,1,y,0,0.5\n",
             "menu 'm' has values up to 1e+308 in magnitude, above float max / (32 n) = "
             "5.61779e+306, where cycle sums can overflow"),
            ("check", None, "missing column(s): prob"),
            ("check", "", "{path} holds no records"),
            ("simulate", {"params": {"rows": [{"values": [0, 1], "strengths": [0, 0]}]}},
             "table row has identically zero strengths"),
            ("simulate", {"params": {"rows": [{"values": [0, 1], "strengths": [1, 2]}]},
                          "values": [[1, 0]]},
             "value vector [1.0, 0.0] is not listed in the table"),
            ("simulate", {"family": "luce_exponential", "params": {}, "values": []},
             "simulation design is empty"),
        ],
        ids=[
            "bad-sum", "negative-entry", "short-row", "nan-value", "overflowing-value",
            "missing-column", "header-only", "zero-strengths", "unlisted-values", "empty-design",
        ],
    )
    def test_faulty_input_error_line(self, command, text, error, tmp_path, capsys):
        # Each faulty input is exactly one error line on stderr and exit 2.
        # A CSV's records follow the standard header (None drops its prob
        # column); a model spec's fields override a custom table over (a, b)
        # run at (0, 1).
        if command == "check":
            path = tmp_path / "data.csv"
            header = "menu_id,obs_id,alternative,value" + (",prob" if text is not None else "")
            path.write_text(header + "\n" + ("m,1,x,0\nm,1,y,1\n" if text is None else text))
            argv = ["check", "--input", str(path)]
        else:
            path = tmp_path / "model.json"
            spec = {
                "family": "custom_table",
                "params": {"rows": [{"values": [0, 1], "strengths": [1, 2]}]},
                "menu": {"id": "sim", "alternatives": ["a", "b"]},
                "values": [[0, 1]],
                **text,
            }
            path.write_text(json.dumps(spec))
            argv = ["simulate", "--model", str(path), "--output", str(tmp_path / "sim.csv")]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr() == ("", f"error: {error.format(path=path)}\n")
        assert not (tmp_path / "sim.csv").exists()

    def test_bad_tolerance_rejected(self, softmax_path):
        assert main(["check", "--input", str(softmax_path), "--tol-cm", "-1"]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "command, data, flag, value",
        [
            ("check", "violation", "--tol-cm", "nan"),
            ("check", "violation", "--tol-cm", "inf"),
            ("verify", "softmax", "--tol-opt", "nan"),
            ("verify", "softmax", "--tol-opt", "inf"),
            ("verify", "softmax", "--epsilon", "nan"),
            ("verify", "softmax", "--epsilon", "inf"),
        ],
    )
    def test_non_finite_flag_exits_2(self, command, data, flag, value, request, tmp_path, capsys):
        # Each would pass a gate it should not: a NaN tolerance passes a
        # violation in the band, an infinite one by certificate, or any gap,
        # and a NaN epsilon drops the smoothed solutions.
        path = request.getfixturevalue(f"{data}_path")
        out = tmp_path / "report.json"
        assert main([command, "--input", str(path), "--output", str(out), flag, value]) == EXIT_USAGE
        name = flag[2:].replace("-", "_")
        assert capsys.readouterr().err.startswith(f"error: {name} must be finite and ")
        assert not out.exists()

    def test_repeated_column_exits_2(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        rows = SOFTMAX_CSV.splitlines()
        path.write_text("\n".join([rows[0] + ",prob"] + [row + ",0.5" for row in rows[1:]]) + "\n")
        assert main(["check", "--input", str(path)]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: line 1: repeated column(s): prob\n"

    def test_unknown_subcommand_usage(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_reports_are_byte_identical_excluding_timing(self, softmax_path):
        config = RunConfig(command="verify", input=str(softmax_path), seed=3)
        code_a, rep_a = run(config)
        code_b, rep_b = run(RunConfig(command="verify", input=str(softmax_path), seed=3))
        assert code_a == code_b == EXIT_OK
        text_a = dumps_report(strip_timing(rep_a))
        text_b = dumps_report(strip_timing(rep_b))
        assert text_a.encode() == text_b.encode()
        assert "warm_solves" in json.loads(text_a)["menus"][0]["verification"]["lp"]

    def test_report_floats_use_17_significant_digits(self, violation_path, tmp_path):
        out = tmp_path / "report.json"
        main(["check", "--input", str(violation_path), "--output", str(out)])
        assert "-0.59999999999999987" in out.read_text()


def test_wst_section_reports_conflicting_pairs(tmp_path):
    # The same binary pair appears in two menus with incompatible
    # probabilities; the section carries an error note instead of failing.
    path = tmp_path / "menus.csv"
    path.write_text(
        "menu_id,obs_id,alternative,value,prob\n"
        "m1,1,x,0,0.6\n"
        "m1,1,y,0,0.4\n"
        "m2,1,x,0,0.3\n"
        "m2,1,y,0,0.7\n"
        "m3,1,y,0,0.5\n"
        "m3,1,z,0,0.5\n"
        "m4,1,x,0,0.5\n"
        "m4,1,z,0,0.5\n"
    )
    code, report = run(RunConfig(command="report-all", input=str(path)))
    wst = report["weak_stochastic_transitivity"]
    assert "error" in wst


def test_version_and_help_exit_zero(capsys):
    assert main(["--version"]) == 0
    assert "cyclorat" in capsys.readouterr().out


def test_cli_import_leaves_scipy_out():
    # numpy is the only dependency.
    code = "import sys, cyclorat.cli; print(any(m.startswith('scipy') for m in sys.modules))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.stdout.strip() == "False"


def test_verify_runs_with_scipy_blocked(tmp_path):
    # numpy is the only dependency: verify runs with every scipy import
    # failing, at n > 12 and |A| <= 8, where a scipy Qhull route once ran.
    rng = np.random.default_rng(64)
    V = rng.uniform(-3.0, 3.0, (16, 3))
    P = np.exp(V) / np.exp(V).sum(axis=1, keepdims=True)
    rows = ["menu_id,obs_id,alternative,value,prob"]
    for i, (v, p) in enumerate(zip(V.tolist(), P.tolist()), start=1):
        rows += [f"m,{i},a{a + 1},{v[a]!r},{p[a]!r}" for a in range(3)]
    data, out = tmp_path / "data.csv", tmp_path / "report.json"
    data.write_text("\n".join(rows) + "\n")
    code = (
        "import sys; sys.modules['scipy'] = None; from cyclorat.cli import main; "
        f"sys.exit(main(['verify', '--input', {str(data)!r}, '--output', {str(out)!r}]))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert json.loads(out.read_text())["menus"][0]["verification"]["passed"] is True


def test_report_all_is_identical_across_blas_threads(tmp_path):
    # BLAS may split a matrix product across threads; the reports and the
    # series CSV must not depend on how it does.
    data, out = tmp_path / "data.csv", tmp_path / "report.json"
    rows = softmax_rows("m", np.random.default_rng(72), 200, 10)
    data.write_text("\n".join(["menu_id,obs_id,alternative,value,prob"] + rows) + "\n")
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    base["PYTHONPATH"] = os.pathsep.join(sys.path)
    outputs = []
    for env in (base, dict(base, OPENBLAS_NUM_THREADS="2")):  # the CLI's default is one thread
        cmd = [sys.executable, "-m", "cyclorat.cli", "report-all", "--input", str(data)]
        proc = subprocess.run(cmd + ["--output", str(out)], capture_output=True, env=env)
        assert proc.returncode == EXIT_OK, proc.stderr
        report = dumps_report(strip_timing(json.loads(out.read_text())))
        outputs.append((report, (tmp_path / "report.series.csv").read_bytes()))
    assert outputs[0] == outputs[1]
    lp = json.loads(outputs[0][0])["menus"][0]["verification"]["lp"]
    assert lp["cold_solves"] == 1 and lp["warm_solves"] > 0  # counters compared too
