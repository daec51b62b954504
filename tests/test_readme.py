"""The README's examples run as written."""

import builtins
import csv
import re
import shlex
from pathlib import Path

import cyclorat
from cyclorat import dataio
from cyclorat.cli import main
from cyclorat.models import PairwiseRegret, load_model_spec
from cyclorat.report import SCHEMA_VERSION

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, flags=re.M | re.S)


def test_schema_version_matches_report():
    assert re.findall(r"schema_version: (\d+)", README) == [str(SCHEMA_VERSION)]


def test_error_names_resolve():
    # Every error class the README names in code exists under that name.
    names = {
        name
        for span in re.findall(r"`([^`\n]+)`", README)
        for name in re.findall(r"\b(\w*Error)\b", span)
    }
    assert {"ValidationError", "ParseError", "Error"} <= names
    modules = (cyclorat, dataio, builtins, csv)
    assert sorted(n for n in names if not any(hasattr(m, n) for m in modules)) == []


def test_model_spec_example_loads(tmp_path):
    (block,) = _blocks("json")
    path = tmp_path / "model.json"
    path.write_text(block)
    model, menu, rows = load_model_spec(path)
    assert model == PairwiseRegret(theta=2.0)
    assert menu.alternatives == ("a", "b")
    assert rows == [[0.0, 0.0], [1.0, 0.0]]


def test_library_quick_start_runs():
    (block,) = _blocks("python")
    assert "assert report.passed" in block
    assert "phi = cy.compute_potentials(d)" in block
    exec(compile(block, "README.md", "exec"), {})


def test_example_session_exit_codes(tmp_path, monkeypatch):
    # The session writes model.json with a here-document, then runs
    # simulate -> check -> verify; each "# exit N" comment is the expected
    # exit code (0 where none is given).
    (session,) = [b for b in _blocks("sh") if "cat > model.json" in b]
    heredoc = re.search(r"<<'EOF'\n(.*?)^EOF$", session, flags=re.M | re.S)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "model.json").write_text(heredoc.group(1))
    commands = []
    for line in session[heredoc.end():].splitlines():
        if not line.startswith("cyclorat "):
            continue
        expected = re.search(r"#\s*exit\s+(\d+)", line)
        argv = shlex.split(line, comments=True)[1:]
        commands.append(argv[0])
        assert main(argv) == (int(expected.group(1)) if expected else 0), line
    assert commands == ["simulate", "check", "verify"]
    assert (tmp_path / "verify.json").exists()
