"""Tests for CSV ingestion/emission, and for ``models.load_model_spec``."""

import csv
import json
import os
import random
import threading
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cyclorat import (
    Dataset,
    LuceExponential,
    Menu,
    RecordValidationError,
    ValidationError,
)
from cyclorat import dataio
from cyclorat.dataio import (
    ParseError,
    parse_datasets_csv,
    write_dataset_csv,
)
from cyclorat.models import load_model_spec

from conftest import luce_dataset
from oracles import parse_datasets_csv_per_row

SOFTMAX_CSV = """menu_id,obs_id,alternative,value,prob
m,1,x,0,0.5
m,1,y,0,0.5
m,2,x,1,0.73106
m,2,y,0,0.26894
"""


def test_parse_softmax_fixture(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(SOFTMAX_CSV)
    (d,) = parse_datasets_csv(path).values()
    assert d.n == 2
    assert d.menu.alternatives == ("x", "y")
    expected = Dataset(
        Menu("m", ("x", "y")),
        [[0.0, 0.0], [1.0, 0.0]],
        [[0.5, 0.5], [0.73106, 0.26894]],
    )
    assert d == expected


def test_missing_column(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("menu_id,obs_id,alternative,value\nm,1,x,0\n")
    with pytest.raises(ValidationError, match=r"^missing column\(s\): prob$"):
        parse_datasets_csv(path)


def test_unexpected_column(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("menu_id,obs_id,alternative,value,prob,extra\nm,1,x,0,0.5,9\n")
    with pytest.raises(ParseError):
        parse_datasets_csv(path)


def test_repeated_column(tmp_path):
    # Column lookup takes the first 'prob'; a second one would go unread.
    path = tmp_path / "d.csv"
    path.write_text("menu_id,obs_id,alternative,value,prob,prob\nm,1,x,0,1,0.5\nm,1,y,0,0,0.5\n")
    with pytest.raises(ParseError, match=r"^line 1: repeated column\(s\): prob$") as err:
        parse_datasets_csv(path)
    assert err.value.line == 1
    with pytest.raises(ParseError, match="repeated column"):
        parse_datasets_csv_per_row(path)


def test_negative_prob_reported_with_record(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(
        "menu_id,obs_id,alternative,value,prob\n"
        "m,1,x,0,1.2\n"
        "m,1,y,0,-0.2\n"
    )
    with pytest.raises(ValidationError):
        parse_datasets_csv(path)


def test_bad_float_carries_line_number(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(
        "menu_id,obs_id,alternative,value,prob\n"
        "m,1,x,0,0.5\n"
        "m,1,y,zero,0.5\n"
    )
    with pytest.raises(ParseError) as err:
        parse_datasets_csv(path)
    assert err.value.line == 3


def test_multi_menu_split(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(
        "menu_id,obs_id,alternative,value,prob\n"
        "A,1,x,0,0.5\n"
        "A,1,y,0,0.5\n"
        "B,1,u,1,0.3\n"
        "B,1,w,0,0.7\n"
    )
    menus = parse_datasets_csv(path)
    assert sorted(menus) == ["A", "B"]
    assert menus["B"].menu.alternatives == ("u", "w")


def test_incomplete_observation(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(
        "menu_id,obs_id,alternative,value,prob\n"
        "m,1,x,0,0.5\n"
        "m,1,y,0,0.5\n"
        "m,2,x,1,1.0\n"
    )
    with pytest.raises(ValidationError):
        parse_datasets_csv(path)


def test_duplicate_alternative_row(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(
        "menu_id,obs_id,alternative,value,prob\n"
        "m,1,x,0,0.5\n"
        "m,1,x,0,0.5\n"
    )
    with pytest.raises(ParseError):
        parse_datasets_csv(path)


def test_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(50)
    d = luce_dataset(rng, 9, 4)
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    write_dataset_csv(first, d)
    (parsed,) = parse_datasets_csv(first).values()
    assert parsed.menu.id == d.menu.id
    assert np.array_equal(parsed.values_matrix, d.values_matrix)
    assert np.array_equal(parsed.probs_matrix, d.probs_matrix)
    write_dataset_csv(second, parsed)
    assert first.read_bytes() == second.read_bytes()


def test_quoted_fields_round_trip(tmp_path):
    # Ids and labels holding the delimiter or a quote are written quoted,
    # so parse -> write -> parse is the identity; plain fields stay bare.
    path = tmp_path / "a.csv"
    path.write_text(
        "menu_id,obs_id,alternative,value,prob\n"
        '"m,1",1,"x,y",0,0.5\n"m,1",1,"say ""z""",0,0.5\n'
        "plain,1,x,1,0.25\nplain,1,y,0,0.75\n"
    )
    parsed = parse_datasets_csv(path)
    assert parsed["m,1"].menu.alternatives == ("x,y", 'say "z"')
    again = tmp_path / "b.csv"
    write_dataset_csv(again, list(parsed.values()))
    assert again.read_text().splitlines()[1:4] == [
        '"m,1",1,"x,y",0,0.5',
        '"m,1",1,"say ""z""",0,0.5',
        "plain,1,x,1,0.25",
    ]
    reparsed = parse_datasets_csv(again)
    assert list(reparsed) == ["m,1", "plain"]
    for menu_id, d in parsed.items():
        assert reparsed[menu_id].menu == d.menu
        assert np.array_equal(reparsed[menu_id].values_matrix, d.values_matrix)
        assert np.array_equal(reparsed[menu_id].probs_matrix, d.probs_matrix)


def test_load_model_spec_explicit_values(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(
        '{"family": "luce_exponential", "menu": {"id": "m", "alternatives": ["a", "b"]},'
        ' "values": [[0, 0], [1, 0]]}'
    )
    model, menu, design = load_model_spec(path)
    assert isinstance(model, LuceExponential)
    assert menu.size == 2
    assert design == [[0.0, 0.0], [1.0, 0.0]]


def test_load_model_spec_random_design(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(
        '{"family": "pairwise_regret", "params": {"theta": 2.0},'
        ' "menu": {"id": "m", "alternatives": ["a", "b", "c"]},'
        ' "design": {"count": 5, "low": -1, "high": 1}}'
    )
    model, menu, rows = load_model_spec(path, seed=7)
    assert model.theta == 2.0
    assert rows == np.random.default_rng(7).uniform(-1.0, 1.0, size=(5, 3)).tolist()


MENU_AB = {"id": "m", "alternatives": ["a", "b"]}
REGRET = {"family": "pairwise_regret", "menu": MENU_AB, "values": [[0, 0]]}


@pytest.mark.parametrize(
    "spec, field",
    [
        ({"family": "luce_exponential", "menu": MENU_AB}, "design"),
        ({**REGRET, "menu": {"alternatives": ["a", "b"]}}, "id"),
        ({"family": "luce_exponential", "menu": MENU_AB, "design": {"low": 0}}, "count"),
        ({**REGRET, "params": {"foo": 1}}, "foo"),
        ({**REGRET, "family": "custom_table", "params": {"rows": [{"values": [0, 0]}]}}, "strengths"),
        ({**REGRET, "params": {"theta": "a"}}, "theta"),
        ({**REGRET, "params": [1]}, "'params'"),
        ({**REGRET, "family": "custom_table", "params": {"rows": [1]}}, "row 1"),
        ({**REGRET, "family": "custom_table", "params": {"rows": 1}}, "'rows'"),
        ({**REGRET, "family": "custom_table", "params": {"rows": [{"values": 5, "probs": [1]}]}}, "'values'"),
        ({**REGRET, "values": 5}, "'values'"),
        ({**REGRET, "values": [5]}, "'values'"),
        ({**REGRET, "values": [[None, 1]]}, "'values'"),
        ({"family": "luce_exponential", "menu": MENU_AB, "design": {"count": None}}, "'count'"),
        ({**REGRET, "menu": {"id": "m", "alternatives": 5}}, "'alternatives'"),
        ({**REGRET, "family": ["x"]}, "'family'"),
    ],
    ids=[
        "design", "menu-id", "design-count", "unknown-param", "table-strengths", "theta",
        "params-list", "table-row-number", "table-rows-number", "table-values-number",
        "values-number", "values-row-number", "values-entry-null", "design-count-null",
        "menu-alternatives-number", "family-list",
    ],
)
def test_load_model_spec_requires_design(tmp_path, spec, field):
    # A missing or malformed field is a validation error that names it.
    path = tmp_path / "model.json"
    path.write_text(json.dumps(spec))
    with pytest.raises(ValidationError, match=field):
        load_model_spec(path)


def test_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(
        "menu_id,obs_id,alternative,value,prob\n"
        "m,1,x,0,0.5\n"
        "\n"
        "m,1,y,0,0.5\n"
    )
    assert parse_datasets_csv(path)["m"].n == 1


def test_empty_file(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("")
    with pytest.raises(ParseError):
        parse_datasets_csv(path)


HEADER = "menu_id,obs_id,alternative,value,prob\n"


@pytest.mark.parametrize("body", ["", "\n", ",,,,\n   \n"], ids=["header_only", "blank", "blank_fields"])
@pytest.mark.parametrize("parse", [parse_datasets_csv, parse_datasets_csv_per_row])
def test_no_records_after_header(tmp_path, parse, body):
    # A file that names its columns but holds no record is not an empty
    # analysis: it raises rather than parsing to no menus.
    path = tmp_path / "d.csv"
    path.write_text(HEADER + body)
    with pytest.raises(ValidationError, match="holds no records"):
        parse(path)


@pytest.mark.parametrize("parse", [parse_datasets_csv, parse_datasets_csv_per_row])
def test_byte_order_mark_is_dropped(tmp_path, parse):
    # Spreadsheet "CSV UTF-8" exports start with a BOM, which must not
    # become part of the first column's name.
    plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
    plain.write_text(SOFTMAX_CSV, encoding="utf-8")
    marked.write_text("\ufeff" + SOFTMAX_CSV, encoding="utf-8")
    assert marked.read_bytes()[:3] == b"\xef\xbb\xbf"
    assert _contents(parse(marked)) == _contents(parse(plain))


def _contents(datasets: dict) -> list:
    # The row oracle gives (menu, values, probs) where the parser gives a Dataset.
    out = []
    for k, d in datasets.items():
        menu, V, P = (d.menu, d.values_matrix, d.probs_matrix) if isinstance(d, Dataset) else d
        out.append((k, menu, V.tobytes(), P.tobytes()))
    return out


def _parse_error(tmp_path, body: str) -> Exception:
    path = tmp_path / "d.csv"
    path.write_text(HEADER + body)
    with pytest.raises(ValidationError) as err:
        parse_datasets_csv(path)
    return err.value


@pytest.mark.parametrize(
    "body, line, message",
    [
        (
            "m,1,x,0,0.5\nm,1,y,zero,0.5\n",
            3,
            "could not convert string to float: 'zero'",
        ),
        (
            "m,1,x,0,0.5\nm,1,y,0,half\n",
            3,
            "could not convert string to float: 'half'",
        ),
        ("m,1,x,0,0.5\nm,1,y,0\n", 3, "expected 5 fields, got 4"),
        ("m,1,x,0,0.5\nm,1,y,0,0.5,7\n", 3, "expected 5 fields, got 6"),
        (
            "m,1,x,0,0.5\nm,1,y,0,0.5\nm, 1 ,x ,1,0.5\n",
            4,
            "duplicate alternative 'x' for menu 'm', observation '1'",
        ),
    ],
    ids=["bad_value", "bad_prob", "short_row", "long_row", "duplicate_cell"],
)
def test_parse_error_class_line_and_message(tmp_path, body, line, message):
    err = _parse_error(tmp_path, body)
    assert type(err) is ParseError
    assert err.line == line
    assert str(err) == f"line {line}: {message}"


def test_incomplete_observation_lists_absent_alternatives(tmp_path):
    err = _parse_error(
        tmp_path,
        "m,1,x,0,0.2\nm,1,y,0,0.3\nm,1,z,0,0.5\n"
        "m,2,y,1,1.0\n"
        "m,3,x,0,0.5\n",
    )
    assert type(err) is ValidationError
    assert str(err) == "menu 'm', observation '2' lacks alternatives ['x', 'z']"


def test_blank_and_empty_field_rows_are_skipped(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(
        HEADER
        + "m,1,x,0,0.5\n"
        + "   \n"
        + ",,,,\n"
        + " , ,\t, ,\n"
        + "\n"
        + "m,1,y,0,0.5\n"
        + ",,,,\n"
    )
    d = parse_datasets_csv(path)["m"]
    assert d == Dataset(Menu("m", ("x", "y")), [[0.0, 0.0]], [[0.5, 0.5]])
    path.write_text(HEADER + "m,1,x,0,0.5\n,,,,\n   \nm,1,y,0,oops\n")
    with pytest.raises(ParseError) as err:
        parse_datasets_csv(path)
    assert err.value.line == 5


def test_empty_cell_records_stay_on_the_columnar_parse(tmp_path, monkeypatch):
    # Spreadsheet exports write an empty row as ',,,,'.  The columnar read
    # drops such records as it drops blank lines, so the file is never
    # walked record by record.
    def walked(*args):
        raise AssertionError("the file was walked record by record")

    monkeypatch.setattr(dataio, "_screen", walked)
    records = ["A,1,x,0,0.5", "A,1,y,0,0.5", "B,1,u,1,0.3", "B,1,w,0,0.7"]
    plain, padded = tmp_path / "plain.csv", tmp_path / "padded.csv"
    plain.write_text(HEADER + "\n".join(records) + "\n")
    padded.write_text(HEADER + "\n,,,,\n".join(records) + "\n,,,,\n,,,,\n")
    assert _contents(parse_datasets_csv(padded)) == _contents(parse_datasets_csv(plain))


@pytest.mark.parametrize(
    "body, line",
    [
        ("m,1,x,0,0.5\nm,1,x,0,0.5\nm,1,y,bad,0.5\n", 3),  # duplicate, then a bad float
        ("m,1,x,0,0.5\nm,1,y,0,bad\nm,1,z,0\n", 3),  # bad float, then a short row
        ("m,1,x,0,0.5\nm,1,y\nm,1,x,0,0.5\n", 3),  # short row, then a duplicate
        ("m,1,x,0,0.5\nm,1,y,0,0.5,\nm,1,z,bad,bad\n", 3),  # long row, then a bad float
        ("m,1,x,0,x1\nm,1,y,y2,0.5\n", 2),  # bad probability before a bad value
    ],
)
def test_two_faults_report_the_earlier(tmp_path, body, line):
    err = _parse_error(tmp_path, body)
    assert type(err) is ParseError
    assert err.line == line


def test_row_faults_come_before_incomplete_observations(tmp_path):
    err = _parse_error(tmp_path, "m,1,x,0,1.0\nm,2,x,0,0.5\nm,2,y,0,0.5\nm,3,x,0,z\n")
    assert type(err) is ParseError
    assert err.line == 5


def test_menus_fail_in_order_of_first_appearance(tmp_path):
    # Menu A's invalid record is reported before menu B's incomplete observation.
    err = _parse_error(
        tmp_path,
        "A,1,x,0,1.2\nA,1,y,0,-0.2\nB,1,x,0,0.5\nB,1,y,0,0.5\nB,2,x,0,1.0\n",
    )
    assert type(err) is RecordValidationError
    assert [i for i, _ in err.record_errors] == [1]
    (_, record_error), = err.record_errors
    assert type(record_error) is ValidationError
    assert str(record_error) == "entry -0.2 at position 1 is below -1e-09"
    err = _parse_error(
        tmp_path,
        "A,1,x,0,0.5\nA,1,y,0,0.5\nA,2,y,0,1.0\nB,1,x,0,1.2\nB,1,y,0,-0.2\n",
    )
    assert str(err) == "menu 'A', observation '2' lacks alternatives ['x']"


def test_line_counts_csv_records_across_embedded_newlines(tmp_path):
    # The quoted label spans two physical lines but is one record, so the
    # bad row on physical line 5 is reported as line 4.
    err = _parse_error(tmp_path, 'm,1,"x\ny",0,0.5\nm,1,z,0,0.5\nm,2,z,nan?,0.5\n')
    assert type(err) is ParseError
    assert err.line == 4
    assert str(err) == "line 4: could not convert string to float: 'nan?'"


def _long_body(n_obs: int = 100) -> list[str]:
    # Two menus of n_obs observations over two alternatives, interleaved.
    rows = []
    for k in range(1, n_obs + 1):
        for menu in ("A", "B"):
            rows += [f"{menu},{k},x,{k},0.25", f"{menu},{k},y,0,0.75"]
    return rows


@pytest.mark.parametrize(
    "edit, line",
    [
        ({298: "A,75,x,oops,0.25"}, 300),  # a bad float, chunks in
        ({248: "A,63,x,0.25"}, 250),  # a short row
        ({388: "B,1,y,0,0.75"}, 390),  # repeats line 5
        ({138: "", 258: ",,,,", 298: "A,75,x,0,x"}, 300),  # blanks first
        ({300: "B,75,y,0,0.75,", 120: "A,30,x,1,0.25"}, 122),  # duplicate first
    ],
)
def test_faults_past_the_first_chunk_keep_their_line(tmp_path, edit, line):
    rows = _long_body()
    for k, text in edit.items():
        rows[k] = text
    err = _parse_error(tmp_path, "\n".join(rows) + "\n")
    assert type(err) is ParseError
    assert err.line == line


def test_blank_rows_between_chunks_change_nothing(tmp_path):
    rows = _long_body()
    plain = tmp_path / "plain.csv"
    plain.write_text(HEADER + "\n".join(rows) + "\n")
    for k in (350, 200, 129, 128, 127, 3):
        rows.insert(k, ",,,," if k % 2 else "  ")
    spaced = tmp_path / "spaced.csv"
    spaced.write_text(HEADER + "\n".join(rows) + "\n")
    assert parse_datasets_csv(spaced) == parse_datasets_csv(plain)


def test_blank_lines_keep_the_columnar_parse(tmp_path, monkeypatch):
    # Blank lines anywhere are dropped as the columns are read; only a
    # faulty record sends the file through the record-by-record walk.
    rows = _long_body()
    plain = tmp_path / "plain.csv"
    plain.write_text(HEADER + "\n".join(rows) + "\n")
    want = parse_datasets_csv(plain)
    for k in (300, 129, 128, 127, 3, 0):
        rows.insert(k, "")
    blank = tmp_path / "blank.csv"
    blank.write_text(HEADER + "\n".join(rows) + "\n\n\n")

    def walked(*args):
        raise AssertionError("the record-by-record walk ran")

    monkeypatch.setattr(dataio, "_screen", walked)
    assert parse_datasets_csv(blank) == want
    monkeypatch.undo()
    # A leading BOM is dropped again when a faulty file is walked from its start.
    blank.write_bytes(b"\xef\xbb\xbf" + (HEADER + "m,1,x,0,0.5\n\n\nm,1,y,0,oops\n").encode())
    with pytest.raises(ParseError) as err:
        parse_datasets_csv(blank)
    assert err.value.line == 5


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_faulty_file_from_a_pipe_reports_its_line(tmp_path):
    # A pipe cannot be read twice, yet a fault in it is still found by the walk.
    fifo = tmp_path / "d.csv"
    os.mkfifo(fifo)
    body = HEADER + "m,1,x,0,0.5\n\nm,1,y,zero,0.5\n"
    writer = threading.Thread(target=fifo.write_text, args=(body,), daemon=True)
    writer.start()
    try:
        with pytest.raises(ParseError, match="^line 4: could not convert string to float: 'zero'$"):
            parse_datasets_csv(fifo)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()


def _random_csv(rng: random.Random) -> str:
    """A small dataset CSV, sometimes past one read chunk, with random faults."""
    rows = []
    for menu in rng.choice([["m"], ["A", "B"], ["A", "B", "C"]]):
        alts = rng.sample(["x", "y", "z", "w"], rng.randint(2, 3))
        for k in range(1, rng.choice([3, 6, 80])):
            probs = [rng.random() for _ in alts]
            for a, p in zip(alts, probs):
                value = rng.choice([0.0, -0.0, 1.0, rng.uniform(-3, 3)])
                rows.append([menu, str(k), a, repr(value), repr(p / sum(probs))])
    if rng.random() < 0.3:
        rng.shuffle(rows)
    if rng.random() < 0.2:  # a probability the validator rejects or clamps
        rng.choice(rows)[4] = rng.choice(["-0.2", "1.5", "-1e-10", "inf", "nan"])
    lines = [",".join(r) for r in rows]
    for _ in range(rng.choice([0, 1, 2, 4])):
        i, r = rng.randrange(len(lines)), rng.choice(rows)
        edits = [
            lambda: lines.insert(i, rng.choice(["", ",,,,", " , ,\t, , ", "   "])),
            lambda: lines.insert(i, lines[rng.randrange(len(lines))]),  # a repeated cell
            lambda: lines.pop(i),  # an incomplete observation
            lambda: lines.insert(i, ",".join(r[:4])),
            lambda: lines.insert(i, ",".join(r + ["9"])),
            lambda: lines.insert(i, ",".join(r[:3] + [rng.choice(["zero", "", "1_0", " 4 ", "nan"]), r[4]])),
            lambda: lines.insert(i, ",".join(r[:4] + [rng.choice(["half", "0.5.", "- 1"])])),
            lambda: lines.insert(i, ",".join([f" {r[0]} ", r[1], f'"q\n{r[2]}"', r[3], r[4]])),
        ]
        rng.choice(edits)()
    return HEADER + "\n".join(lines) + "\n"


def _parse_outcome(parse, path):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            datasets = parse(path)
        except ValidationError as exc:
            errors = [(i, type(e), str(e)) for i, e in getattr(exc, "record_errors", [])]
            result = (type(exc), str(exc), getattr(exc, "line", None), errors)
        else:
            result = _contents(datasets)
    return result, [(w.category, str(w.message)) for w in caught]


def test_columnar_parse_matches_row_oracle(tmp_path):
    rng = random.Random(31)
    path = tmp_path / "d.csv"
    outcomes = set()
    for _ in range(400):
        path.write_text(_random_csv(rng))
        got = _parse_outcome(parse_datasets_csv, path)
        assert got == _parse_outcome(parse_datasets_csv_per_row, path)
        outcomes.add(got[0][0] if isinstance(got[0], tuple) else "parsed")
    assert outcomes == {"parsed", ParseError, ValidationError, RecordValidationError}


def test_unreadable_record_comes_after_earlier_faults(tmp_path):
    # A field over the csv module's size limit is an error where it stands:
    # a bad row before it is still the fault reported.
    oversized = "m,2,x,0," + "9" * (csv.field_size_limit() + 1) + "\n"
    err = _parse_error(tmp_path, "m,1,x,0,0.5\nm,1,y,zero,0.5\n" + oversized)
    assert type(err) is ParseError
    assert err.line == 3
    path = tmp_path / "d.csv"
    path.write_text(HEADER + "m,1,x,0,0.5\nm,1,y,0,0.5\n" + oversized)
    with pytest.raises(csv.Error):
        parse_datasets_csv(path)
