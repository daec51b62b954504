"""Tests for CSV ingestion/emission and model-spec loading."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cyclorat import LuceExponential, MixedMenusError, ValidationError, make_dataset
from cyclorat.dataio import (
    MissingColumnError,
    ParseError,
    fmt17,
    load_model_spec,
    parse_dataset_csv,
    parse_datasets_csv,
    write_dataset_csv,
)

from conftest import luce_dataset

SOFTMAX_CSV = """menu_id,obs_id,alternative,value,prob
m,1,x,0,0.5
m,1,y,0,0.5
m,2,x,1,0.73106
m,2,y,0,0.26894
"""


def test_parse_softmax_fixture(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(SOFTMAX_CSV)
    d = parse_dataset_csv(path)
    assert d.n == 2
    assert d.menu.alternatives == ("x", "y")
    expected = make_dataset(
        "m",
        [[0.0, 0.0], [1.0, 0.0]],
        [[0.5, 0.5], [0.73106, 0.26894]],
        alternatives=("x", "y"),
    )
    assert d == expected


def test_missing_column(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("menu_id,obs_id,alternative,value\nm,1,x,0\n")
    with pytest.raises(MissingColumnError):
        parse_dataset_csv(path)


def test_unexpected_column(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("menu_id,obs_id,alternative,value,prob,extra\nm,1,x,0,0.5,9\n")
    with pytest.raises(ParseError):
        parse_dataset_csv(path)


def test_negative_prob_reported_with_record(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(
        "menu_id,obs_id,alternative,value,prob\n"
        "m,1,x,0,1.2\n"
        "m,1,y,0,-0.2\n"
    )
    with pytest.raises(ValidationError):
        parse_dataset_csv(path)


def test_bad_float_carries_line_number(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(
        "menu_id,obs_id,alternative,value,prob\n"
        "m,1,x,0,0.5\n"
        "m,1,y,zero,0.5\n"
    )
    with pytest.raises(ParseError) as err:
        parse_dataset_csv(path)
    assert err.value.line == 3


def test_multi_menu_split_and_single_menu_guard(tmp_path):
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
    with pytest.raises(MixedMenusError):
        parse_dataset_csv(path)


def test_incomplete_observation(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(
        "menu_id,obs_id,alternative,value,prob\n"
        "m,1,x,0,0.5\n"
        "m,1,y,0,0.5\n"
        "m,2,x,1,1.0\n"
    )
    with pytest.raises(ValidationError):
        parse_dataset_csv(path)


def test_duplicate_alternative_row(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(
        "menu_id,obs_id,alternative,value,prob\n"
        "m,1,x,0,0.5\n"
        "m,1,x,0,0.5\n"
    )
    with pytest.raises(ParseError):
        parse_dataset_csv(path)


def test_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(50)
    d = luce_dataset(rng, 9, 4)
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    write_dataset_csv(first, d)
    parsed = parse_dataset_csv(first)
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


def test_fmt17_round_trips_doubles():
    rng = np.random.default_rng(51)
    for x in rng.uniform(-1e6, 1e6, 200):
        assert float(fmt17(float(x))) == float(x)
    assert fmt17(-0.6) == "-0.59999999999999998"


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
    model, menu, design = load_model_spec(path)
    assert model.theta == 2.0
    assert design == {"count": 5, "low": -1.0, "high": 1.0}


def test_load_model_spec_requires_design(tmp_path):
    path = tmp_path / "model.json"
    path.write_text('{"family": "luce_exponential", "menu": {"id": "m", "alternatives": ["a", "b"]}}')
    with pytest.raises(ValidationError):
        load_model_spec(path)


def test_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(
        "menu_id,obs_id,alternative,value,prob\n"
        "m,1,x,0,0.5\n"
        "\n"
        "m,1,y,0,0.5\n"
    )
    assert parse_dataset_csv(path).n == 1


def test_empty_file(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("")
    with pytest.raises(ParseError):
        parse_dataset_csv(path)
