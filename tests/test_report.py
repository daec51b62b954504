"""Tests for the canonical JSON report writer."""

import json
import math

import pytest

from cyclorat.report import dumps_report, strip_timing


def test_sorted_keys_and_17_digit_floats():
    text = dumps_report({"b": -0.6, "a": 1, "c": [1.5, "x", None, True]})
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')
    assert "-0.59999999999999998" in text
    assert text.endswith("\n")
    parsed = json.loads(text)
    assert parsed["b"] == -0.6
    assert parsed["c"] == [1.5, "x", None, True]


def test_non_finite_floats_become_null():
    parsed = json.loads(dumps_report({"x": math.inf, "y": math.nan}))
    assert parsed == {"x": None, "y": None}


def test_numpy_values_serialize():
    import numpy as np

    parsed = json.loads(dumps_report({"a": np.float64(0.25), "b": np.arange(3)}))
    assert parsed == {"a": 0.25, "b": [0, 1, 2]}


def test_unserializable_raises():
    with pytest.raises(TypeError):
        dumps_report({"x": object()})


def test_strip_timing_removes_nested_fields():
    report = {
        "timing_ms": 4.2,
        "menus": [{"menu_id": "m", "timing_ms": 1.0, "keep": 2}],
    }
    stripped = strip_timing(report)
    assert stripped == {"menus": [{"menu_id": "m", "keep": 2}]}
    assert "timing_ms" in report  # original untouched


def test_empty_containers():
    assert json.loads(dumps_report({"a": {}, "b": []})) == {"a": {}, "b": []}


def test_golden_bytes():
    import numpy as np

    report = {
        "z": [1, -0.6, {}, [], {"b": True, "a": False}, None, (2.5, "x")],
        "a": {"ü ß": 'tab\there\x01é"\\', "nan": math.nan, "inf": math.inf, "-inf": -math.inf},
        "np": {"f": np.float64(0.1), "i": np.int64(-7), "arr": np.array([[0.5, 2], [3, 4]])},
        "B": 10**20,
        "zero": -0.0,
    }
    expected = r'''{
  "B": 100000000000000000000,
  "a": {
    "-inf": null,
    "inf": null,
    "nan": null,
    "ü ß": "tab\there\u0001é\"\\"
  },
  "np": {
    "arr": [
      [
        0.5,
        2
      ],
      [
        3,
        4
      ]
    ],
    "f": 0.10000000000000001,
    "i": -7
  },
  "z": [
    1,
    -0.59999999999999998,
    {},
    [],
    {
      "a": false,
      "b": true
    },
    null,
    [
      2.5,
      "x"
    ]
  ],
  "zero": -0
}
'''
    assert dumps_report(report) == expected
