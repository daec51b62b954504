"""Deterministic JSON report serialization.

Reports are rendered with sorted keys, two-space indentation, LF line
endings, and every float written with 17 significant digits so that any
reported number can be recomputed and compared exactly.  Identical inputs
and configuration therefore produce byte-identical reports, timing fields
aside.
"""

from __future__ import annotations

import math
from json.encoder import _make_iterencode, encode_basestring

SCHEMA_VERSION = 2


def _float17(x: float) -> str:
    return format(x, ".17g") if math.isfinite(x) else "null"


def _tolist(obj):
    if not hasattr(obj, "tolist"):  # numpy scalars and arrays have it
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    return obj.tolist()


# json.dumps writes floats with float.__repr__; the pure-Python encoder behind its
# indented output takes the float format as an argument.  The arguments: markers,
# default, encoder, indent, floatstr, separators, sort_keys, skipkeys, one_shot.
_encode = _make_iterencode(None, _tolist, encode_basestring, "  ", _float17, ": ", ",", True, False, False)


def dumps_report(report: dict) -> str:
    """Serialize a report dict to canonical JSON text (with trailing LF)."""
    return "".join(_encode(report, 0)) + "\n"


def strip_timing(report: dict) -> dict:
    """Copy of a report with timing fields removed (for byte comparisons)."""

    def walk(obj):
        if isinstance(obj, dict):
            return {k: walk(v) for k, v in obj.items() if not str(k).startswith("timing")}
        if isinstance(obj, list):
            return [walk(v) for v in obj]
        return obj

    return walk(report)
