"""Deterministic JSON report serialization.

Reports are rendered with sorted keys, two-space indentation, LF line
endings, and every float written with 17 significant digits so that any
reported number can be recomputed and compared exactly.  Identical inputs
and configuration therefore produce byte-identical reports, timing fields
aside.
"""

from __future__ import annotations

import json
import math

SCHEMA_VERSION = 1


def _render(obj, indent: int, out: list[str]) -> None:
    pad = "  " * indent
    if obj is None or obj is True or obj is False:
        out.append("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        if math.isnan(obj) or math.isinf(obj):
            out.append("null")
        else:
            out.append(format(obj, ".17g"))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        keys = sorted(obj, key=str)
        for k, key in enumerate(keys):
            out.append(f"{pad}  {json.dumps(str(key), ensure_ascii=False)}: ")
            _render(obj[key], indent + 1, out)
            out.append(",\n" if k < len(keys) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for k, item in enumerate(obj):
            out.append(pad + "  ")
            _render(item, indent + 1, out)
            out.append(",\n" if k < len(obj) - 1 else "\n")
        out.append(pad + "]")
    else:
        try:
            _render(obj.tolist(), indent, out)  # numpy scalars and arrays
        except AttributeError:
            raise TypeError(f"cannot serialize {type(obj).__name__}") from None


def dumps_report(report: dict) -> str:
    """Serialize a report dict to canonical JSON text (with trailing LF)."""
    out: list[str] = []
    _render(report, 0, out)
    return "".join(out) + "\n"


def strip_timing(report: dict) -> dict:
    """Copy of a report with timing fields removed (for byte comparisons)."""

    def walk(obj):
        if isinstance(obj, dict):
            return {k: walk(v) for k, v in obj.items() if not str(k).startswith("timing")}
        if isinstance(obj, list):
            return [walk(v) for v in obj]
        return obj

    return walk(report)
