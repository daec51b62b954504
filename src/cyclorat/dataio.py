"""CSV dataset ingestion/emission and model-spec loading.

Dataset files are UTF-8 CSV with LF line endings and the exact header
``menu_id,obs_id,alternative,value,prob``.  Rows are grouped by
``(menu_id, obs_id)``; alternatives are ordered by first appearance within
each menu; observations by first appearance of their ``obs_id``.  Floats
carry 17 significant digits (exact round-trip); fields are quoted as csv does.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Sequence

from .core import TOL_SIMPLEX, Dataset, Menu, validate_dataset
from .errors import MixedMenusError, ValidationError
from .models import PreferenceModel, model_from_spec

CSV_COLUMNS = ("menu_id", "obs_id", "alternative", "value", "prob")


class MissingColumnError(ValidationError):
    """The CSV header lacks one of the required columns."""


class ParseError(ValidationError):
    """A CSV row could not be parsed; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


def fmt17(x: float) -> str:
    """Format a float with 17 significant digits (exact double round-trip)."""
    return format(float(x), ".17g")


def csv_field(text: str) -> str:
    """``text`` as one CSV field, quoted only where the csv module would."""
    buf = io.StringIO()
    csv.writer(buf).writerow([text, ""])  # a lone empty field would be quoted
    return buf.getvalue()[:-3]


def parse_datasets_csv(path, tol: float = TOL_SIMPLEX) -> dict[str, Dataset]:
    """Parse a dataset CSV into one validated Dataset per menu.

    Menus are returned in order of first appearance.  Validation failures
    carry the offending menu/observation identifiers.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(1, "file is empty; expected a header row") from None
        header = [h.strip() for h in header]
        missing = [c for c in CSV_COLUMNS if c not in header]
        if missing:
            raise MissingColumnError(f"missing column(s): {', '.join(missing)}")
        extra = [c for c in header if c not in CSV_COLUMNS]
        if extra:
            raise ParseError(1, f"unexpected column(s): {', '.join(extra)}")
        col = {name: header.index(name) for name in CSV_COLUMNS}

        # menu_id -> {"alts": [...], "obs": {obs_id: {alt: (value, prob)}}}
        menus: dict[str, dict] = {}
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise ParseError(line_no, f"expected {len(header)} fields, got {len(row)}")
            menu_id = row[col["menu_id"]].strip()
            obs_id = row[col["obs_id"]].strip()
            alt = row[col["alternative"]].strip()
            try:
                value = float(row[col["value"]])
                prob = float(row[col["prob"]])
            except ValueError as exc:
                raise ParseError(line_no, str(exc)) from None
            entry = menus.setdefault(menu_id, {"alts": [], "obs": {}})
            if alt not in entry["alts"]:
                entry["alts"].append(alt)
            cells = entry["obs"].setdefault(obs_id, {})
            if alt in cells:
                raise ParseError(
                    line_no,
                    f"duplicate alternative {alt!r} for menu {menu_id!r}, observation {obs_id!r}",
                )
            cells[alt] = (value, prob)

    out: dict[str, Dataset] = {}
    for menu_id, entry in menus.items():
        alts = entry["alts"]
        records = []
        for obs_id, cells in entry["obs"].items():
            absent = [a for a in alts if a not in cells]
            if absent:
                raise ValidationError(
                    f"menu {menu_id!r}, observation {obs_id!r} lacks alternatives {absent!r}"
                )
            values = [cells[a][0] for a in alts]
            probs = [cells[a][1] for a in alts]
            records.append((menu_id, values, probs))
        out[menu_id] = validate_dataset(records, alternatives=alts, tol=tol)
    return out


def parse_dataset_csv(path, tol: float = TOL_SIMPLEX) -> Dataset:
    """Parse a CSV that must contain exactly one menu."""
    datasets = parse_datasets_csv(path, tol)
    if len(datasets) != 1:
        raise MixedMenusError(
            f"expected a single menu, file has {sorted(datasets)!r}"
        )
    return next(iter(datasets.values()))


def write_dataset_csv(path, datasets: Dataset | Sequence[Dataset]) -> None:
    """Write one or more datasets in the standard CSV layout."""
    if isinstance(datasets, Dataset):
        datasets = [datasets]
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for d in datasets:
            menu_id = csv_field(d.menu.id)
            labels = [csv_field(label) for label in d.menu.alternatives]
            for k, obs in enumerate(d.observations, start=1):
                for a, label in enumerate(labels):
                    fh.write(
                        f"{menu_id},{k},{label},"
                        f"{fmt17(obs.values.entries[a])},{fmt17(obs.probs.entries[a])}\n"
                    )


def load_model_spec(path) -> tuple[PreferenceModel, Menu, list[list[float]] | dict]:
    """Load a simulation spec: model family, menu, and the value design.

    JSON layout::

        {
          "family": "luce_exponential",
          "params": {...},
          "menu": {"id": "m1", "alternatives": ["a", "b"]},
          "values": [[0, 0], [1, 0]]              # explicit design, or
          "design": {"count": 20, "low": -5, "high": 5}   # random, seeded
        }
    """
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        spec = json.load(fh)
    for key in ("family", "menu"):
        if key not in spec:
            raise ValidationError(f"model spec lacks the {key!r} field")
    model = model_from_spec(spec["family"], spec.get("params"))
    menu_spec = spec["menu"]
    menu = Menu(str(menu_spec["id"]), tuple(menu_spec["alternatives"]))
    if "values" in spec:
        design = [[float(x) for x in row] for row in spec["values"]]
        return model, menu, design
    if "design" in spec:
        d = spec["design"]
        return model, menu, {
            "count": int(d["count"]),
            "low": float(d.get("low", -5.0)),
            "high": float(d.get("high", 5.0)),
        }
    raise ValidationError("model spec needs either 'values' or 'design'")
