"""Dataset CSV ingestion and emission: this module owns the dataset format.

Dataset files are UTF-8 CSV with LF line endings and the exact header
``menu_id,obs_id,alternative,value,prob``.  Rows are grouped by
``(menu_id, obs_id)``; alternatives are ordered by first appearance within
each menu; observations by first appearance of their ``obs_id``.  Floats
carry 17 significant digits (exact round-trip); fields are quoted as csv does.
The model spec that ``simulate`` reads is JSON, and ``models`` owns it.
"""

from __future__ import annotations

import csv
import io
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .core import Dataset, Menu
from .errors import ValidationError

CSV_COLUMNS = ("menu_id", "obs_id", "alternative", "value", "prob")


class ParseError(ValidationError):
    """A CSV row could not be parsed; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


def csv_field(text: str) -> str:
    """``text`` as one CSV field, quoted only where the csv module would."""
    buf = io.StringIO()
    csv.writer(buf).writerow([text, ""])  # a lone empty field would be quoted
    return buf.getvalue()[:-3]


def _read_columns(reader, fields: int, ids: set[int]) -> list[list[str]] | None:
    """The records as columns, read in chunks so few row lists live at once.

    Equal cells of an ``ids`` column share one string, and records of empty
    cells (``[]`` from a blank line, or ``,,,,``) are dropped.  Returns None
    at the first ill-sized record or one the csv module cannot read.
    """
    columns: list[list[str]] = [[] for _ in range(fields)]
    shared: dict[str, str] = {}
    try:
        for chunk in iter(lambda: list(islice(reader, 128)), []):
            chunk = list(filter(any, chunk))
            if not set(map(len, chunk)) <= {fields}:
                return None
            for k, cells in enumerate(zip(*chunk)):
                columns[k].extend(map(shared.setdefault, cells, cells) if k in ids else cells)
    except csv.Error:
        return None
    return columns


def _first_appearance(labels: Iterable[str]) -> tuple[np.ndarray, list[str]]:
    """Each label's code in order of first appearance, and the distinct labels."""
    labels = list(labels)
    index = {label: k for k, label in enumerate(dict.fromkeys(labels))}
    return np.fromiter(map(index.__getitem__, labels), np.intp, len(labels)), list(index)


def _menus(columns: Sequence[Sequence[str]], col: dict[str, int]) -> list[tuple] | None:
    """Each menu's ``(id, alternatives, values, probs, fault)`` from record columns.

    ``values`` and ``probs`` are n-by-|A| matrices, each filled by one
    scatter; ``fault`` names the menu's first incomplete observation, if
    any.  Returns None when a value or probability is not a float or a
    (menu, observation, alternative) cell repeats.
    """
    n = len(columns[0])
    try:
        value = np.fromiter(map(float, columns[col["value"]]), float, n)
        prob = np.fromiter(map(float, columns[col["prob"]]), float, n)
    except ValueError:
        return None
    m, menu_ids = _first_appearance(map(str.strip, columns[col["menu_id"]]))
    obs_col, alt_col = (list(map(str.strip, columns[col[c]])) for c in ("obs_id", "alternative"))
    by_menu = np.argsort(m, kind="stable")
    bounds = np.searchsorted(m[by_menu], np.arange(len(menu_ids) + 1))
    out = []
    for g, menu_id in enumerate(menu_ids):
        rows = by_menu[bounds[g] : bounds[g + 1]]
        o, obs_ids = _first_appearance(map(obs_col.__getitem__, rows.tolist()))
        a, alts = _first_appearance(map(alt_col.__getitem__, rows.tolist()))
        shape = (len(obs_ids), len(alts))
        count = np.bincount(o * shape[1] + a, minlength=shape[0] * shape[1]).reshape(shape)
        if count.max() > 1:
            return None
        values, probs = np.empty(shape), np.empty(shape)
        values[o, a], probs[o, a] = value[rows], prob[rows]
        fault = None
        if count.min() == 0:
            k = int(np.argmin(count.min(axis=1)))
            lacking = [alts[j] for j in np.flatnonzero(count[k] == 0).tolist()]
            fault = f"menu {menu_id!r}, observation {obs_ids[k]!r} lacks alternatives {lacking!r}"
        out.append((menu_id, alts, values, probs, fault))
    return out


def _screen(records: Iterable[Sequence[str]], fields: int, col: dict[str, int]) -> list[tuple]:
    """The non-blank records as columns; raises the first faulty record's ParseError."""
    kept, seen = [], set()
    for line_no, row in enumerate(records, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != fields:
            raise ParseError(line_no, f"expected {fields} fields, got {len(row)}")
        try:
            float(row[col["value"]])
            float(row[col["prob"]])
        except ValueError as exc:
            raise ParseError(line_no, str(exc)) from None
        menu_id, obs_id, alt = key = tuple(row[col[c]].strip() for c in CSV_COLUMNS[:3])
        if key in seen:
            raise ParseError(
                line_no,
                f"duplicate alternative {alt!r} for menu {menu_id!r}, observation {obs_id!r}",
            )
        seen.add(key)
        kept.append(row)
    return list(zip(*kept)) or [()] * fields


def parse_datasets_csv(path) -> dict[str, Dataset]:
    """Parse a dataset CSV into one validated Dataset per menu.

    Menus are returned in order of first appearance.  The records are read
    as columns and scattered into each menu's value and probability
    matrices.  Only a file with a faulty record is walked again, record by
    record, to report the first fault in file order.
    Validation uses ``core.TOL_SIMPLEX`` and its failures carry the
    offending menu/observation identifiers.  No record at all is an error.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8-sig", newline="") as fh:  # drops a leading BOM
        fh = fh if fh.seekable() else io.StringIO(fh.read(), newline="")  # a pipe is read whole
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(1, "file is empty; expected a header row") from None
        header = [h.strip() for h in header]
        missing = [c for c in CSV_COLUMNS if c not in header]
        if missing:
            raise ValidationError(f"missing column(s): {', '.join(missing)}")
        extra = [c for c in header if c not in CSV_COLUMNS]
        if extra:
            raise ParseError(1, f"unexpected column(s): {', '.join(extra)}")
        repeated = [c for c in CSV_COLUMNS if header.count(c) > 1]
        if repeated:
            raise ParseError(1, f"repeated column(s): {', '.join(repeated)}")
        col = {name: header.index(name) for name in CSV_COLUMNS}
        ids = {col[c] for c in CSV_COLUMNS[:3]}
        columns = _read_columns(reader, len(header), ids)
        menus = None if columns is None else _menus(columns, col)
        if menus is None:  # walk the records from the first to report the first fault
            fh.seek(0)
            reader = csv.reader(fh)
            next(reader)
            columns = _screen(reader, len(header), col)
            menus = _menus(columns, col)
    del columns
    if not menus:
        raise ValidationError(f"{path} holds no records")

    out: dict[str, Dataset] = {}
    for menu_id, alts, values, probs, fault in menus:
        if fault:
            raise ValidationError(fault)
        out[menu_id] = Dataset(Menu(menu_id, tuple(alts)), values, probs)
    return out


def write_dataset_csv(path, datasets: Dataset | Sequence[Dataset]) -> None:
    """Write one or more datasets in the standard CSV layout."""
    if isinstance(datasets, Dataset):
        datasets = [datasets]
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for d in datasets:
            # One % call per menu; %.17g round-trips every double.
            head = csv_field(d.menu.id).replace("%", "%%") + ",%d,"
            text = "".join(
                head + csv_field(label).replace("%", "%%") + ",%.17g,%.17g\n"
                for label in d.menu.alternatives
            )
            obs = np.repeat(np.arange(1, d.n + 1), d.menu.size)
            cells = zip(obs.tolist(), d.values_matrix.ravel().tolist(), d.probs_matrix.ravel().tolist())
            fh.write((text * d.n) % tuple(chain.from_iterable(cells)))
