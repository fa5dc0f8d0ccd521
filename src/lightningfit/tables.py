"""Deterministic tabular output for experiment pipelines.

Tables are rectangular, typed, and serialize byte-identically for
identical inputs: floats use shortest round-trip repr (17 significant
digits when needed), JSON keys are sorted, line endings are fixed, and
metadata carries the config echo and code version but no timestamp.
CSV writes a non-finite float as its repr (`nan`); JSON, which has no
such token, writes it as `null`.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .version import __version__


@dataclass(frozen=True)
class ResultTable:
    columns: tuple
    rows: list
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))
        width = len(self.columns)
        clean = []
        for i, row in enumerate(self.rows):
            if len(row) != width:
                raise InputError(f"row {i} has {len(row)} cells, expected {width}")
            # numpy scalars repr as np.float64(...) and break json; demote them
            clean.append(tuple(v.item() if isinstance(v, np.generic) else v
                               for v in row))
        object.__setattr__(self, "rows", clean)
        meta = dict(self.meta)
        meta.setdefault("version", __version__)
        object.__setattr__(self, "meta", meta)

    def __len__(self):
        return len(self.rows)

    def column(self, name):
        try:
            idx = self.columns.index(name)
        except ValueError:
            raise InputError(f"no column named {name!r}") from None
        return [row[idx] for row in self.rows]


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _json_value(value):
    """value with every non-finite float, at any depth, replaced by None."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _json_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_value(v) for v in value]
    return value


def render_table(table: ResultTable, fmt: str = "csv") -> str:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
        writer.writerow(table.columns)
        for row in table.rows:
            writer.writerow([_cell(v) for v in row])
        return buf.getvalue()
    if fmt == "json":
        payload = {
            "metadata": table.meta,
            "columns": list(table.columns),
            "rows": table.rows,
        }
        return json.dumps(_json_value(payload), sort_keys=True, indent=2,
                          allow_nan=False) + "\n"
    raise InputError(f"unknown format {fmt!r} (expected 'csv' or 'json')")


def write_table(table: ResultTable, fmt: str = "csv", path=None, stream=None) -> str:
    """Serialize and optionally persist a table; returns the serialized text."""
    text = render_table(table, fmt)
    if stream is not None:
        stream.write(text)
    elif path is not None:
        try:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write table to {path}: {exc}") from exc
    return text

