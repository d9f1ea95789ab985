"""Verification records and deterministic table/CSV/JSON rendering.

A check returns ReportRecords, one checked quantity each: a plain row
of name, analytic target, numeric value and tolerance.  The formatters
take one RecordBatch: rows held as columns (names in a list; analytic,
numeric and tolerance values in float arrays; an optional leading sweep
column); RecordBatch.from_records wraps a list of ReportRecords.  The
batch is the only thing that judges a row: it checks that the names are
CSV-safe, and computes each residual and pass.  render formats each
distinct value of a column (by bit pattern) once, keeps per column only
those distinct texts and each row's index into them, and yields the
text in pieces of at most CHUNK_ROWS rows, so a caller that writes each
piece as it comes never holds the whole output.  format_table,
format_csv and format_json join the same pieces into one text.

All floats are rendered with 17 significant digits so a fixed
configuration always produces byte-identical output.  JSON cannot carry
infinities, so non-finite values appear there as the strings "inf",
"-inf" or "nan"; CSV and tables print them directly.
"""

from __future__ import annotations

import json
import math
from itertools import count, repeat
from typing import Iterator, NamedTuple, Sequence

import numpy as np

__all__ = [
    "RecordBatch",
    "ReportRecord",
    "format_table",
    "format_csv",
    "format_json",
    "render",
]

SCHEMA_VERSION = "1"

# Informational rows (per-node derivative dumps) use an infinite
# tolerance: they are data, not pass/fail checks, and never gate the
# exit code.
INFORMATIONAL = math.inf


class ReportRecord(NamedTuple):
    """One checked quantity: analytic target, numeric value, tolerance.

    A plain row; RecordBatch checks its name and judges it.
    """

    quantity: str
    analytic: float
    numeric: float
    tolerance: float


class RecordBatch:
    """Records as columns, with residual and passed computed once.

    sweep, when given, is a (parameter name, value per row) pair shown
    as a leading column.  This is the one place a row's residual
    |analytic - numeric| and its pass are computed, and its name checked
    to be CSV-safe.
    """

    def __init__(
        self,
        quantities: Sequence[str],
        analytic: Sequence[float],
        numeric: Sequence[float],
        tolerance: Sequence[float],
        sweep: tuple[str, Sequence[float]] | None = None,
    ) -> None:
        self.quantities = list(quantities)
        joined = "".join(self.quantities)
        if "," in joined or "\n" in joined:
            bad = next(name for name in self.quantities if "," in name or "\n" in name)
            raise ValueError(f"quantity name must be CSV-safe, got {bad!r}")
        self.analytic = np.asarray(analytic, dtype=np.float64)
        self.numeric = np.asarray(numeric, dtype=np.float64)
        self.tolerance = np.asarray(tolerance, dtype=np.float64)
        self.sweep = None if sweep is None else (sweep[0], np.asarray(sweep[1], np.float64))
        # one value per name in each column, or a row would be dropped or made up
        columns = {"analytic": self.analytic, "numeric": self.numeric, "tolerance": self.tolerance}
        if self.sweep is not None:
            columns[f"sweep {self.sweep[0]!r}"] = self.sweep[1]
        n = len(self)
        if any(x.shape != (n,) for x in columns.values()):
            got = ", ".join(
                f"{name} {x.shape[0] if x.ndim == 1 else x.shape}" for name, x in columns.items()
            )
            raise ValueError(f"record columns need one value per quantity ({n}), got {got}")
        # inf - inf gives nan and a huge difference inf, without a warning
        with np.errstate(invalid="ignore", over="ignore"):
            self.residual = np.abs(self.analytic - self.numeric)
        # informational rows never gate, even when the residual is nan
        # (both values infinite, e.g. a divergent endpoint)
        self.passed = np.isinf(self.tolerance) | (self.residual <= self.tolerance)

    @classmethod
    def from_records(cls, records: Sequence[ReportRecord]) -> RecordBatch:
        # zip(*rows) gives no columns at all for zero rows
        return cls(*(zip(*records) if records else ((),) * 4))

    def __len__(self) -> int:
        return len(self.quantities)

    def failures(self) -> RecordBatch:
        """The rows that did not pass, without the sweep column."""
        failed = ~self.passed
        names = [name for name, f in zip(self.quantities, failed.tolist()) if f]
        return RecordBatch(
            names, self.analytic[failed], self.numeric[failed], self.tolerance[failed]
        )


# the text of every float a report prints, in values and in names:
# 17 significant digits, enough to round-trip any double
FLOAT_SPEC = ".17g"

# Rows per piece of rendered text.  On a 2-core Xeon, a 2,000-step JSON
# sweep (22,000 rows) peaked at 41 MB RSS with 256 rows a piece, 42 MB
# with 1024, 45 MB with 4096 and 47 MB with the whole text in one piece.
CHUNK_ROWS = 1024

# a column's distinct texts (an object array) and each row's index into them
_Columns = list[tuple[np.ndarray, np.ndarray]]


def _distinct_floats(values: np.ndarray, as_json: bool) -> tuple[list[str], np.ndarray]:
    """The text of each distinct bit pattern, so -0.0 and 0.0 keep their own
    text, and each row's index into those texts; as_json gives JSON values."""
    bits, rows = np.unique(values.view(np.int64), return_inverse=True)
    floats = bits.view(np.float64).tolist()
    texts = list(map(float.__format__, floats, repeat(FLOAT_SPEC)))
    if as_json:
        texts = [text if math.isfinite(x) else json.dumps(text) for x, text in zip(floats, texts)]
    return texts, rows


def _distinct_names(names: list[str]) -> tuple[list[str], np.ndarray]:
    """Each distinct name, in order of first appearance, and each row's index
    into them."""
    distinct = dict.fromkeys(names)
    if len(distinct) == len(names):
        # each row its own name, as deriv's per-node rows are
        return names, np.arange(len(names))
    index = dict(zip(distinct, count()))
    return list(index), np.fromiter(map(index.__getitem__, names), np.intp, len(names))


def _columns(batch: RecordBatch, as_json: bool, justify: bool) -> tuple[list[str], _Columns]:
    """Header and one column per field; as_json gives JSON "key": value
    pairs, and justify pads each heading and text to its column's width, the
    texts of the first column to the left and the others to the right."""
    header: list[str] = []
    columns: _Columns = []

    def add(heading: str, texts: list[str], rows: np.ndarray) -> None:
        if justify:
            width = max([len(heading), *map(len, texts)])
            heading = heading.ljust(width)
            texts = list(map(str.rjust if columns else str.ljust, texts, repeat(width)))
        elif as_json:
            texts = list(map(f"{json.dumps(heading)}: ".__add__, texts))
        header.append(heading)
        columns.append((np.array(texts, dtype=object), rows))

    if batch.sweep is not None:
        add(batch.sweep[0], *_distinct_floats(batch.sweep[1], as_json))
    names, rows = _distinct_names(batch.quantities)
    add("quantity", list(map(json.dumps, names)) if as_json else names, rows)
    for field in ("analytic", "numeric", "residual", "tolerance"):
        add(field, *_distinct_floats(getattr(batch, field), as_json))
    flags, passed = np.unique(batch.passed, return_inverse=True)
    add("pass", [("false", "true")[f] for f in flags.tolist()], passed)
    return header, columns


def _lines(columns: _Columns, sep: str) -> Iterator[list[str]]:
    """Each row's texts joined by sep, CHUNK_ROWS rows at a time."""
    for start in range(0, len(columns[0][1]), CHUNK_ROWS):
        cells = [texts[rows[start : start + CHUNK_ROWS]].tolist() for texts, rows in columns]
        yield list(map(sep.join, zip(*cells)))


def _text_pieces(top: list[str], columns: _Columns, sep: str) -> Iterator[str]:
    yield "\n".join(top) + "\n"
    for lines in _lines(columns, sep):
        yield "\n".join(lines) + "\n"


def _json_pieces(columns: _Columns) -> Iterator[str]:
    # each row is one object whose first pair is the schema version
    opening = f'  {{"schema_version": {json.dumps(SCHEMA_VERSION)}, '
    before = "[\n"
    for lines in _lines(columns, ", "):
        yield before + opening + ("},\n" + opening).join(lines) + "}"
        before = ",\n"
    yield "[]\n" if before == "[\n" else "\n]\n"


def render(batch: RecordBatch, output_format: str) -> Iterator[str]:
    """The text of batch as a "table", "csv" or "json", in pieces of at most
    CHUNK_ROWS rows.

    Each column's distinct texts are formatted before this returns; a
    piece's rows are joined only when the piece is asked for.
    """
    header, columns = _columns(
        batch, as_json=output_format == "json", justify=output_format == "table"
    )
    if output_format == "json":
        return _json_pieces(columns)
    if output_format == "table":
        top = ["  ".join(header).rstrip(), "  ".join("-" * len(h) for h in header)]
        return _text_pieces(top, columns, "  ")
    if output_format == "csv":
        top = [f"# schema_version={SCHEMA_VERSION}", ",".join(header)]
        return _text_pieces(top, columns, ",")
    raise ValueError(f"output format must be table, csv or json, got {output_format!r}")


def format_table(batch: RecordBatch) -> str:
    return "".join(render(batch, "table"))


def format_csv(batch: RecordBatch) -> str:
    return "".join(render(batch, "csv"))


def format_json(batch: RecordBatch) -> str:
    return "".join(render(batch, "json"))
