"""Verification records and deterministic table/CSV/JSON rendering.

A check returns ReportRecords, one checked quantity each: a plain row
of name, analytic target, numeric value and tolerance.  The formatters
take one RecordBatch: rows held as columns (names in a list; analytic,
numeric and tolerance values in float arrays; an optional leading sweep
column); RecordBatch.from_records wraps a list of ReportRecords.  The
batch is the only thing that judges a row: it checks that the names are
CSV-safe, and computes each residual and pass.  render works in pieces
of at most CHUNK_ROWS rows: in each piece it formats each distinct value
of a column (by bit pattern) once, and keeps per row one code of the
narrowest unsigned type that indexes those texts (one or two bytes).  A
csv or json piece is formatted when it is asked for and its texts are
dropped once it is joined, so a caller that writes each piece as it
comes holds neither the whole output nor a whole column's texts.  A
table's widths need every text, so a table formats all of its pieces
first, keeps each piece's column texts as one "\n"-joined string (no
text holds a "\n"), and splits and pads them as it joins that piece.
format_table, format_csv and format_json join the same pieces into one
text.

All floats are rendered with 17 significant digits so a fixed
configuration always produces byte-identical output, and a value's text
is the same in every format.  JSON's rule sits in one place, where
render dresses a piece's texts: each text gets its column's quoted name
as key, every quantity name is quoted, and so are the texts of
non-finite floats, since JSON has no infinities: they appear as the
strings "inf", "-inf" or "nan".  CSV prints every text as it is, and a
table pads it to its column's width.
"""

from __future__ import annotations

import json
import math
from itertools import chain, count, islice, repeat
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

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

# Rows per piece of rendered text, and per step of a csv or json render's
# formatting.  On a 2-core Xeon (Python 3.11, numpy 2.4), one 2,000-step
# example2 JSON sweep (22,000 rows) with stdout captured in a StringIO
# peaked in a fresh interpreter (ru_maxrss, median of 21) at 36.4 MB with
# 512 rows a piece, 37.2 MB with 1024, 38.5 MB with 2048 and 40.4 MB with
# 4096; its render took (min of 40) 37.3, 34.5, 33.1 and 32.9 ms, since
# a piece costs about 0.1 ms whatever its rows (an 11-row piece 0.11 ms).
CHUNK_ROWS = 1024

# what FLOAT_SPEC gives a non-finite float (every nan prints "nan",
# whatever its sign or payload); JSON has no such numbers
_NON_FINITE = frozenset({"inf", "-inf", "nan"})

# the fields of every row, after the sweep column when there is one
_FIELDS = ("quantity", "analytic", "numeric", "residual", "tolerance", "pass")

# one piece's columns: each column's distinct texts (a table's as one
# "\n"-joined string) and each row's code, an index into them
_Columns = list[tuple[list[str] | str, np.ndarray]]
# what a format makes of column i's texts before its rows are joined
_Dress = Callable[[int, list[str] | str], list[str]]


def _distinct_floats(values: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The text of each distinct bit pattern, so -0.0 and 0.0 keep their own
    text, and each row's index into those texts."""
    bits, rows = np.unique(values.view(np.int64), return_inverse=True)
    return list(map(float.__format__, bits.view(np.float64).tolist(), repeat(FLOAT_SPEC))), rows


def _distinct_names(names: list[str]) -> tuple[list[str], np.ndarray]:
    """Each distinct name, in order of first appearance, and each row's index
    into them."""
    distinct = dict.fromkeys(names)
    if len(distinct) == len(names):
        # each row its own name, as deriv's per-node rows are
        return names, np.arange(len(names))
    index = dict(zip(distinct, count()))
    return list(index), np.fromiter(map(index.__getitem__, names), np.intp, len(names))


def _piece(batch: RecordBatch, start: int) -> _Columns:
    """One column per field of rows start to start + CHUNK_ROWS: its
    distinct texts and each row's code into them, of the narrowest
    unsigned type that holds the count of texts."""
    rows = slice(start, start + CHUNK_ROWS)
    fields = [] if batch.sweep is None else [_distinct_floats(batch.sweep[1][rows])]
    fields.append(_distinct_names(batch.quantities[rows]))
    for field in ("analytic", "numeric", "residual", "tolerance"):
        fields.append(_distinct_floats(getattr(batch, field)[rows]))
    flags, passed = np.unique(batch.passed[rows], return_inverse=True)
    fields.append(([("false", "true")[f] for f in flags.tolist()], passed))
    return [(texts, codes.astype(np.min_scalar_type(len(texts)))) for texts, codes in fields]


def _lines(columns: _Columns, dress: _Dress, sep: str) -> list[str]:
    """Each row of one piece, its dressed texts joined by sep."""
    cells = [
        np.array(dress(i, texts), dtype=object)[codes].tolist()
        for i, (texts, codes) in enumerate(columns)
    ]
    return list(map(sep.join, zip(*cells)))


# Each piece below is built by one join, so its text is not copied again
# to add its ends.


def _text_pieces(
    top: list[str], pieces: Iterable[_Columns], dress: _Dress, sep: str
) -> Iterator[str]:
    yield "\n".join([*top, ""])
    for columns in pieces:
        lines = _lines(columns, dress, sep)
        lines.append("")
        yield "\n".join(lines)


def _json_pieces(pieces: Iterable[_Columns], dress: _Dress) -> Iterator[str]:
    # each row is one object whose first pair is the schema version
    opening = f'  {{"schema_version": {json.dumps(SCHEMA_VERSION)}, '
    before = "[\n"
    for columns in pieces:
        lines = _lines(columns, dress, ", ")
        lines[0] = before + opening + lines[0]
        lines[-1] += "}"
        yield ("},\n" + opening).join(lines)
        before = ",\n"
    yield "[]\n" if before == "[\n" else "\n]\n"


def render(batch: RecordBatch, output_format: str) -> Iterator[str]:
    """The text of batch as a "table", "csv" or "json", in pieces of at most
    CHUNK_ROWS rows.

    The format is checked, and the first piece's texts formatted, before
    this returns.  A csv or json piece's texts are formatted when the
    piece is asked for and dropped once it is joined.  A table formats
    every piece first, since each text sets its column's width, keeps a
    piece's column texts as one "\n"-joined string until then, and pads
    them as it joins that piece.
    """
    if output_format not in ("table", "csv", "json"):
        raise ValueError(f"output format must be table, csv or json, got {output_format!r}")
    header = list(_FIELDS) if batch.sweep is None else [batch.sweep[0], *_FIELDS]
    pieces = map(_piece, repeat(batch), range(0, len(batch), CHUNK_ROWS))
    if output_format == "table":
        widths, joined = list(map(len, header)), []
        for columns in pieces:
            widths = [max([w, *map(len, texts)]) for w, (texts, _) in zip(widths, columns)]
            # until the piece is padded, a column's texts are one string, not
            # one object each; no text holds a "\n"
            joined.append([("\n".join(texts), codes) for texts, codes in columns])

        def pad(i: int, texts: str) -> list[str]:
            # the first column to the left, the others to the right
            return list(map(str.rjust if i else str.ljust, texts.split("\n"), repeat(widths[i])))

        top = ["  ".join(map(str.ljust, header, widths)).rstrip()]
        top.append("  ".join("-" * w for w in widths))
        return _text_pieces(top, joined, pad, "  ")
    # the first piece now, so that a failure in formatting it comes before
    # the caller opens where the text goes
    pieces = chain(list(islice(pieces, 1)), pieces)
    if output_format == "csv":
        top = [f"# schema_version={SCHEMA_VERSION}", ",".join(header)]
        return _text_pieces(top, pieces, lambda i, texts: texts, ",")
    keys = [f"{json.dumps(heading)}: " for heading in header]
    names = len(header) - len(_FIELDS)  # the quantity column

    def pairs(i: int, texts: list[str]) -> list[str]:
        # every name is quoted, and so is every non-finite float
        return [keys[i] + (json.dumps(t) if i == names or t in _NON_FINITE else t) for t in texts]

    return _json_pieces(pieces, pairs)


def format_table(batch: RecordBatch) -> str:
    return "".join(render(batch, "table"))


def format_csv(batch: RecordBatch) -> str:
    return "".join(render(batch, "csv"))


def format_json(batch: RecordBatch) -> str:
    return "".join(render(batch, "json"))
