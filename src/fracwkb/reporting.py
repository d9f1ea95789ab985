"""Verification records and deterministic table/CSV/JSON rendering.

A check returns ReportRecords, one checked quantity each.  The
formatters take one RecordBatch: rows held as columns (names in a list;
analytic, numeric and tolerance values in float arrays; an optional
leading sweep column), with residual and pass computed once per batch.
Each formatter renders one text column per field, formatting each
distinct value of a column (by bit pattern) once.

All floats are rendered with 17 significant digits so a fixed
configuration always produces byte-identical output.  JSON cannot carry
infinities, so non-finite values appear there as the strings "inf",
"-inf" or "nan"; CSV and tables print them directly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import repeat
from typing import Sequence

import numpy as np

__all__ = [
    "RecordBatch",
    "ReportRecord",
    "format_float",
    "format_table",
    "format_csv",
    "format_json",
]

SCHEMA_VERSION = "1"

# Informational rows (per-node derivative dumps) use an infinite
# tolerance: they are data, not pass/fail checks, and never gate the
# exit code.
INFORMATIONAL = math.inf


def _check_names(names: list[str]) -> None:
    joined = "".join(names)
    if "," in joined or "\n" in joined:
        bad = next(name for name in names if "," in name or "\n" in name)
        raise ValueError(f"quantity name must be CSV-safe, got {bad!r}")


@dataclass(frozen=True)
class ReportRecord:
    """One checked quantity: analytic target, numeric value, tolerance."""

    quantity: str
    analytic: float
    numeric: float
    tolerance: float

    def __post_init__(self) -> None:
        _check_names([self.quantity])

    @property
    def residual(self) -> float:
        return abs(self.analytic - self.numeric)

    @property
    def passed(self) -> bool:
        # informational rows never gate, even when the residual is nan
        # (both values infinite, e.g. a divergent endpoint)
        if math.isinf(self.tolerance):
            return True
        return self.residual <= self.tolerance


class RecordBatch:
    """Records as columns, with residual and passed computed once.

    sweep, when given, is a (parameter name, value per row) pair shown
    as a leading column.  residual and passed equal, row by row, those
    of the ReportRecord with the same fields.
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
        _check_names(self.quantities)
        self.analytic = np.asarray(analytic, dtype=np.float64)
        self.numeric = np.asarray(numeric, dtype=np.float64)
        self.tolerance = np.asarray(tolerance, dtype=np.float64)
        self.sweep = None if sweep is None else (sweep[0], np.asarray(sweep[1], np.float64))
        # inf - inf gives nan and a huge difference inf, as in the scalar
        # path, without a warning
        with np.errstate(invalid="ignore", over="ignore"):
            self.residual = np.abs(self.analytic - self.numeric)
        self.passed = np.isinf(self.tolerance) | (self.residual <= self.tolerance)

    @classmethod
    def from_records(
        cls, records: Sequence[ReportRecord], sweep: tuple[str, Sequence[float]] | None = None
    ) -> RecordBatch:
        return cls(
            [r.quantity for r in records],
            [r.analytic for r in records],
            [r.numeric for r in records],
            [r.tolerance for r in records],
            sweep,
        )

    def __len__(self) -> int:
        return len(self.quantities)

    def failures(self) -> RecordBatch:
        """The rows that did not pass, without the sweep column."""
        failed = ~self.passed
        names = [name for name, f in zip(self.quantities, failed.tolist()) if f]
        return RecordBatch(
            names, self.analytic[failed], self.numeric[failed], self.tolerance[failed]
        )


_FLOAT_SPEC = ".17g"


def format_float(x: float) -> str:
    return format(x, _FLOAT_SPEC)


def _distinct_floats(values: np.ndarray, as_json: bool) -> tuple[list[str], np.ndarray]:
    """format_float of each distinct bit pattern, so -0.0 and 0.0 keep their
    own text, and each row's index into those texts; as_json gives JSON values."""
    bits, rows = np.unique(values.view(np.int64), return_inverse=True)
    floats = bits.view(np.float64).tolist()
    texts = list(map(float.__format__, floats, repeat(_FLOAT_SPEC)))
    if as_json:
        texts = [text if math.isfinite(x) else json.dumps(text) for x, text in zip(floats, texts)]
    return texts, rows


def _columns(
    batch: RecordBatch, as_json: bool = False, justify: bool = False
) -> tuple[list[str], list[list[str]]]:
    """Header and one text column per field; as_json gives JSON "key": value
    pairs, and justify pads each heading and text to its column's width, the
    texts of the first column to the left and the others to the right."""
    header: list[str] = []
    columns: list[list[str]] = []

    def add(heading: str, texts: list[str], rows: np.ndarray | None = None) -> None:
        # a column from its distinct texts and each row's index into
        # them, or from its row texts when rows is None
        if justify:
            width = max([len(heading), *map(len, texts)])
            heading = heading.ljust(width)
            texts = list(map(str.rjust if columns else str.ljust, texts, repeat(width)))
        elif as_json and rows is not None:
            texts = list(map(f"{json.dumps(heading)}: ".__add__, texts))
        header.append(heading)
        columns.append(texts if rows is None else np.array(texts, dtype=object)[rows].tolist())

    if batch.sweep is not None:
        add(batch.sweep[0], *_distinct_floats(batch.sweep[1], as_json))
    names = batch.quantities
    if as_json:
        quoted = {name: '"quantity": ' + json.dumps(name) for name in set(names)}
        names = list(map(quoted.__getitem__, names))
    add("quantity", names)
    for field in ("analytic", "numeric", "residual", "tolerance"):
        add(field, *_distinct_floats(getattr(batch, field), as_json))
    flags, passed = np.unique(batch.passed, return_inverse=True)
    add("pass", [("false", "true")[f] for f in flags.tolist()], passed)
    return header, columns


def format_table(batch: RecordBatch) -> str:
    header, columns = _columns(batch, justify=True)
    lines = ["  ".join(header).rstrip(), "  ".join("-" * len(h) for h in header)]
    lines.extend(map("  ".join, zip(*columns)))
    return "\n".join(lines) + "\n"


def format_csv(batch: RecordBatch) -> str:
    header, columns = _columns(batch)
    lines = [f"# schema_version={SCHEMA_VERSION}", ",".join(header)]
    lines.extend(map(",".join, zip(*columns)))
    return "\n".join(lines) + "\n"


def format_json(batch: RecordBatch) -> str:
    if not len(batch):
        return "[]\n"
    _, columns = _columns(batch, as_json=True)
    # each row is one object whose first pair is the schema version
    opening = f'  {{"schema_version": {json.dumps(SCHEMA_VERSION)}, '
    rows = map(", ".join, zip(*columns))
    return "[\n" + opening + ("},\n" + opening).join(rows) + "}\n]\n"
