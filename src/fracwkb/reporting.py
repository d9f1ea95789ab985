"""Verification records and deterministic table/CSV/JSON rendering.

A check returns ReportRecords, one checked quantity each.  The
formatters take one RecordBatch: rows held as columns (names in a list;
analytic, numeric and tolerance values in float arrays; an optional
leading sweep column), with residual and pass computed once per batch.
Each formatter renders one text column per field.

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


def _floats(values: np.ndarray) -> list[str]:
    return list(map(format, values.tolist(), repeat(_FLOAT_SPEC)))


def _repeated_floats(values: np.ndarray) -> list[str]:
    """_floats of a column that repeats values in runs, formatting each run once."""
    if not values.size:
        return []
    # runs of equal bit patterns, so -0.0 and 0.0 keep their own text
    bits = values.view(np.int64)
    starts = np.flatnonzero(np.r_[True, bits[1:] != bits[:-1]])
    counts = np.diff(np.append(starts, values.size)).tolist()
    column: list[str] = []
    for text, count in zip(_floats(values[starts]), counts):
        column += [text] * count
    return column


# JSON text of a non-finite float: its float text as a string
_JSON_NONFINITE = {text: json.dumps(text) for text in ("inf", "-inf", "nan")}


def _columns(batch: RecordBatch, as_json: bool = False) -> tuple[list[str], list[list[str]]]:
    """Header and one text column per field; as_json gives JSON values."""
    header = ["quantity", "analytic", "numeric", "residual", "tolerance", "pass"]
    names = batch.quantities
    floats = [_floats(batch.analytic), _floats(batch.numeric), _floats(batch.residual)]
    floats.append(_repeated_floats(batch.tolerance))
    if batch.sweep is not None:
        header.insert(0, batch.sweep[0])
        floats.insert(0, _repeated_floats(batch.sweep[1]))
    if as_json:
        names = [json.dumps(name) for name in names]
        floats = [list(map(_JSON_NONFINITE.get, text, text)) for text in floats]
    passed = [("false", "true")[p] for p in batch.passed.tolist()]
    # the sweep column, if any, then quantity, the four floats and pass
    return header, floats[:-4] + [names] + floats[-4:] + [passed]


def format_table(batch: RecordBatch) -> str:
    header, columns = _columns(batch)
    widths = [max(len(h), max(map(len, col), default=0)) for h, col in zip(header, columns)]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    # first column left-justified, the others right-justified; the last
    # is the pass column, so no row ends in blanks
    row = "  ".join([f"%-{widths[0]}s"] + [f"%{w}s" for w in widths[1:]])
    lines.extend(map(row.__mod__, zip(*columns)))
    return "\n".join(lines) + "\n"


def format_csv(batch: RecordBatch) -> str:
    header, columns = _columns(batch)
    lines = [f"# schema_version={SCHEMA_VERSION}", ",".join(header)]
    lines.extend(map(",".join, zip(*columns)))
    return "\n".join(lines) + "\n"


def format_json(batch: RecordBatch) -> str:
    if not len(batch):
        return "[]\n"
    header, columns = _columns(batch, as_json=True)
    pairs = [f'"schema_version": {json.dumps(SCHEMA_VERSION)}']
    pairs += [json.dumps(key).replace("%", "%%") + ": %s" for key in header]
    row = "  {" + ", ".join(pairs) + "}"
    return "[\n" + ",\n".join(map(row.__mod__, zip(*columns))) + "\n]\n"
