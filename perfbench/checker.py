"""Independent check of one `fracwkb` CLI call's output.

The checker reads only the argv, the exit code and the captured stdout.
It imports nothing from fracwkb: the power-rule oracle here uses
math.gamma, so a defect in the program's own gamma cannot hide itself.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass

# Relative agreement required between a deriv row's analytic value and
# the power rule recomputed here with math.gamma.
ANALYTIC_RTOL = 1e-10
# max_interior_error must equal the largest emitted interior residual;
# allow only last-digit differences.
MAX_ERROR_RTOL = 1e-12
INTERIOR_MARGIN = 0.1
DERIV_EXPONENTS = {"const": 0, "x": 1, "x2": 2, "x3": 3}
DEFAULT_ORDER = 1.5
# One model evaluation emits 4 records, plus 7 wave-field records when
# both slope momenta are positive (always so in the sweep ranges used).
SWEEP_RECORDS_PER_STEP = 11

# Record-name prefixes of the eight verification check families.
VERIFY_FAMILIES = {
    "kernel_oracle": re.compile(r"kernel_(error|order)\["),
    "integer_reduction": re.compile(r"integer_reduction\["),
    "hj_identity": re.compile(r"hj_residual\["),
    "momentum_eigenvalues": re.compile(r"example[12]\.p_(alpha|beta)\["),
    "energy_eigenvalues": re.compile(r"example[12]\.energy(\[|_ratio$)"),
    "probability_law": re.compile(r"probability_law\["),
    "classical_limit": re.compile(r"classical\."),
    "imaginary_parts": re.compile(r"imag_part_max$"),
}


@dataclass(frozen=True)
class Record:
    sweep: float | None
    quantity: str
    analytic: float
    numeric: float
    residual: float
    tolerance: float
    passed: bool


class CheckError(Exception):
    """The output does not agree with itself, the argv or the oracle."""


def _flags(argv: list[str]) -> dict[str, str]:
    return {argv[i]: argv[i + 1] for i in range(1, len(argv) - 1) if argv[i].startswith("--")}


def _bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise CheckError(f"pass column must be true or false, got {text!r}")
    return text == "true"


def _record(cells: list, swept: bool) -> Record:
    if len(cells) != 6 + swept:
        raise CheckError(f"expected {6 + swept} columns, got {cells!r}")
    sweep = float(cells[0]) if swept else None
    quantity, analytic, numeric, residual, tolerance, passed = cells[swept:]
    return Record(
        sweep, quantity, float(analytic), float(numeric), float(residual),
        float(tolerance), _bool(passed),
    )


def parse(text: str, fmt: str, sweep_param: str | None) -> list[Record]:
    """Records of a csv, table or json report."""
    swept = sweep_param is not None
    if fmt == "json":
        keys = ("quantity", "analytic", "numeric", "residual", "tolerance")
        return [
            _record(
                ([obj[sweep_param]] if swept else [])
                + [obj[k] for k in keys]
                + [json.dumps(obj["pass"])],
                swept,
            )
            for obj in json.loads(text)
        ]
    lines = text.splitlines()
    if fmt == "csv":
        if not lines or not lines[0].startswith("# schema_version="):
            raise CheckError("csv output lacks the schema line")
        return [_record(line.split(","), swept) for line in lines[2:]]
    # table: columns are separated by at least two spaces; quantity
    # names contain at most single spaces
    return [_record(re.split(r"\s{2,}", line.strip()), swept) for line in lines[2:]]


def _same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def _check_records(records: list[Record], exit_code: int) -> None:
    for r in records:
        if not _same(r.residual, abs(r.analytic - r.numeric)):
            raise CheckError(f"{r.quantity}: residual {r.residual!r} != |analytic - numeric|")
        expected = math.isinf(r.tolerance) or r.residual <= r.tolerance
        if r.passed != expected:
            raise CheckError(f"{r.quantity}: pass={r.passed} disagrees with residual and tolerance")
    want = 0 if all(r.passed for r in records) else 1
    if exit_code != want:
        raise CheckError(f"exit code {exit_code} disagrees with the pass column (expected {want})")


def power_rule(exponent: int, order: float, offset: float) -> float:
    """Closed-form Riemann-Liouville derivative of offset**exponent."""
    pole = exponent + 1.0 - order
    if pole <= 0.0 and pole == math.floor(pole):
        return 0.0
    power = exponent - order
    if offset == 0.0 and power < 0.0:
        return math.inf
    return math.gamma(exponent + 1.0) / math.gamma(pole) * offset**power


def _check_deriv(argv: list[str], records: list[Record]) -> None:
    flags = _flags(argv)
    a, b, count = flags["--grid"].split(",")
    a, b, count = float(a), float(b), int(count)
    left = flags.get("--side", "left") == "left"
    order = float(flags.get("--alpha" if left else "--beta", DEFAULT_ORDER))
    exponent = DERIV_EXPONENTS[flags.get("--function", "x")]
    rows = [r for r in records if r.quantity.startswith("D[x=")]
    if len(rows) != count + 1:
        raise CheckError(f"{len(rows)} node rows for a grid of {count + 1} nodes")
    pad = INTERIOR_MARGIN * (b - a)
    interior = []
    for r in rows:
        x = float(r.quantity[4:-1])
        ref = power_rule(exponent, order, x - a if left else b - x)
        if math.isfinite(ref) and ref != 0.0:
            ok = abs(r.analytic - ref) <= ANALYTIC_RTOL * abs(ref)
        else:
            ok = r.analytic == ref
        if not ok:
            raise CheckError(f"{r.quantity}: analytic {r.analytic!r} != power rule {ref!r}")
        if a + pad <= x <= b - pad:
            interior.append(r.residual)
    summary = {r.quantity: r for r in records if not r.quantity.startswith("D[x=")}
    if set(summary) != {"max_interior_error", "observed_order"}:
        raise CheckError(f"unexpected summary records {sorted(summary)}")
    reported = summary["max_interior_error"].numeric
    if not math.isclose(reported, max(interior), rel_tol=MAX_ERROR_RTOL, abs_tol=0.0):
        raise CheckError(f"max_interior_error {reported!r} != max interior residual {max(interior)!r}")


def _check_sweep(argv: list[str], records: list[Record]) -> None:
    flags = _flags(argv)
    start, stop, steps = float(flags["--from"]), float(flags["--to"]), int(flags["--steps"])
    if steps == 1:
        values = [start]
    else:
        width = (stop - start) / (steps - 1)
        values = [start + i * width for i in range(steps)]
    if len(records) != SWEEP_RECORDS_PER_STEP * steps:
        raise CheckError(f"{len(records)} rows for {steps} steps")
    for i, r in enumerate(records):
        if r.sweep != values[i // SWEEP_RECORDS_PER_STEP]:
            raise CheckError(f"row {i}: swept value {r.sweep!r} != {values[i // SWEEP_RECORDS_PER_STEP]!r}")


def _check_verify(records: list[Record]) -> None:
    missing = [
        name for name, pattern in VERIFY_FAMILIES.items()
        if not any(pattern.match(r.quantity) for r in records)
    ]
    if missing:
        raise CheckError(f"no records from check families {missing}")


def check(argv: list[str], exit_code: int, stdout: str) -> list[Record]:
    """Parse and check one call's output; raises CheckError on a mismatch.

    Exit code 2 (invalid input) is left to the caller: there is no
    report to check.
    """
    command = argv[0]
    flags = _flags(argv)
    fmt = flags.get("--format", "table")
    try:
        records = parse(stdout, fmt, flags.get("--param") if command == "sweep" else None)
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckError(f"unparseable {fmt} output: {exc!r}") from None
    if not records:
        raise CheckError("no records")
    _check_records(records, exit_code)
    if command == "deriv":
        _check_deriv(argv, records)
    elif command == "sweep":
        _check_sweep(argv, records)
    elif command == "verify":
        _check_verify(records)
    return records
