import json
import math

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from fracwkb import reporting
from fracwkb.reporting import (
    INFORMATIONAL,
    RecordBatch,
    ReportRecord,
    format_csv,
    format_json,
    format_table,
)


def _batch(*records, sweep=None):
    # zip(*rows) gives no columns at all for zero rows
    return RecordBatch(*(zip(*records) if records else ((),) * 4), sweep)


def test_record_residual_and_pass():
    batch = _batch(
        ReportRecord("x", 1.0, 1.25, 0.5),
        ReportRecord("x", 1.0, 2.0, 0.5),
        # boundary counts as passing
        ReportRecord("x", 1.0, 1.5, 0.5),
    )
    assert batch.residual.tolist() == [0.25, 1.0, 0.5]
    assert batch.passed.tolist() == [True, False, True]


def test_record_rejects_unsafe_names():
    for name in ("a,b", "a\nb"):
        with pytest.raises(ValueError, match="CSV-safe"):
            _batch(ReportRecord(name, 0.0, 0.0, 1.0))
        with pytest.raises(ValueError, match="CSV-safe"):
            RecordBatch(["ok", name], [0.0, 0.0], [0.0, 0.0], [1.0, 1.0])


@pytest.mark.parametrize(
    "columns, message",
    [
        # a failing second record would vanish from the output
        (
            (["a"], [1.0, 2.0], [1.0, 5.0], [0.1, 0.1]),
            r"one value per quantity \(1\), got analytic 2, numeric 2, tolerance 2$",
        ),
        # b would vanish, its values made up by broadcasting
        (
            (["a", "b"], [1.0], [1.0], [0.1]),
            r"\(2\), got analytic 1, numeric 1, tolerance 1$",
        ),
        (
            (["a", "b"], [1.0, 1.0], [1.0, 1.0], [0.1, 0.1], ("e1", [0.5])),
            r"\(2\), got analytic 2, numeric 2, tolerance 2, sweep 'e1' 1$",
        ),
        ((["a"], 1.0, 1.0, 0.1), r"\(1\), got analytic \(\), numeric \(\), tolerance \(\)$"),
    ],
    ids=["values_past_the_names", "names_past_the_values", "short_sweep", "scalar_values"],
)
def test_record_batch_rejects_columns_of_unequal_length(columns, message):
    with pytest.raises(ValueError, match=message):
        RecordBatch(*columns)


def test_informational_rows_always_pass():
    # an infinite residual, and inf against inf, whose residual is nan
    batch = _batch(
        ReportRecord("node", math.inf, 0.0, INFORMATIONAL),
        ReportRecord("node", math.inf, math.inf, INFORMATIONAL),
    )
    assert batch.residual[0] == math.inf
    assert math.isnan(batch.residual[1])
    assert batch.passed.tolist() == [True, True]


def test_format_csv_17_digits():
    # every float is rendered with 17 significant digits
    batch = _batch(ReportRecord("x", 1.0 / 3.0, 1e-12, math.inf), ReportRecord("y", 2.0, 2.0, 1.0))
    rows = [line.split(",") for line in format_csv(batch).splitlines()[2:]]
    assert rows[0][1:3] == ["0.33333333333333331", "9.9999999999999998e-13"]
    assert rows[0][4] == "inf" and rows[1][1:5] == ["2", "2", "0", "1"]


def test_table_layout():
    batch = _batch(ReportRecord("alpha", 1.0, 1.0, 1e-6), ReportRecord("b", 2.0, 3.0, 0.5))
    lines = format_table(batch).splitlines()
    assert lines[0].split() == ["quantity", "analytic", "numeric", "residual", "tolerance", "pass"]
    assert set(lines[1]) <= {"-", " "}
    assert lines[2].startswith("alpha")
    assert lines[2].rstrip().endswith("true")
    assert lines[3].rstrip().endswith("false")


def test_table_sweep_column():
    batch = _batch(ReportRecord("p", 1.0, 1.0, 1e-6), sweep=("e1", [0.5]))
    lines = format_table(batch).splitlines()
    assert lines[0].split()[0] == "e1"
    assert lines[2].split()[0] == "0.5"


def test_csv_schema_and_fields():
    batch = _batch(ReportRecord("p_alpha", 2.0, 2.0 + 1e-9, 1e-6))
    lines = format_csv(batch).splitlines()
    assert lines[0] == "# schema_version=1"
    assert lines[1] == "quantity,analytic,numeric,residual,tolerance,pass"
    fields = lines[2].split(",")
    assert len(fields) == 6
    assert fields[0] == "p_alpha"
    assert fields[1] == "2"
    assert fields[5] == "true"
    assert float(fields[3]) == pytest.approx(1e-9)


def test_csv_sweep_column():
    batch = _batch(ReportRecord("p", 4.0, 4.0, 1e-6), sweep=("e1", [8.0]))
    lines = format_csv(batch).splitlines()
    assert lines[1] == "e1,quantity,analytic,numeric,residual,tolerance,pass"
    assert lines[2].split(",")[0] == "8"


def test_json_parses_and_preserves_values():
    batch = _batch(
        ReportRecord("ok", 1.0 / 3.0, 1.0 / 3.0, 1e-12),
        ReportRecord("divergent", math.inf, math.inf, INFORMATIONAL),
    )
    data = json.loads(format_json(batch))
    assert [obj["quantity"] for obj in data] == ["ok", "divergent"]
    assert data[0]["schema_version"] == "1"
    assert data[0]["analytic"] == 1.0 / 3.0
    assert data[0]["pass"] is True
    # non-finite floats arrive as strings
    assert data[1]["analytic"] == "inf"
    assert data[1]["tolerance"] == "inf"
    assert data[1]["pass"] is True


def test_json_sweep_key_and_empty():
    data = json.loads(format_json(_batch(ReportRecord("p", 1.0, 1.0, 1e-6), sweep=("e1", [0.5]))))
    assert data[0]["e1"] == 0.5
    assert json.loads(format_json(_batch())) == []


def test_render_rejects_an_unknown_format():
    with pytest.raises(ValueError, match="got 'xml'"):
        reporting.render(_batch(ReportRecord("q", 1.0, 1.0, 1e-3)), "xml")


def test_formats_are_deterministic():
    batch = _batch(ReportRecord("q", 1.0 / 7.0, 2.0 / 7.0, 1e-3))
    assert format_csv(batch) == format_csv(batch)
    assert format_json(batch) == format_json(batch)
    assert format_table(batch) == format_table(batch)


# ------------------------------------- batch against per-row reference

# The per-row renderers below are the reference the columnar formatters
# are held to: one format(x, ".17g") call per cell, and residual and pass
# computed per row from the ReportRecord's fields.

_HEADER = ("quantity", "analytic", "numeric", "residual", "tolerance", "pass")


def _residual(r):
    return abs(r.analytic - r.numeric)


def _passes(r):
    return math.isinf(r.tolerance) or _residual(r) <= r.tolerance


def _reference_cells(records, sweep):
    prefixes = [()] * len(records) if sweep is None else [(format(v, ".17g"),) for v in sweep[1]]
    return [
        prefix
        + (
            r.quantity,
            format(r.analytic, ".17g"),
            format(r.numeric, ".17g"),
            format(_residual(r), ".17g"),
            format(r.tolerance, ".17g"),
            "true" if _passes(r) else "false",
        )
        for prefix, r in zip(prefixes, records)
    ]


def _reference_header(sweep):
    return ((sweep[0],) if sweep is not None else ()) + _HEADER


def _reference_table(records, sweep):
    header = _reference_header(sweep)
    body = _reference_cells(records, sweep)
    widths = [len(h) for h in header]
    for cells in body:
        widths = [max(w, len(c)) for w, c in zip(widths, cells)]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for cells in body:
        padded = [cells[0].ljust(widths[0])] + [c.rjust(w) for c, w in zip(cells[1:], widths[1:])]
        lines.append("  ".join(padded).rstrip())
    return "\n".join(lines) + "\n"


def _reference_csv(records, sweep):
    lines = ["# schema_version=1", ",".join(_reference_header(sweep))]
    lines += [",".join(cells) for cells in _reference_cells(records, sweep)]
    return "\n".join(lines) + "\n"


def _json_number(x):
    text = format(x, ".17g")
    return text if math.isfinite(x) else json.dumps(text)


def _reference_json(records, sweep):
    objects = []
    for i, r in enumerate(records):
        pairs = ['"schema_version": "1"']
        if sweep is not None:
            pairs.append(f"{json.dumps(sweep[0])}: {_json_number(sweep[1][i])}")
        pairs += [
            f'"quantity": {json.dumps(r.quantity)}',
            f'"analytic": {_json_number(r.analytic)}',
            f'"numeric": {_json_number(r.numeric)}',
            f'"residual": {_json_number(_residual(r))}',
            f'"tolerance": {_json_number(r.tolerance)}',
            f'"pass": {"true" if _passes(r) else "false"}',
        ]
        objects.append("  {" + ", ".join(pairs) + "}")
    if not objects:
        return "[]\n"
    return "[\n" + ",\n".join(objects) + "\n]\n"


_VALUES = st.floats() | st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -2.5e-310, 1e308]
)
_TOLERANCES = st.floats(allow_nan=False, allow_infinity=False) | st.just(INFORMATIONAL)
_NAMES = st.text(st.characters(blacklist_characters=",\n"), max_size=8)


@st.composite
def _records_and_sweep(draw):
    records = draw(
        st.lists(st.builds(ReportRecord, _NAMES, _VALUES, _VALUES, _TOLERANCES), max_size=8)
    )
    if not draw(st.booleans()):
        return records, None
    # a few distinct sweep values, each repeated over several rows
    pool = draw(st.lists(_VALUES, min_size=1, max_size=3))
    values = [draw(st.sampled_from(pool)) for _ in records]
    return records, (draw(st.sampled_from(["e1", "q", "fd_step", "%s"])), values)


# Rows per rendered piece: the module's own, and sizes small enough
# that a few rows cross piece boundaries.
_CHUNKS = st.sampled_from([1, 2, 3, reporting.CHUNK_ROWS])


def _rows(count):
    # distinct names; the even rows fail, so the failures cross pieces too
    return [ReportRecord(f"r{i}", float(i), i + 0.5, 0.25 + i % 2) for i in range(count)]


@settings(max_examples=100, deadline=None)
@given(_records_and_sweep(), _CHUNKS)
@example(  # adjacent 0.0 and -0.0 print differently; inf - inf is nan
    (
        [
            ReportRecord("a", 0.0, -0.0, 0.0),
            ReportRecord("b", math.inf, math.inf, -0.0),
            ReportRecord("c", math.inf, math.inf, INFORMATIONAL),
        ],
        ("q", [-0.0, 0.0, 0.0]),
    ),
    2,
)
# 0, 1, k * chunk and k * chunk + 1 rows
@example(([], None), 2)
@example((_rows(1), ("e1", [0.5])), 2)
@example((_rows(4), None), 2)
@example((_rows(5), ("e1", [0.5, -0.0, 0.5, 1.0, 1.0])), 2)
@example((_rows(6), None), 3)
@example((_rows(7), ("q", [0.0] * 7)), 3)
@example((_rows(3), None), 1)
def test_batch_matches_per_row_records(records_and_sweep, chunk):
    records, sweep = records_and_sweep
    batch = _batch(*records, sweep=sweep)
    assert len(batch) == len(records)
    np.testing.assert_array_equal(batch.residual, [_residual(r) for r in records])
    assert batch.passed.tolist() == [_passes(r) for r in records]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reporting, "CHUNK_ROWS", chunk)
        assert format_table(batch) == _reference_table(records, sweep)
        assert format_csv(batch) == _reference_csv(records, sweep)
        assert format_json(batch) == _reference_json(records, sweep)
        failures = batch.failures()
        assert format_table(failures) == _reference_table(
            [r for r in records if not _passes(r)], None
        )


# ------------------------------------------- long columns of repeats

# a nan with a payload and the sign bit: a bit pattern of its own that
# still prints "nan"
_PAYLOAD_NAN = float(np.array([0xFFF8000000000001], dtype=np.uint64).view(np.float64)[0])
_REPEATED_POOL = [
    0.0, -0.0, math.nan, -math.nan, _PAYLOAD_NAN, math.inf, -math.inf,
    5e-324, -2.5e-310, 2.2250738585072014e-308, 1.0, 1.0 / 3.0, -1e-12,
]


def _cycled_runs(draw, pool, size):
    """size cells cycling through runs of pool values, so values repeat
    both in runs and far apart."""
    runs = draw(
        st.lists(st.tuples(st.sampled_from(pool), st.integers(1, 30)), min_size=1, max_size=12)
    )
    cells = [value for value, count in runs for _ in range(count)]
    return [cells[i % len(cells)] for i in range(size)]


@st.composite
def _repeated_records_and_sweep(draw):
    pool = draw(st.lists(st.sampled_from(_REPEATED_POOL) | st.floats(), min_size=1, max_size=6))
    size = draw(st.integers(0, 300))
    names = _cycled_runs(draw, draw(st.lists(_NAMES, min_size=1, max_size=4)), size)
    columns = [_cycled_runs(draw, pool, size) for _ in range(3)]
    records = list(map(ReportRecord, names, *columns))
    if not draw(st.booleans()):
        return records, None
    return records, (draw(st.sampled_from(["e1", "q"])), _cycled_runs(draw, pool, size))


# no shrink phase: shrinking a failing column of hundreds of rows took
# over six minutes, and the unshrunk example already shows the bad cell
@settings(max_examples=60, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(_repeated_records_and_sweep(), _CHUNKS)
@example(  # 0.0 and -0.0 apart in each column, nans of three bit patterns
    (
        [
            ReportRecord("a", value, -value, value)
            for value in [0.0, math.nan, -0.0, _PAYLOAD_NAN, 1.0, -math.nan, 0.0] * 20
        ],
        ("q", [-0.0, 0.0, 5e-324, -0.0] * 35),
    ),
    3,
)
# 0, 1, k * chunk and k * chunk + 1 rows
@example(([], ("e1", [])), 3)
@example(([ReportRecord("a", math.nan, -0.0, 1.0)], ("e1", [-0.0])), 3)
@example(([ReportRecord("a", 0.0, -0.0, 1.0)] * 6, ("e1", [0.0, -0.0] * 3)), 2)
@example(([ReportRecord("a", -0.0, math.inf, 0.0)] * 7, None), 2)
@example(([ReportRecord("a", 1.0, 1.0, 0.0)] * 9, ("q", [1.0] * 9)), 3)
@example(([ReportRecord("a", 1.0, math.nan, 0.0)] * 10, None), 3)
def test_repeated_columns_match_per_cell_format(records_and_sweep, chunk):
    # every cell of a long column drawn from a few values is the
    # .17g text of its own value, whatever its bit pattern
    records, sweep = records_and_sweep
    batch = _batch(*records, sweep=sweep)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reporting, "CHUNK_ROWS", chunk)
        assert format_csv(batch) == _reference_csv(records, sweep)
        assert format_table(batch) == _reference_table(records, sweep)
        assert format_json(batch) == _reference_json(records, sweep)
