"""Verification records, report formats, and parameter sweeps.

Everything the command line prints is a RecordBatch: ReportRecord
rows held as columns.  This script assembles a few records by hand,
renders their batch in all three formats, then drives the CLI entry
point in-process the way a shell user would.  Equivalent shell
commands are shown before each call.

Run:  python3 demos/05_reports_and_sweeps.py
"""

import math
import tempfile
from pathlib import Path

from fracwkb import RecordBatch, ReportRecord, render
from fracwkb.cli import main

print("== hand-built records, three renderings ==")
rows = RecordBatch.from_records(
    [
        ReportRecord("p_alpha", 2.0, 2.0 + 1.3e-8, 1e-6),
        ReportRecord("probability", 1.0, 1.0, 1e-14),
        ReportRecord("divergent_node", math.inf, 64.0, math.inf),
    ]
)
print("".join(render(rows, "table")))
print("".join(render(rows, "csv")))
print("".join(render(rows, "json")))

print("== model records: fracwkb example2 --q 1 ==")
ret = main(["example2", "--q", "1"])
print(f"(exit code {ret})")
print()

print("== sweeping the energy: fracwkb sweep --param e1 --values 0.5,2,8 --format csv ==")
ret = main(["sweep", "--param", "e1", "--values", "0.5,2,8", "--format", "csv"])
print(f"(exit code {ret})")
print()

print("== coarse stencils fail honestly: fracwkb sweep --param fd_step ... ==")
# the 1e-6 eigenvalue tolerance assumes fd_step = 1e-4; a 100x coarser
# stencil misses it and the exit code says so
ret = main(["sweep", "--param", "fd_step", "--values", "1e-2,1e-4"])
print(f"(exit code {ret})")
print()

print("== full verification suite: fracwkb verify --out <dir>/verify.csv ==")
# a private directory, so concurrent runs never share the report file
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "verify.csv"
    ret = main(["verify", "--format", "csv", "--out", str(path)])
    lines = path.read_text(encoding="utf-8").splitlines()
print(f"exit code {ret}; {len(lines) - 2} records written to the report file")
print("first rows:")
for line in lines[:5]:
    print(f"  {line}")
