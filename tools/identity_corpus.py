"""Output-identity corpus: run a fixed argv list through the CLI and compare trees.

A refactor of fracwkb is shown correct by byte-identical output.  This
script runs one fixed, seeded list of argvs in-process through
fracwkb.cli.main and records, for each argv, the sha256 of stdout, the
stderr text, the exit code ("traceback" for a run that raises) and the
warnings raised, and for an argv that writes --out the sha256 of the
file it wrote.  It then runs each demos/*.py script and the python
block under "Library quickstart" in README.md in-process, as
tests/test_demos.py runs them, and records the same for each: the demos
and the quickstart call the library API that the argvs reach only
through the CLI.  Three last records hash the rows of
fracwkb.fracops.rl_derivative_rows on a block of several rows, stacked
into one array, and the per-row errors of
fracwkb.verification.power_kernel_check on a block of powers on both
sides, the values of fracwkb.fracops.rl_power_rule on float, 0-d and
array offsets, zero offsets at negative powers and pole orders included,
and the error of each order whose weights or step**-order overflow;
every column of fracwkb.wkb.evaluate_models on a block of rows at points no
argv reaches (SAMPLE_POINT is fixed), with the error of each row it
rejects, one call each; and what fracwkb.separate,
fracwkb.build_wavefunction and the three fracwkb.format_* functions
return, names no demo or quickstart calls.

    python3 tools/identity_corpus.py               # one JSON record per run
    python3 tools/identity_corpus.py --against REV

--against extracts src/, demos/ and README.md of the git revision REV
into a temporary directory with git archive, runs the corpus on that
tree and on this one, each in its own interpreter, and prints the
identical and differing counts and the first differences.  --src DIR
runs the corpus on the fracwkb package under DIR, and the demos and
README.md next to DIR, instead of this checkout's.

The list covers verify, example1 and example2 in every format; each
model flag, and each sweep parameter of each model, at 1, 0.5, 0, -1,
nan, inf, 1e308 and 1e-300, with and without zero energies, from a flag,
a --config line and a sweep value; sweeps with --tol bogus=1 and
--hbar=0; deriv on both sides for every built-in function over orders
0.3-3, 300.5, 2000 and 1e9 on grids of 64-4096 intervals, and over
orders 126.5 and 150 on 0,1,64, whose sums, power rule or refined
step**-order overflow, and order 1024 on 0,65536,256, whose refined
weights' absolute sum overflows where the refined step**-order
underflows; degenerate grids, grids that end short of b, and
grids whose refined nodes collapse or whose refined step underflows; the
other side's order; a bad order with --tol bogus=1; W slopes that
overflow or turn imaginary, momentum products that leave the float
range, alone or with a step check that would fail after theirs, and an
energy total that overflows under finite slopes; an energy past 1e6,
whose HJ residual sits under its rounding floor; known
tolerances set in and out of range, -0.0 among them, and one verify no
longer knows; malformed --tol entries and config lines, and a config
file that starts with a UTF-8 byte-order mark; numbers that do not
parse in --grid and --values, and config values their flag would not
parse; negative values in exponent form
and in comma lists, and -inf and -nan, which argparse alone takes for
flags; a grid with a node at a tenth of its width; every sweep-range
error, --values with a range flag included;
flags before the subcommand or of another one; no arguments, an
unknown subcommand, a help flag before a subcommand and a subcommand
name or help flag after one; deriv grids and sweeps
whose row counts land at the edges of a piece of rendered output, in
every format; sweeps of 96 values whose widest text in a column first
appears after the first piece of 1,024 rows, in every format; a deriv
whose float columns hold more than 65,536 distinct values; --help of the
top level and of each subcommand; and --out.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import itertools
import json
import math
import os
import random
import runpy
import subprocess
import sys
import tarfile
import tempfile
import warnings
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
SEED = 20261018
SHOWN = 10  # differences printed in full
WIDTH = "80"  # the terminal width argparse wraps help and usage text at

FORMATS = ("table", "csv", "json")
VALUES = ("1", "0.5", "0", "-1", "nan", "inf", "1e308", "1e-300")
MODEL_FLAGS = ("alpha", "beta", "e1", "e2", "q", "hbar", "fd_step")
SWEEP_PARAMS = ("alpha", "beta", "e1", "e2", "q", "fd_step")
COEFFICIENTS = ("c_alpha", "c_beta", "l_alpha", "l_beta", "v")
ZERO = ("--e1=0", "--e2=0")
DERIV_ORDERS = ("0.3", "0.5", "0.75", "1", "1.5", "1.9", "2", "2.5", "3", "300.5", "2000", "1e9")
DERIV_GRIDS = ("0,1,64", "0,1,256", "-1,2,1024", "0,1,4096")
# fracwkb.reporting.CHUNK_ROWS, the rows rendered per piece of output
CHUNK = 1024
EDGE_ROWS = (CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1)
# deriv --grid 0,1,N gives N + 3 rows
CHUNK_EDGE_GRIDS = tuple(f"0,1,{rows - 3}" for rows in EDGE_ROWS)
# (--to, --steps) of sweep --model custom --l-alpha -1 --param e1 --from 0
# giving EDGE_ROWS rows: a step keeps its 11 records when e1 > 0.5, and 4
# otherwise
CHUNK_EDGE_SWEEPS = (("4.75", "100"), ("20", "95"), ("9", "97"), ("11", "192"))
# (model, param, last value) of sweep --values 1,2,...,95,LAST: 1,056 rows,
# 11 a value, in which LAST's rows, from row 1,045 on, hold the widest
# text of the sweep column, and for e1 = 1e-300 of the analytic and
# residual columns too
LATE_WIDEST_SWEEPS = (("example1", "e1", "1e-300"), ("example1", "q", "1e-9"),
                      ("example2", "alpha", "1e300"))
# stands for the path of a file holding the run's config text
CONFIG = "CONFIG"
# stands for the path --out writes to
OUT = "OUT"


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def corpus() -> list[tuple[list[str], str | None]]:
    """(argv, config file text or None) pairs, the same on every call."""
    rng = random.Random(SEED)
    runs: list[tuple[list[str], str | None]] = []

    def add(*argv: str, config: str | None = None) -> None:
        runs.append(([*argv, "--config", CONFIG] if config else list(argv), config))

    for command, fmt in itertools.product(("verify", "example1", "example2"), FORMATS):
        add(command, "--format", fmt)
    for model, name, value, zero in itertools.product(
        ("example1", "example2"), MODEL_FLAGS, VALUES, ((), ZERO)
    ):
        add(model, f"{_flag(name)}={value}", *zero)
        if model == "example1":
            add(model, *zero, config=f"{name} = {value}\n")
            add(model, f"{_flag(name)}={value}", "--tol", "bogus=1", *zero)
    for model, param, zero in itertools.product(
        ("example1", "example2", "custom"), SWEEP_PARAMS, ((), ZERO)
    ):
        sweep = ("sweep", "--model", model, "--param", param)
        for value in VALUES:
            add(*sweep, f"--values={value}", *zero)
        add(*sweep, f"--values={','.join(VALUES)}", *zero)
        add(*sweep, "--values=1,2", "--tol", "bogus=1", *zero)
        add(*sweep, f"--values={','.join(VALUES)}", "--tol", "bogus=1", *zero)
        add(*sweep, "--values=1,2", "--hbar=0", *zero)
    for name, value in itertools.product(COEFFICIENTS, VALUES):
        add("sweep", "--model", "custom", f"{_flag(name)}={value}", "--param", "q",
            "--values=0,0.5")
    add("sweep", "--model", "custom", "--c-alpha", "2", "--v", "0.5", "--l-alpha", "0.25",
        "--param", "e1", "--from", "0", "--to", "2", "--steps", "50", "--format", "json")
    add("sweep", "--param", "e1", "--from=-0", "--to", "1", "--steps", "1", "--format", "csv")
    add("sweep", "--param", "q", "--from", "2", "--to", "1", "--steps", "1")

    for side, function, order, grid in itertools.product(
        ("left", "right"), ("const", "x", "x2", "x3"), DERIV_ORDERS, DERIV_GRIDS
    ):
        order_flag = "--alpha" if side == "left" else "--beta"
        add("deriv", "--side", side, "--function", function, f"{order_flag}={order}",
            f"--grid={grid}", "--format", rng.choice(FORMATS))
    # orders whose weights and step**-order stay finite on 0,1,64 but
    # whose sums or power rule overflow there, or whose step**-order
    # overflows only on the 4x refinement
    for side, function, order in itertools.product(
        ("left", "right"), ("const", "x", "x2", "x3"), ("126.5", "150")
    ):
        order_flag = "--alpha" if side == "left" else "--beta"
        add("deriv", "--side", side, "--function", function, f"{order_flag}={order}",
            "--grid=0,1,64", "--format", "csv")
    # order 1024, whose weights' absolute sum on the 4x refinement, a whole
    # binomial row, overflows where that grid's step**-order underflows
    for flags in (("--alpha", "1024"), ("--side", "right", "--beta", "1024")):
        add("deriv", "--grid", "0,65536,256", *flags, "--function", "const")
    # node 7 of 70 is 0.09999999999999999 from the left end, a tenth of
    # the width: both sides' interiors hold it
    for side in ("left", "right"):
        add("deriv", "--side", side, "--grid", "0,1,70", "--function", "x", "--format", "csv")
    for grid in ("0,1e-320,100000", "0,1e-320,1500", "-1e308,1e308,4", "0,1e200,64", "0,1",
                 "1,0,8", "0,1,1"):
        add("deriv", "--function", "x3", f"--grid={grid}")
    # a subnormal step that rounds to 4 spacings and ends 6 steps short of
    # b, and one of exactly 2 spacings whose 4N refinement's step underflows
    for side in ("left", "right"):
        add("deriv", "--side", side, "--grid=0,1e-320,500")
    add("deriv", "--grid=0,1e-320,1012")
    # a step of one float spacing, whose 4N refinement's nodes collapse
    for grid in ("1e16,1.0000000000000004e16,2", "-1.0000000000000004e16,-1e16,2"):
        add("deriv", f"--grid={grid}", "--format", "csv")
    # the other side's order, and a bad order of deriv's own side
    for flags in (
        ("--beta", "0.5"), ("--beta", "0"), ("--side", "right", "--alpha", "0.5"),
        ("--side", "right", "--beta", "nan"), ("--alpha", "inf"),
        ("--alpha", "0.5", "--tol", "bogus=1"),
    ):
        add("deriv", *flags)
    add("deriv", config="side = right\nalpha = 0.5\n")
    # a bad order and an unknown tolerance: the tolerance is reported
    for flags in (("--alpha", "inf"), ("--side", "right", "--beta", "nan")):
        add("deriv", *flags, "--tol", "bogus=1")
    add("example1", "--alpha", "inf", "--tol", "bogus=1")

    # a W slope overflows a float or is imaginary, and the momentum product
    # leaves its range
    for argv in (("example1", "--e1", "1e308"), ("example2", "--e1", "1e308"),
                 ("example2", "--q", "1e308"), ("example2", "--e2", "1e308"),
                 ("example1", "--q", "1e308")):
        add(*argv)
    custom = ("sweep", "--model", "custom")
    add(*custom, "--c-alpha", "1e308", "--param", "q", "--values", "0")
    add(*custom, "--v", "-1", "--param", "q", "--values", "0,3")
    for coefficients in (("--l-alpha", "1", "--l-beta", "1e-313"),
                         ("--l-alpha", "1e-200", "--l-beta", "1e-200"),
                         ("--l-alpha", "1e308", "--l-beta", "1e308", "--hbar", "1e308")):
        add(*custom, *coefficients, "--e1", "0", "--e2", "0", "--param", "q", "--values", "0")
    # the momentum product underflows and a later check fails too, the
    # h**2 underflow or the beta phase guard: the product is reported
    for coefficients in (("--l-alpha", "1e-160", "--l-beta", "1e-160", "--fd-step", "1e-300"),
                         ("--l-alpha", "1e-313", "--l-beta", "1e4")):
        add(*custom, *coefficients, "--e1", "0", "--e2", "0", "--param", "q", "--values", "0")
    # both slopes finite and positive and the phase step small, but e1 + e2
    # overflows, so S and the HJ residual are not finite
    add(*custom, "--c-beta", "0.25", "--e2", "1.7e308", "--hbar", "1e300", "--param", "e1",
        "--values", "8e307")
    # slopes past 8,192, where one ulp exceeds the closed_form tolerance:
    # W2 about 14,142 and W1 about 9,965
    add(*custom, "--param", "e2", "--values", "1e8", "--fd-step", "1e-8", "--format", "csv")
    add(*custom, "--c-alpha", "1.5", "--v", "0.7", "--q", "1", "--param", "e1",
        "--values", "3.31e7", "--fd-step", "1e-8", "--format", "csv")
    # e1 + e2 past 1e6, where one ulp of the energy exceeds the 1e-10
    # hj_residual tolerance and the residual sits under its rounding floor
    add("sweep", "--model", "example1", "--param", "e1", "--values", "1e6", "--hbar", "1e4",
        "--format", "csv")

    # known tolerances, in and out of range, and malformed entries
    for command, name in (("verify", "imag_part"), ("example1", "probability"),
                          ("sweep", "momentum_eigenvalue"), ("deriv", "kernel_order")):
        sweep = ("--param", "e1", "--values", "1,2") if command == "sweep" else ()
        for value in ("1e-30", "0.5", "0", "-1", "nan", "inf"):
            add(command, *sweep, "--tol", f"{name}={value}")
    for entry in ("probability", "=1", "probability=", "probability=x"):
        add("example1", "--tol", entry)
    # -0.0 is not below 0: accepted, and printed as 0
    add("deriv", "--tol", "kernel_max_error=-0.0", "--grid", "0,1,64", "--format", "csv")
    # a tolerance verify once had, whose records the discrete ones replaced
    add("verify", "--tol", "energy_ratio=1")
    # numbers that do not parse, in --grid and --values
    for grid in ("0,1,1e3", "a,1,4"):
        add("deriv", "--grid", grid)
    add("deriv", config="grid = 0,1,1e3\n")
    add("sweep", "--param", "e1", "--values", "1,x")
    # negative values that argparse alone takes for flags: it reads only
    # -N and -N.N as numbers; non-finite ones too, in any case float() reads
    for argv in (("example1", "--q", "-1e-3"), ("sweep", "--param", "q", "--values", "-1,2"),
                 ("sweep", "--param", "q", "--from", "-1e-3", "--to", "1", "--steps", "2"),
                 ("deriv", "--grid", "-1,1,64"), ("example1", "--q", "-inf"),
                 ("example1", "--q", "-NaN"), ("sweep", "--param", "q", "--values", "-inf,1"),
                 ("deriv", "--grid", "-Infinity,1,64")):
        add(*argv)
    add("example1", "--tol", "probability=1e-13", "--tol", "imag_part=1e-3", "--format", "csv")

    # config files: comments and blank lines, tol.NAME keys, bad lines and keys
    for text in ("# comment only\n\n   \n", "alpha = 1.25  # trailing comment\n\ne1 = 2\n",
                 "tol.probability = 1e-13\n", "tol.probability = -1\n", "tol.bogus = 1\n",
                 "alpha 1.5\n", "= 1\n", "bogus = 1\n", "fd-step = 1e-3\n", "help = 1\n",
                 "config = x\n", "grid = 0,1,64\n"):
        add("example1", config=text)
    add("deriv", config="tol.kernel_order = 0.5\ngrid = 0,1,64\n")
    # a UTF-8 byte-order mark before the first key
    add("deriv", config="\ufeffalpha = 1.2\n")
    add("verify", config="tol.imag_part = 1e-30\nformat = csv\n")
    # config values their flag would not parse
    for text in ("alpha = x\n", "format = xml\n"):
        add("example1", config=text)
    add("deriv", config="tol.kernel_order = x\n")
    add("sweep", config="param = e1\nfrom = 0\nto = 1\nsteps = 2.5\n")

    # every sweep-range error
    for flags in (("--param", "e1", "--from", "0", "--to", "1"),
                  ("--param", "e1", "--from", "0", "--to", "1", "--steps", "0"),
                  ("--param", "e1"), ("--values", "1"), ("--param", "e1", "--values", ","),
                  ("--param", "e1", "--steps", "3"),
                  ("--param", "alpha", "--values", "1.5", "--from", "1", "--to", "2",
                   "--steps", "3"),
                  ("--param", "alpha", "--values", "1.5", "--steps", "0")):
        add("sweep", *flags)
    add("sweep", "--param", "alpha", "--values", "1.5", config="from = 1\n")

    # flags before the subcommand or of another subcommand
    for argv in (("--alpha", "3", "verify"), ("--format=csv", "verify"),
                 ("verify", "--alpha", "3"), ("deriv", "--e1", "2"), ("example1", "--bogus")):
        add(*argv)
    # main builds its parser from the first argument: none at all, an
    # unknown subcommand, a help flag before a subcommand, and a
    # subcommand name or a help flag after one
    for argv in ((), ("derive",), ("-h", "verify"), ("--help", "deriv"), ("verify", "deriv"),
                 ("sweep", "--help", "verify")):
        add(*argv)

    # row counts at the edges of a piece of rendered output
    chunk_edges = [("deriv", f"--grid={grid}") for grid in CHUNK_EDGE_GRIDS] + [
        ("sweep", "--model", "custom", "--l-alpha=-1", "--param", "e1", "--from", "0",
         "--to", to, "--steps", steps)
        for to, steps in CHUNK_EDGE_SWEEPS
    ]
    for argv, fmt in itertools.product(chunk_edges, FORMATS):
        add(*argv, "--format", fmt)
    # a column whose widest text first appears after the first piece,
    # which a table's widths must still see
    for (model, param, last), fmt in itertools.product(LATE_WIDEST_SWEEPS, FORMATS):
        values = ",".join([*map(str, range(1, 96)), last])
        add("sweep", "--model", model, "--param", param, f"--values={values}", "--format", fmt)
    # 65,539 rows whose float columns hold 65,538-65,539 distinct texts,
    # more than 16-bit codes could index in one piece
    add("deriv", "--function", "x", "--alpha", "0.5", "--grid", "0,1,65536", "--format", "csv")

    # help text, whose wrapping reads COLUMNS (pinned by record)
    for command in ((), ("verify",), ("example1",), ("example2",), ("sweep",), ("deriv",)):
        add(*command, "--help")

    # --out: the written file's hash is recorded
    for argv in (("verify",), ("example2", "--format", "csv"), ("example1", "--e1", "-1"),
                 ("deriv", "--grid", "0,1,64", "--format", "json"),
                 ("sweep", "--param", "q", "--values", "0,1", "--tol", "imag_part=1e-30"),
                 (*chunk_edges[-1], "--format", "json"), (*chunk_edges[3], "--format", "table")):
        add(*argv, "--out", OUT)
    return runs


def _capture(run) -> dict:
    """Call run(); its stdout hash, stderr, exit code and warnings.

    A run that raises is recorded, not propagated: its exit is
    "traceback" and its stderr ends with the exception's "Type: message"
    line, so one crashing argv shows up as one differing run.  The
    traceback itself is left out: its file paths differ between trees.
    """
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(
        out
    ), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = run()
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception as exc:
            code = "traceback"
            err.write(f"{type(exc).__name__}: {exc}\n")
    return {
        "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stderr": err.getvalue(),
        "exit": code,
        "warnings": [f"{w.category.__name__}: {w.message}" for w in caught],
    }


def record(main, argv: list[str]) -> dict:
    """Run one argv through main; its stdout hash, stderr, exit code and warnings.

    For an argv with --out PATH it also hashes the file written there, or
    gives None when none was, and then removes the file.  argparse wraps
    help and usage text at the terminal width, so main runs with COLUMNS
    set to WIDTH.
    """
    with mock.patch.dict(os.environ, COLUMNS=WIDTH):
        entry = _capture(lambda: main(argv))
    out_sha256 = None
    if "--out" in argv:
        written = Path(argv[argv.index("--out") + 1])
        if written.exists():
            out_sha256 = hashlib.sha256(written.read_bytes()).hexdigest()
            written.unlink()
    return {**entry, "out_sha256": out_sha256}


def _run_demo(path: Path) -> int:
    runpy.run_path(str(path), run_name="__main__")
    return 0


def _run_block(code) -> int:
    exec(code, {"__name__": "__main__"})
    return 0


def _power_kernel_errors(grid, orders, side):
    # the power-kernel check's max interior error of each (order, power)
    # row, powers 1, 2 and 3, as an (orders, powers) table
    import numpy as np
    from fracwkb.verification import power_kernel_check

    table = np.full((len(orders), 3), np.nan)
    for i, j, *_, error in power_kernel_check(grid, (1, 2, 3), orders, side):
        table[i, j] = error
    return table


def _run_kernel_block() -> int:
    # rows that start (on either side) at 0, at -0.0 and away from 0, and
    # one whose f - f(a) overflows, at integer and other orders mixed, at
    # integer orders 1, 2 and 3 alone, and at 1.5 then 2; the power-kernel
    # check's errors for powers 1, 2 and 3 at verify's four orders, on the
    # same grid and side; the power rule's values; then the error of each
    # order whose weights or step**-order overflow
    import numpy as np
    from fracwkb import fracops
    from fracwkb.fracops import FractionalOrder, TimeGrid

    def stacked(grid, rows, orders, side="left"):
        # the kernel's rows as one (orders, rows, count + 1) block
        block = np.empty((len(orders), len(rows), grid.count + 1))
        for i, r, row in fracops.rl_derivative_rows(grid, rows, orders, side):
            block[i, r] = row
        return block

    rng = random.Random(SEED)
    orders = [FractionalOrder(order) for order in (0.5, 1.0, 1.5, 2.0, 2.5)]
    integers = [FractionalOrder(order) for order in (1.0, 2.0, 3.0)]
    # an integer order after a non-integer one, which keeps the block
    # alive past the spectrum
    mixed = [FractionalOrder(order) for order in (1.5, 2.0)]
    verify_orders = [FractionalOrder(order) for order in (0.25, 0.5, 0.75, 1.5)]
    for count, side in itertools.product((64, 4096), ("left", "right")):
        grid = TimeGrid(0.0, 1.0, count)
        rows = [[rng.uniform(-1.0, 1.0) for _ in range(count + 1)] for _ in range(3)]
        rows[0][0] = rows[0][-1] = 0.0
        rows[1][0] = rows[1][-1] = -0.0
        rows.append([1e308 if j % 3 else -1e308 for j in range(count + 1)])
        result = stacked(grid, rows, orders, side)
        print(count, side, hashlib.sha256(result.tobytes()).hexdigest())
        result = stacked(grid, rows, integers, side)
        print(count, side, "integer orders", hashlib.sha256(result.tobytes()).hexdigest())
        result = stacked(grid, rows, mixed, side)
        print(count, side, "an integer order last", hashlib.sha256(result.tobytes()).hexdigest())
        errors = _power_kernel_errors(grid, verify_orders, side)
        print(count, side, "power kernel errors", hashlib.sha256(errors.tobytes()).hexdigest())
    # the power rule on an array of offsets and on each as a float and as
    # a 0-d array: zero offsets at negative powers, and pole orders, where
    # exponent + 1 - order is 0 or a negative integer
    offsets = np.array([0.0, 5e-324, 1e-300, 0.25, 1.0, 3.0, 1e300])
    for exponent, order in itertools.product((0, 1, 2, 0.5), (0.25, 1.0, 1.5, 2.0, 2.5, 3.0)):
        order = FractionalOrder(order)
        values = fracops.rl_power_rule(exponent, order, offsets)
        floats = [fracops.rl_power_rule(exponent, order, x) for x in offsets.tolist()]
        zero_d = [fracops.rl_power_rule(exponent, order, np.array(x)) for x in offsets.tolist()]
        print(exponent, order.value, "power rule", hashlib.sha256(values.tobytes()).hexdigest(),
              *map(repr, floats), {type(x).__name__ for x in floats + zero_d}, floats == zero_d)
    for order in (2000.0, 1e9, 300.5):
        try:
            stacked(TimeGrid(0.0, 1.0, 4096), rows, [FractionalOrder(order)])
        except (ValueError, ArithmeticError) as exc:
            print(f"{order!r}: {type(exc).__name__}: {exc}")
        else:
            print(f"{order!r}: accepted")
    return 0


def _run_model_block() -> int:
    # rows at points from signed zeros to +-1e308: the column hashes of
    # those the scalar path accepts, then one call each for those it
    # rejects, many of whose S overflows, and for a few other bad rows
    import numpy as np
    from fracwkb.mechanics import FamilyColumns
    from fracwkb.wkb import ModelColumns, evaluate_models

    rng = random.Random(SEED)
    huge = (0.0, -0.0, 1.0, 1e154, 1e300, -1e300, 1e308, -1e308)

    def column(lo: float, hi: float, special: tuple[float, ...] = (0.0, -0.0)) -> list[float]:
        # half the rows drawn from special, the rest uniform in [lo, hi]
        return [rng.choice(special) if rng.random() < 0.5 else rng.uniform(lo, hi)
                for _ in range(256)]

    def evaluate(rows) -> ModelColumns:
        fields = np.array(rows).T
        return evaluate_models(FamilyColumns(*fields[:7]), *fields[7:])

    rows = np.column_stack(np.broadcast_arrays(
        column(0.5, 2.0, (1.0,)), column(0.5, 2.0, (1.0,)), column(-1.0, 1.0),
        column(-1.0, 1.0), column(0.0, 2.0), 1.5, column(1.0, 3.0, (1.0,)),
        column(0.0, 4.0), column(0.0, 4.0), column(-0.05, 0.05, huge),
        column(-0.05, 0.05, huge), column(-0.05, 0.05, huge), column(-2.0, 2.0), 1e-4,
        column(0.5, 2.0, (1.0,)),
    ))
    accepted, rejected = [], []
    for i, row in enumerate(rows):
        try:
            evaluate([row])
            accepted.append(row)
        except (ValueError, ArithmeticError) as exc:
            rejected.append(f"row {i}: {type(exc).__name__}: {exc}")
    columns = evaluate(accepted)
    for name, values in zip(columns._fields, columns):
        print(name, hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest())
    for line in rejected:
        print(line)
    names = (*FamilyColumns._fields, "e1", "e2", "u1", "u2", "t", "q", "h", "hbar")
    good = (1.0, 1.0, 1.0, 1.0, 1.0, 1.5, 1.5, 1.0, 1.0, 0.02, -0.015, 0.0, 0.0, 1e-4, 1.0)
    for bad, value in (("c_alpha", 0.0), ("beta", 0.5), ("e1", -1.0), ("u1", math.inf),
                       ("q", 1e200), ("h", 0.05), ("hbar", 0.0)):
        row = [value if name == bad else x for name, x in zip(names, good)]
        try:
            evaluate_models(FamilyColumns(*row[:7]), *row[7:])
        except (ValueError, ArithmeticError) as exc:
            print(f"{bad} = {value!r}: {type(exc).__name__}: {exc}")
        else:
            print(f"{bad} = {value!r}: accepted")
    return 0


def _run_names_block() -> int:
    # each name through the package, on one member and on a batch with a
    # sweep column
    import fracwkb

    pf = fracwkb.separate(fracwkb.example2(), fracwkb.EnergyPartition(2.0, 0.5))
    wf = fracwkb.build_wavefunction(pf, 0.5)
    point = fracwkb.TransformedPoint(0.02, -0.015, 0.005, 1.0)
    built = repr((pf, wf, wf.value(point), fracwkb.apply_hamiltonian(wf, point, 1e-4)))
    print("separate, build_wavefunction", hashlib.sha256(built.encode()).hexdigest())
    records = [
        fracwkb.ReportRecord("p_alpha", 2.0, 2.0 + 1.3e-8, 1e-6),
        fracwkb.ReportRecord("energy", 2.5, math.nan, 1e-6),
        fracwkb.ReportRecord("divergent_node", math.inf, 64.0, math.inf),
    ]
    batch = fracwkb.RecordBatch(*zip(*records), ("e1", [0.5, -0.0, 1e308]))
    for name in ("format_table", "format_csv", "format_json"):
        text = getattr(fracwkb, name)(batch)
        print(name, hashlib.sha256(text.encode()).hexdigest())
    return 0


def library_records(root: Path) -> list[dict]:
    """The records of each demos/*.py script under root, of the quickstart,
    of the block kernel entry, of the model batch and of the package names.

    A demo runs as `python demos/NAME.py` would run it; the quickstart is
    the python block under "Library quickstart" in root's README.md.  The
    kernel record prints the sha256 of fracwkb.fracops.rl_derivative_rows'
    rows, stacked, on several rows, some with f(a) = 0 and some not, on both
    sides, at several orders mixed, at integer orders alone and at an
    integer order after a non-integer one: the path a block of rows takes
    that no argv reaches.  The model record prints the sha256 of each
    fracwkb.wkb.evaluate_models column, wave included, on the accepted
    rows of a block whose points run from signed zeros to +-1e308, then
    the error of each rejected row, one call each.  The
    kernel record also prints the error of each order whose weights or
    step**-order overflow, and the sha256 of the power-kernel check's
    per-row errors for powers 1, 2 and 3 at verify's four orders, on
    both sides at 64 and 4,096 intervals: no argv reaches a multi-row
    right-side check.  The names record prints the sha256 of what
    fracwkb.separate, fracwkb.build_wavefunction and the three
    fracwkb.format_* functions return, names the demos and the quickstart
    do not call.
    """
    runs = [
        (f"demos/{path.name}", functools.partial(_run_demo, path))
        for path in sorted((root / "demos").glob("*.py"))
    ]
    readme = (root / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library quickstart\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    code = compile(block, "README.md quickstart", "exec")
    runs.append(("README.md quickstart", functools.partial(_run_block, code)))
    runs.append(("fracwkb.fracops.rl_derivative_rows", _run_kernel_block))
    runs.append(("fracwkb.wkb.evaluate_models", _run_model_block))
    runs.append(("fracwkb package names", _run_names_block))
    return [{"library": label, **_capture(run), "out_sha256": None} for label, run in runs]


def run_tree(src: Path) -> list[dict]:
    """The records of the fracwkb package under src, in corpus order, then
    its library records."""
    sys.path.insert(0, str(src))
    from fracwkb.cli import main

    records = []
    with tempfile.TemporaryDirectory() as workdir:
        config = Path(workdir) / "run.cfg"
        paths = {CONFIG: str(config), OUT: str(Path(workdir) / "out.txt")}
        for argv, text in corpus():
            if text is not None:
                config.write_text(text, encoding="utf-8")
            entry = record(main, [paths.get(token, token) for token in argv])
            # a config error names the file, whose temporary path differs per run
            entry["stderr"] = entry["stderr"].replace(str(config), CONFIG)
            records.append({"argv": argv, "config": text, **entry})
    return records + library_records(src.parent)


def _spawn(src: Path) -> subprocess.Popen:
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.Popen(
        [sys.executable, __file__, "--src", str(src)], stdout=subprocess.PIPE, env=env, text=True
    )


def _collect(process: subprocess.Popen) -> list[dict]:
    output, _ = process.communicate()
    if process.returncode != 0:
        raise SystemExit(f"corpus run failed with exit code {process.returncode}")
    return [json.loads(line) for line in output.splitlines()]


def compare(rev: str) -> int:
    """Run the corpus on rev's src/ and on this checkout's; 0 when all match."""
    with tempfile.TemporaryDirectory() as tree:
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src", "demos", "README.md"],
            check=True, capture_output=True,
        ).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tree, filter="data")
        # both trees run at once, each in its own interpreter
        theirs, ours = _spawn(Path(tree) / "src"), _spawn(ROOT / "src")
        before, after = _collect(theirs), _collect(ours)
    fields = ("stdout_sha256", "out_sha256", "exit", "stderr", "warnings")
    differing = [
        ([name for name in fields if old[name] != new[name]], old, new)
        for old, new in zip(before, after)
        if old != new
    ]
    # a changed output or exit code matters most, so it is shown first
    differing.sort(key=lambda diff: diff[0][0] not in fields[:3])
    counts = ", ".join(
        f"{name} {sum(name in names for names, _, _ in differing)}" for name in fields
    )
    print(
        f"identity corpus against {rev}: {len(after)} runs, {len(after) - len(differing)}"
        f" identical, {len(differing)} differing ({counts})"
    )
    for names, old, new in differing[:SHOWN]:
        if "library" in old:
            print(f"\n  {old['library']}")
        else:
            print(f"\n  fracwkb {' '.join(old['argv'])}")
        if old.get("config") is not None:
            print(f"    with CONFIG: {old['config']!r}")
        for name in names:
            print(f"    {name}: {old[name]!r}\n    {' ' * len(name)}  -> {new[name]!r}")
    if len(differing) > SHOWN:
        print(f"\n  ... and {len(differing) - SHOWN} more")
    return 1 if differing else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV", help="compare with this git revision")
    parser.add_argument(
        "--src", type=Path, default=ROOT / "src", help="directory holding the fracwkb package"
    )
    args = parser.parse_args()
    if args.against is not None:
        return compare(args.against)
    for entry in run_tree(args.src):
        print(json.dumps(entry))
    return 0


if __name__ == "__main__":
    sys.exit(main())
