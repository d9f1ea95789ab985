"""Output-identity corpus: run a fixed argv list through the CLI and compare trees.

A refactor of fracwkb is shown correct by byte-identical output.  This
script runs one fixed, seeded list of argvs in-process through
fracwkb.cli.main and records, for each argv, the sha256 of stdout, the
stderr text, the exit code and the warnings raised, and for an argv that
writes --out the sha256 of the file it wrote.

    python3 tools/identity_corpus.py               # one JSON record per argv
    python3 tools/identity_corpus.py --against REV

--against extracts src/ of the git revision REV into a temporary
directory with git archive, runs the corpus on that tree and on this
one, each in its own interpreter, and prints the identical and
differing counts and the first differences.  --src DIR runs the corpus
on the fracwkb package under DIR instead of this checkout's src/.

The list covers verify, example1 and example2 in every format; each
model flag, and each sweep parameter of each model, at 1, 0.5, 0, -1,
nan, inf, 1e308 and 1e-300, with and without zero energies, from a flag,
a --config line and a sweep value; sweeps with --tol bogus=1 and
--hbar=0; deriv on both sides for every built-in function over orders
0.3-3, 300.5, 2000 and 1e9 on grids of 64-4096 intervals; degenerate
grids; the other side's order; a bad order with --tol bogus=1; W slopes
that overflow or turn imaginary and momentum products that leave the
float range; known tolerances set in and out of range; malformed --tol
entries and config lines; every sweep-range error; flags before the
subcommand or of another one; deriv grids and sweeps whose row counts
land at the edges of a piece of rendered output, in every format; and
--out.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import tarfile
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 20261018
SHOWN = 10  # differences printed in full

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
        if order == "1e9" and grid == DERIV_GRIDS[-1]:
            continue  # an O(N**2) kernel row: a second per call at N 16384
        order_flag = "--alpha" if side == "left" else "--beta"
        add("deriv", "--side", side, "--function", function, f"{order_flag}={order}",
            f"--grid={grid}", "--format", rng.choice(FORMATS))
    for grid in ("0,1e-320,100000", "0,1e-320,1500", "-1e308,1e308,4", "0,1e200,64", "0,1",
                 "1,0,8", "0,1,1"):
        add("deriv", "--function", "x3", f"--grid={grid}")
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

    # known tolerances, in and out of range, and malformed entries
    for command, name in (("verify", "imag_part"), ("example1", "probability"),
                          ("sweep", "momentum_eigenvalue"), ("deriv", "kernel_order")):
        sweep = ("--param", "e1", "--values", "1,2") if command == "sweep" else ()
        for value in ("1e-30", "0.5", "0", "-1", "nan", "inf"):
            add(command, *sweep, "--tol", f"{name}={value}")
    for entry in ("probability", "=1", "probability=", "probability=x"):
        add("example1", "--tol", entry)
    add("example1", "--tol", "probability=1e-13", "--tol", "imag_part=1e-3", "--format", "csv")

    # config files: comments and blank lines, tol.NAME keys, bad lines and keys
    for text in ("# comment only\n\n   \n", "alpha = 1.25  # trailing comment\n\ne1 = 2\n",
                 "tol.probability = 1e-13\n", "tol.probability = -1\n", "tol.bogus = 1\n",
                 "alpha 1.5\n", "= 1\n", "bogus = 1\n", "fd-step = 1e-3\n", "help = 1\n",
                 "config = x\n", "grid = 0,1,64\n"):
        add("example1", config=text)
    add("deriv", config="tol.kernel_order = 0.5\ngrid = 0,1,64\n")
    add("verify", config="tol.imag_part = 1e-30\nformat = csv\n")

    # every sweep-range error
    for flags in (("--param", "e1", "--from", "0", "--to", "1"),
                  ("--param", "e1", "--from", "0", "--to", "1", "--steps", "0"),
                  ("--param", "e1"), ("--values", "1"), ("--param", "e1", "--values", ","),
                  ("--param", "e1", "--steps", "3")):
        add("sweep", *flags)

    # flags before the subcommand or of another subcommand
    for argv in (("--alpha", "3", "verify"), ("--format=csv", "verify"),
                 ("verify", "--alpha", "3"), ("deriv", "--e1", "2"), ("example1", "--bogus")):
        add(*argv)

    # row counts at the edges of a piece of rendered output
    chunk_edges = [("deriv", f"--grid={grid}") for grid in CHUNK_EDGE_GRIDS] + [
        ("sweep", "--model", "custom", "--l-alpha=-1", "--param", "e1", "--from", "0",
         "--to", to, "--steps", steps)
        for to, steps in CHUNK_EDGE_SWEEPS
    ]
    for argv, fmt in itertools.product(chunk_edges, FORMATS):
        add(*argv, "--format", fmt)

    # --out: the written file's hash is recorded
    for argv in (("verify",), ("example2", "--format", "csv"), ("example1", "--e1", "-1"),
                 ("deriv", "--grid", "0,1,64", "--format", "json"),
                 ("sweep", "--param", "q", "--values", "0,1", "--tol", "imag_part=1e-30"),
                 (*chunk_edges[-1], "--format", "json"), (*chunk_edges[3], "--format", "table")):
        add(*argv, "--out", OUT)
    return runs


def record(main, argv: list[str]) -> dict:
    """Run one argv through main; its stdout hash, stderr, exit code and warnings.

    For an argv with --out PATH it also hashes the file written there, or
    gives None when none was, and then removes the file.
    """
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(
        out
    ), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    out_sha256 = None
    if "--out" in argv:
        written = Path(argv[argv.index("--out") + 1])
        if written.exists():
            out_sha256 = hashlib.sha256(written.read_bytes()).hexdigest()
            written.unlink()
    return {
        "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "out_sha256": out_sha256,
        "stderr": err.getvalue(),
        "exit": code,
        "warnings": [f"{w.category.__name__}: {w.message}" for w in caught],
    }


def run_tree(src: Path) -> list[dict]:
    """The corpus records of the fracwkb package under src, in corpus order."""
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
    return records


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
            ["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
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
        f"identity corpus against {rev}: {len(after)} argvs, {len(after) - len(differing)}"
        f" identical, {len(differing)} differing ({counts})"
    )
    for names, old, new in differing[:SHOWN]:
        print(f"\n  fracwkb {' '.join(old['argv'])}")
        if old["config"] is not None:
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
