"""Output-identity corpus: run a fixed argv list through the CLI and compare trees.

A refactor of fracwkb is shown correct by byte-identical output.  This
script runs one fixed, seeded list of argvs in-process through
fracwkb.cli.main and records, for each argv, the sha256 of stdout, the
stderr text, the exit code and the warnings raised.

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
grids; and the other side's order.
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
# stands for the path of a file holding the run's config text
CONFIG = "CONFIG"


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
    return runs


def record(main, argv: list[str]) -> dict:
    """Run one argv through main; its stdout hash, stderr, exit code and warnings."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(
        out
    ), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return {
        "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
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
        for argv, text in corpus():
            if text is not None:
                config.write_text(text, encoding="utf-8")
            resolved = [str(config) if token == CONFIG else token for token in argv]
            records.append({"argv": argv, "config": text, **record(main, resolved)})
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
    fields = ("stdout_sha256", "exit", "stderr", "warnings")
    differing = [
        ([name for name in fields if old[name] != new[name]], old, new)
        for old, new in zip(before, after)
        if old != new
    ]
    # a changed stdout or exit code matters most, so it is shown first
    differing.sort(key=lambda diff: diff[0][0] not in fields[:2])
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
