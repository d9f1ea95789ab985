"""Seeded argv streams for the three benchmark workloads.

Each workload is an endless stream of blocks.  A block has a fixed
composition: each deriv block has every (grid size, format) pair twice
and a fixed set of cases (see DERIV_CASES), and each sweep block every
output format once, since those set an op's cost and outcome.  The seed
shuffles the block and draws the remaining parameters.  A run measures
a fixed number of whole blocks, so two seeds load the program with the
same mix, their medians and rates compare, and their `attempted` and
`failed` counts are equal.

The program sees nothing but the generated argv.
"""

from __future__ import annotations

import hashlib
import json
import random
from itertools import islice, product
from typing import Iterator

WORKLOADS = ("verify_full", "deriv_large", "sweep_models")

# Seeds 1..10 are used while tuning the benchmark; confirm a later
# speed claim on this seed as well.
HELD_OUT_SEED = 7919

# Traced runs execute this many whole blocks, so their counts are run
# totals that repeat exactly for a given seed.
TRACE_BLOCKS = {"verify_full": 3, "deriv_large": 1, "sweep_models": 3}

# Typical wall time of one block, worker start-up and output check
# included, on the 2-core Xeon the benchmark was tuned on.  An untraced
# run executes a fixed number of blocks derived from --seconds
# (run_blocks), so `attempted` and `failed` repeat exactly.
BLOCK_NOMINAL_S = {"verify_full": 1.8, "deriv_large": 20.0, "sweep_models": 3.8}
DERIV_SIZES = (4096, 8192, 16384)
DERIV_FORMATS = ("csv", "table")
# Ops per (grid size, format) cell in one deriv block.
DERIV_REPEATS = 2
# The cases of a deriv block, one op each: (outcome, functions, order
# draw).  An order draw is a (low, high) range for a continuous order or
# "integer" for an exact one.  Each range lies where the outcome holds at
# every grid size of the workload, so every block has the same number of
# record FAILs, whatever the seed.  The three FAIL cases are defects of
# the program, kept so that they show:
#   - exact integer orders: observed_order = log(0/0) (ROADMAP item 4);
#   - const at orders in (1.3, 1.9) misses the 1e-3 absolute tolerance
#     (0.0244 at order 1.5 and N = 4096, 0.0031 at 1.3 and N = 16384);
#   - x2 and x3 at orders in (1.87, 1.9) on the largest grid: roundoff on
#     the 4N grid breaks observed_order.  That case is placed on a
#     DERIV_SIZES[-1] cell.
# Continuous orders run on both sides of 1, so both stencil branches run.
DERIV_CASES = (
    ("pass", ("const",), (0.1, 0.95)),
    ("pass", ("const",), (0.1, 0.95)),
    ("pass", ("x", "x2", "x3"), (0.1, 0.95)),
    ("pass", ("x", "x2", "x3"), (0.1, 0.95)),
    ("pass", ("x", "x2", "x3"), (0.1, 0.95)),
    ("pass", ("x", "x2", "x3"), (1.05, 1.7)),
    ("pass", ("x", "x2", "x3"), (1.05, 1.7)),
    ("pass", ("x", "x2", "x3"), (1.05, 1.7)),
    ("pass", ("x", "x2", "x3"), (1.05, 1.7)),
    ("fail", ("const", "x"), "integer"),
    ("fail", ("const",), (1.3, 1.9)),
    ("fail", ("x2", "x3"), (1.87, 1.9)),
)
# Exact integer orders and the functions for which each is a record FAIL.
DERIV_INTEGER_ORDERS = {1: ("const", "x"), 2: ("const", "x", "x2", "x3")}

SWEEP_MODELS = ("example1", "example2", "custom")
SWEEP_FORMATS = ("csv", "table", "json")
SWEEP_STEPS = 2000
# Ranges in which every record of every model passes its tolerance.
# fd_step stays at or above 8e-5: below that the 1/h**2 roundoff of the
# second difference pushes energy_imag past its 1e-8 budget.
SWEEP_RANGES = {
    "alpha": (1.0, 2.0),
    "beta": (1.0, 2.0),
    "e1": (0.25, 4.0),
    "e2": (0.25, 4.0),
    "q": (-1.0, 1.0),
    "fd_step": (8e-5, 2e-4),
}
CUSTOM_RANGES = {
    "c-alpha": (0.5, 2.0),
    "c-beta": (0.5, 2.0),
    "l-alpha": (0.0, 1.0),
    "l-beta": (0.0, 1.0),
    "v": (0.0, 1.0),
}


def _num(x: float) -> str:
    return f"{x:.6g}"


def _verify_block(rng: random.Random) -> list[list[str]]:
    return [["verify", "--format", "csv"]]


def _deriv_op(rng: random.Random, case: tuple, count: int, fmt: str) -> list[str]:
    _, functions, draw = case
    side = rng.choice(("left", "right"))
    if draw == "integer":
        order_value = rng.choice(tuple(DERIV_INTEGER_ORDERS))
        function = rng.choice(DERIV_INTEGER_ORDERS[order_value])
        order = str(order_value)
    else:
        function = rng.choice(functions)
        order = _num(rng.uniform(*draw))
    return [
        "deriv", "--function", function, "--side", side,
        "--alpha" if side == "left" else "--beta", order,
        "--grid", f"0,1,{count}", "--format", fmt,
    ]


def _deriv_block(rng: random.Random) -> list[list[str]]:
    cells = list(product(DERIV_SIZES, DERIV_FORMATS)) * DERIV_REPEATS
    rng.shuffle(cells)
    cases = list(DERIV_CASES[:-1])
    rng.shuffle(cases)
    # the last case needs the largest grid: give it the first such cell
    largest = next(i for i, (count, _) in enumerate(cells) if count == DERIV_SIZES[-1])
    cases.insert(largest, DERIV_CASES[-1])
    return [_deriv_op(rng, case, count, fmt) for case, (count, fmt) in zip(cases, cells)]


def _sweep_block(rng: random.Random) -> list[list[str]]:
    formats = list(SWEEP_FORMATS)
    rng.shuffle(formats)
    block = []
    for fmt in formats:
        model = rng.choice(SWEEP_MODELS)
        param = rng.choice(tuple(SWEEP_RANGES))
        lo, hi = SWEEP_RANGES[param]
        start, stop = sorted((rng.uniform(lo, hi), rng.uniform(lo, hi)))
        argv = [
            "sweep", "--model", model, "--param", param,
            "--from", _num(start), "--to", _num(stop), "--steps", str(SWEEP_STEPS),
        ]
        for name, (lo, hi) in SWEEP_RANGES.items():
            argv += [f"--{name.replace('_', '-')}", _num(rng.uniform(lo, hi))]
        if model == "custom":
            for name, (lo, hi) in CUSTOM_RANGES.items():
                argv += [f"--{name}", _num(rng.uniform(lo, hi))]
        block.append(argv + ["--format", fmt])
    return block


_BLOCKS = {
    "verify_full": _verify_block,
    "deriv_large": _deriv_block,
    "sweep_models": _sweep_block,
}


def blocks(workload: str, seed: int) -> Iterator[list[list[str]]]:
    """Endless stream of argv blocks for one workload and seed."""
    make = _BLOCKS[workload]
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield make(rng)


def argv_list(workload: str, seed: int, count: int) -> list[list[str]]:
    """The first count argvs of the stream."""
    ops = (argv for block in blocks(workload, seed) for argv in block)
    return list(islice(ops, count))


def argv_digest(workload: str, seed: int, count: int = 64) -> str:
    """sha256 of the first count argvs: equal digests mean equal inputs."""
    text = json.dumps(argv_list(workload, seed, count))
    return hashlib.sha256(text.encode()).hexdigest()


def run_blocks(workload: str, seconds: float) -> int:
    """Whole blocks in an untraced run: about `seconds` of typical wall time."""
    return max(1, int(seconds / BLOCK_NOMINAL_S[workload] + 0.5))
