"""Exact call counts of the program's own functions on two pinned runs.

cProfile counts every call of every Python function, so the counts are
the same on every run of the same argv, whatever the machine's load:
a change that makes a command call more or fewer of fracwkb's functions
moves them, and states it.
"""

import contextlib
import cProfile
import io
from collections import Counter
from pathlib import Path

import pytest

import fracwkb
from fracwkb import cli

_SRC = Path(fracwkb.__file__).parent

# calls of the functions defined under src/fracwkb, summed per module
_COUNTS = {
    ("verify", "--format", "csv"): {
        "cli": 8, "fracops": 319, "hamilton_jacobi": 394, "mechanics": 83,
        "reporting": 28, "verification": 190, "wkb": 217,
    },
    (
        "sweep", "--model", "custom", "--param", "e2",
        "--from", "0", "--to", "3", "--steps", "50", "--format", "json",
    ): {
        "cli": 49, "hamilton_jacobi": 73, "mechanics": 1, "reporting": 38,
        "verification": 12, "wkb": 65,
    },
}


def _module_calls(argv):
    profile = cProfile.Profile()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert profile.runcall(cli.main, list(argv)) == 0
    # summed per code object: pstats keys by (file, line, name), under
    # which two comprehensions on one line collide and one count is lost
    calls = Counter()
    for entry in profile.getstats():
        path = Path(getattr(entry.code, "co_filename", ""))
        if path.parent == _SRC:
            calls[path.stem] += entry.callcount
    return dict(calls)


@pytest.mark.parametrize("argv", list(_COUNTS), ids=lambda argv: argv[0])
def test_call_counts_per_module_are_pinned(argv):
    assert _module_calls(argv) == _COUNTS[argv]
    # and the same on a second run in the same process
    assert _module_calls(argv) == _COUNTS[argv]
