"""Every demo script runs to completion, warning-free.

The demos run in this process, as `python demos/NAME.py` would run
them, so the suite's warnings-as-errors setting covers them too.
"""

import runpy
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_DEMOS = sorted((_ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", _DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    runpy.run_path(str(demo), run_name="__main__")
