"""Every demo script runs to completion, warning-free, and reports no failure.

The demos run in this process, as `python demos/NAME.py` would run
them, so the suite's warnings-as-errors setting covers them too.  A
demo prints FAILED when records it checks fail, so that word in its
stdout fails the test.
"""

import runpy
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_DEMOS = sorted((_ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", _DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, capsys):
    runpy.run_path(str(demo), run_name="__main__")
    assert "FAILED" not in capsys.readouterr().out
