"""Every demo script and the README quickstart run to completion, warning-free.

The demos run in this process, as `python demos/NAME.py` would run
them, so the suite's warnings-as-errors setting covers them too.  A
demo prints FAILED when records it checks fail, so that word in its
stdout fails the test.  The quickstart is the python block under
"Library quickstart" in README.md, run the same way.
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


def test_readme_quickstart_runs(capsys):
    readme = (_ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library quickstart\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(block, "README.md quickstart", "exec"), {"__name__": "__main__"})
    assert capsys.readouterr().out
