"""tools/identity_corpus.py keeps working: a fixed corpus, one record per outcome.

The tool is loaded by path, as test_tracer_names loads the tracer; only
its corpus and its in-process recorder run here, not the two-tree
comparison.
"""

import hashlib
import importlib.util
from pathlib import Path

from fracwkb.cli import main

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "identity_corpus.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("identity_corpus", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_corpus_is_fixed_and_records_each_outcome(capsys):
    tool = _load_tool()
    runs = tool.corpus()
    assert runs == tool.corpus()
    argvs = [argv for argv, _ in runs]
    assert len({(tuple(argv), config) for argv, config in runs}) == len(runs)
    for argv in (["verify", "--format", "json"], ["example1", "--hbar=inf", "--e1=0", "--e2=0"]):
        assert argv in argvs
    passing = tool.record(main, ["example1", "--format", "csv"])
    main(["example1", "--format", "csv"])
    stdout = capsys.readouterr().out
    assert passing == {
        "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest(),
        "stderr": "", "exit": 0, "warnings": [],
    }
    usage = tool.record(main, ["bogus"])
    assert usage["exit"] == 2 and "invalid choice: 'bogus'" in usage["stderr"]
