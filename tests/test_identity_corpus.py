"""tools/identity_corpus.py keeps working: a fixed corpus, one record per outcome.

The tool is loaded by path, as test_tracer_names loads the tracer; only
its corpus and its in-process recorder run here, not the two-tree
comparison.
"""

import hashlib
import importlib.util
from pathlib import Path

from fracwkb import reporting
from fracwkb.cli import main

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "identity_corpus.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("identity_corpus", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_corpus_is_fixed_and_records_each_outcome(tmp_path, capsys):
    tool = _load_tool()
    runs = tool.corpus()
    assert runs == tool.corpus()
    argvs = [argv for argv, _ in runs]
    assert len({(tuple(argv), config) for argv, config in runs}) == len(runs)
    for argv in (
        ["verify", "--format", "json"],
        ["example1", "--hbar=inf", "--e1=0", "--e2=0"],
        ["deriv", "--alpha", "inf", "--tol", "bogus=1"],
        ["example2", "--e2", "1e308"],
        ["sweep", "--param", "e1", "--values", ","],
        ["--alpha", "3", "verify"],
        ["verify", "--out", tool.OUT],
    ):
        assert argv in argvs
    configs = [config for _, config in runs]
    for config in ("tol.probability = 1e-13\n", "alpha 1.5\n", "bogus = 1\n"):
        assert config in configs
    passing = tool.record(main, ["example1", "--format", "csv"])
    main(["example1", "--format", "csv"])
    stdout = capsys.readouterr().out
    stdout_sha256 = hashlib.sha256(stdout.encode()).hexdigest()
    assert passing == {
        "stdout_sha256": stdout_sha256, "out_sha256": None,
        "stderr": "", "exit": 0, "warnings": [],
    }
    out = tmp_path / "out.csv"
    written = tool.record(main, ["example1", "--format", "csv", "--out", str(out)])
    assert written["out_sha256"] == stdout_sha256 and written["exit"] == 0
    assert written["stdout_sha256"] == hashlib.sha256(b"").hexdigest() and not out.exists()
    usage = tool.record(main, ["bogus"])
    assert usage["exit"] == 2 and "invalid choice: 'bogus'" in usage["stderr"]
    slope = tool.record(main, ["example2", "--e2", "1e308"])
    assert (slope["exit"], slope["stderr"]) == (
        2, "error: W2 slope must be finite, got inf at c_beta = 1.0, l_beta = 1.0, e2 = 1e+308\n"
    )


def test_chunk_edge_runs_land_on_the_edges(capsys):
    # the corpus's chunk-edge argvs give CHUNK_ROWS - 1, CHUNK_ROWS,
    # CHUNK_ROWS + 1 and 2 * CHUNK_ROWS + 1 rows of output
    tool = _load_tool()
    assert tool.CHUNK == reporting.CHUNK_ROWS
    argvs = [argv for argv, _ in tool.corpus()]
    sweep = ["sweep", "--model", "custom", "--l-alpha=-1", "--param", "e1", "--from", "0"]
    counts = []
    for grid, (to, steps) in zip(tool.CHUNK_EDGE_GRIDS, tool.CHUNK_EDGE_SWEEPS):
        for argv in (["deriv", f"--grid={grid}"], [*sweep, "--to", to, "--steps", steps]):
            argv = [*argv, "--format", "csv"]
            assert argv in argvs
            main(argv)
            counts.append(len(capsys.readouterr().out.splitlines()) - 2)
    assert counts == [rows for rows in tool.EDGE_ROWS for _ in range(2)]
