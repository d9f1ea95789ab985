"""tools/identity_corpus.py keeps working: a fixed corpus, one record per outcome.

The tool is loaded by path, as test_tracer_names loads the tracer; only
its corpus, its in-process recorder and its demo records run here, not
the two-tree comparison.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

from fracwkb import cli, reporting
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
        ["sweep", "--param", "alpha", "--values", "1.5", "--steps", "0"],
        ["example1", "--q", "-1e-3"],
        ["deriv", "--grid", "-1,1,64"],
        ["example1", "--q", "-inf"],
        ["sweep", "--param", "q", "--values", "-inf,1"],
        ["deriv", "--tol", "kernel_max_error=-0.0", "--grid", "0,1,64", "--format", "csv"],
        ["--alpha", "3", "verify"],
        [],
        ["derive"],
        ["-h", "verify"],
        ["verify", "deriv"],
        ["sweep", "--help", "verify"],
        ["verify", "--out", tool.OUT],
    ):
        assert argv in argvs
    configs = [config for _, config in runs]
    for config in ("tol.probability = 1e-13\n", "alpha 1.5\n", "bogus = 1\n",
                   "\ufeffalpha = 1.2\n"):
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


def test_help_runs_are_in_the_corpus_at_a_pinned_width(monkeypatch):
    # --help of the top level and of every subcommand: 1,503 argvs in
    # all, and 1,512 runs with the 9 library records.  argparse wraps help
    # at the terminal width, which record pins whatever COLUMNS says.
    tool = _load_tool()
    runs = tool.corpus()
    assert len(runs) == 1503
    argvs = [argv for argv, _ in runs]
    _, subcommands = cli._make_parser()
    for command in ([], *([name] for name in subcommands)):
        assert [*command, "--help"] in argvs
    entries = []
    for columns in ("40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        entries.append(tool.record(main, ["sweep", "--help"]))
    assert entries[0] == entries[1]
    assert entries[0]["exit"] == 0 and entries[0]["stderr"] == ""


def test_a_crashing_run_is_recorded_not_raised():
    # a main that prints, then raises: the run is one record whose exit
    # is "traceback" and whose stderr ends with the exception's line
    tool = _load_tool()

    def crashing(argv):
        print("partial")
        print("warned", file=sys.stderr)
        raise KeyError(argv[0])

    entry = tool.record(crashing, ["verify"])
    assert entry == {
        "stdout_sha256": hashlib.sha256(b"partial\n").hexdigest(), "out_sha256": None,
        "stderr": "warned\nKeyError: 'verify'\n", "exit": "traceback", "warnings": [],
    }


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


def test_late_widest_runs_widen_a_column_after_the_first_piece(capsys):
    # in each of these sweeps some column's widest text first appears
    # after the first piece of rendered output
    tool = _load_tool()
    argvs = [argv for argv, _ in tool.corpus()]
    for model, param, last in tool.LATE_WIDEST_SWEEPS:
        values = ",".join([*map(str, range(1, 96)), last])
        for fmt in tool.FORMATS:
            assert ["sweep", "--model", model, "--param", param, f"--values={values}",
                    "--format", fmt] in argvs
        main(["sweep", "--model", model, "--param", param, f"--values={values}",
              "--format", "csv"])
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[2:]]
        assert len(rows) > tool.CHUNK
        widths = [list(map(len, column)) for column in zip(*rows)]
        assert any(column.index(max(column)) >= tool.CHUNK for column in widths)


def test_library_records_cover_each_demo_and_the_quickstart(capsys):
    tool = _load_tool()
    root = _TOOL.parents[1]
    records = tool.library_records(root)
    demos = [f"demos/{path.name}" for path in sorted((root / "demos").glob("*.py"))]
    assert [r["library"] for r in records] == [
        *demos, "README.md quickstart", "fracwkb.fracops.rl_derivative_rows",
        "fracwkb.wkb.evaluate_models", "fracwkb package names",
    ]
    for entry in records:
        assert entry["exit"] == 0 and entry["warnings"] == [] and entry["out_sha256"] is None
        assert entry["stdout_sha256"] != hashlib.sha256(b"").hexdigest()
    # the kernel record ends with one error per overflowing order, and the
    # model record rejects, one call each, the rows whose S overflows
    tool._run_kernel_block()
    kernel = capsys.readouterr().out.splitlines()
    assert kernel[-3:] == [
        f"{order}: OverflowError: order {order} at step 0.000244140625 overflows a float"
        for order in ("2000.0", "1000000000.0", "300.5")
    ]
    tool._run_model_block()
    model = capsys.readouterr().out.splitlines()
    assert any(line.startswith("row ") and ": ValueError: S must be finite" in line
               for line in model)
    assert not any(line.endswith(": accepted") for line in model)
