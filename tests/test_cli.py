import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from fracwkb import cli, reporting, verification, wkb
from fracwkb.cli import RunConfig, _make_parser, main
from fracwkb.fracops import FractionalOrder, TimeGrid, roundoff_floor
from fracwkb.hamilton_jacobi import EnergyPartition, TransformedPoint
from fracwkb.mechanics import LagrangianSpec, example1, example2
from fracwkb.reporting import RecordBatch
from fracwkb.verification import resolve_tolerances
from fracwkb.wkb import SAMPLE_POINT, evaluate_model


def _csv_rows(text):
    lines = text.splitlines()
    assert lines[0] == "# schema_version=1"
    header = lines[1].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[2:]]


def test_no_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def test_deriv_oracle_summary(capsys):
    ret = main(["deriv", "--function", "x", "--alpha", "0.5", "--grid", "0,1,512"])
    out = capsys.readouterr().out
    assert ret == 0
    lines = out.splitlines()
    assert any(line.startswith("max_interior_error") and line.endswith("true") for line in lines)
    assert any(line.startswith("observed_order") and line.endswith("true") for line in lines)
    # one informational row per node
    assert sum(1 for line in lines if line.startswith("D[x=")) == 513


def test_deriv_default_grid_is_too_coarse_for_default_order(capsys):
    # the kernel tolerance is calibrated at count 4096; at the default
    # 1024 the order-1.5 kernel honestly misses it
    ret = main(["deriv"])
    captured = capsys.readouterr()
    assert ret == 1
    assert "max_interior_error" in captured.err


def test_deriv_divergent_node_flagged(capsys):
    ret = main(
        ["deriv", "--function", "const", "--alpha", "0.5", "--grid", "0,1,64", "--format", "csv"]
    )
    captured = capsys.readouterr()
    assert ret in (0, 1)
    rows = _csv_rows(captured.out)
    node0 = next(row for row in rows if row["quantity"] == "D[x=0]")
    assert node0["analytic"] == "inf"
    assert node0["tolerance"] == "inf"
    assert node0["pass"] == "true"
    # informational rows never appear among the failures
    assert "D[x=0]" not in captured.err


def test_deriv_right_side(capsys):
    ret = main(["deriv", "--function", "x", "--side", "right", "--beta", "0.5", "--grid", "0,1,512"])
    assert ret == 0
    rows = capsys.readouterr().out.splitlines()
    assert any(line.startswith("observed_order") and line.endswith("true") for line in rows)


def test_deriv_sides_share_the_interior(capsys):
    # on 70 intervals node 7 is 7 * (1/70) = 0.09999999999999999 from
    # the left end: the interior is counted in nodes, so both sides
    # compare mirrored nodes and their errors differ by rounding alone
    # (6.9e-14); a node on one side only moved the error by 5.7e-3
    errors = []
    for flags in (["--alpha", "1.5"], ["--side", "right", "--beta", "1.5"]):
        main(["deriv", "--grid", "0,1,70", "--function", "x", "--format", "csv", *flags])
        rows = _csv_rows(capsys.readouterr().out)
        error = next(row for row in rows if row["quantity"] == "max_interior_error")
        errors.append(float(error["numeric"]))
    floor = roundoff_floor(FractionalOrder(1.5), TimeGrid(0.0, 1.0, 70), 1.0)
    assert abs(errors[1] - errors[0]) <= floor


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    a=st.floats(-100.0, 100.0),
    width=st.floats(1e-2, 100.0),
    count=st.integers(2, 64),
    function=st.sampled_from(["const", "x", "x2", "x3"]),
    beta=st.sampled_from(["0.5", "1", "1.5", "2"]),
)
# a + step * count rounds past b on this grid; the last offset from b
# was -2.2e-16 and deriv exited 2
@example(a=0.0, width=1.8, count=7, function="x", beta="0.5")
# the coarse error is exactly 0 and the fine one above twice its floor;
# the log of their ratio raised "math domain error" and deriv exited 2
@example(a=15.115942764213088, width=0.9296885141416986, count=2, function="x", beta="2")
def test_right_deriv_runs_on_every_grid(a, width, count, function, beta, capsys):
    b = a + width
    grid = cli._parse_grid(f"{a!r},{b!r},{count}")
    for nodes in (grid.nodes(), TimeGrid(a, b, 4 * count).nodes()):
        assert np.all((nodes >= a) & (nodes <= b))
    argv = [
        "deriv", "--function", function, "--side", "right", "--beta", beta,
        f"--grid={a!r},{b!r},{count}", "--format", "csv",
    ]
    assert main(argv) in (0, 1)
    assert not capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["deriv", "--function", "x", "--alpha", "1"],
        ["deriv", "--function", "x2", "--side", "right", "--beta", "2"],
        # non-dyadic step: the exact stencil leaves roundoff, not 0, and
        # the roundoff grows on the finer grid (a ratio of order -1.9)
        ["deriv", "--function", "x2", "--alpha", "2", "--grid", "0,1,300"],
        # near order 2 the fine-grid error is 0.77x to 1.46x its roundoff
        # floor; gated, these ratios gave orders 0.78, -0.10 and 0.24
        ["deriv", "--function", "x2", "--alpha", "1.9", "--grid", "0,1,16384"],
        ["deriv", "--function", "x2", "--alpha", "1.95", "--grid", "0,1,16384"],
        ["deriv", "--function", "x2", "--alpha", "1.99", "--grid", "0,1,4096"],
    ],
)
def test_deriv_exact_kernel_reports_summary(argv, capsys):
    # the fine-grid interior error is at most twice its roundoff floor
    # (the kernel is exact, or nearly so), so the error ratio carries no
    # convergence order: the order record is informational, the run
    # passes and warns nothing
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ret = main(argv + ["--format", "csv"])
    captured = capsys.readouterr()
    assert ret == 0
    assert not caught
    assert captured.err == ""
    summary = {
        row["quantity"]: row for row in _csv_rows(captured.out)
        if not row["quantity"].startswith("D[x=")
    }
    assert set(summary) == {"max_interior_error", "observed_order"}
    if "--grid" not in argv:
        # on the dyadic default grid the stencil leaves no roundoff at all
        assert summary["max_interior_error"]["numeric"] == "0"
    assert summary["max_interior_error"]["tolerance"] == "0.001"
    order = summary["observed_order"]
    assert (order["numeric"], order["tolerance"], order["pass"]) == ("nan", "inf", "true")


def test_unknown_function_is_usage_error():
    with pytest.raises(SystemExit) as info:
        main(["deriv", "--function", "x9"])
    assert info.value.code == 2


def test_malformed_grid(capsys):
    ret = main(["deriv", "--grid", "0,1"])
    assert ret == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["deriv", "--grid", "0,1,1e3"], "--grid count must be an integer, got '1e3'"),
        (["deriv", "--grid", "a,1,4"], "--grid endpoint must be a number, got 'a'"),
        (["deriv", "--grid", "0,b,4"], "--grid endpoint must be a number, got 'b'"),
        (["example1", "--tol", "probability=x"], "--tol probability must be a number, got 'x'"),
        (["example1", "--tol", "probability="], "--tol probability must be a number, got ''"),
        (["sweep", "--param=e1", "--values", "1,x"], "--values entry must be a number, got 'x'"),
    ],
)
def test_unparsable_number_names_its_flag(argv, message, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_overflowing_samples_are_usage_error(capsys):
    # (b - a)**3 overflows: the inf sample is rejected, without a warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ret = main(["deriv", "--function", "x3", "--grid", "0,1e200,64"])
    assert ret == 2
    assert not caught
    assert capsys.readouterr().err.startswith("error:")


_STEP_NOT_FINITE = "error: grid step (b - a) / count must be positive and finite, got "
_ENDS_SHORT = (
    "error: grid nodes must end at b=1e-320, but with step 5e-324 the last node"
    " a + count * step is 7.41e-321, more than half a step from b\n"
)
_REFINED_STEP_UNDERFLOWS = (
    "error: 4x refinement grid 0.0,1e-320,4048: grid step (b - a) / count must be"
    " positive and finite, got 0.0\n"
)
_DEGENERATE_GRIDS = {
    "0,1e-320,100000": _STEP_NOT_FINITE,
    # 2024 float spacings over 500 steps round to 4 a step, ending 6
    # steps short of b, and over 1500 to 1, ending 524 short
    "0,1e-320,500": (
        "error: grid nodes must end at b=1e-320, but with step 2e-323 the last node"
        " a + count * step is 9.88e-321, more than half a step from b\n"
    ),
    "0,1e-320,1500": _ENDS_SHORT,
    "0,1e-320,1012": _REFINED_STEP_UNDERFLOWS,
    "-1e308,1e308,4": _STEP_NOT_FINITE,
}


@pytest.mark.parametrize("grid", list(_DEGENERATE_GRIDS))
def test_degenerate_grid_step_is_usage_error(grid, capsys):
    # a step that underflows to 0, on the grid itself or on its 4N
    # refinement, a subnormal step that rounds to whole float spacings
    # and ends short of b, or a width that overflows to inf: exit 2 with
    # one line naming the step, no output, and no warning or traceback
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ret = main(["deriv", f"--grid={grid}"])
    assert ret == 2
    assert not caught
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(_DEGENERATE_GRIDS[grid])
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "grid", ["1e16,1.0000000000000004e16,2", "-1.0000000000000004e16,-1e16,2"]
)
def test_collapsing_refinement_grid_is_usage_error(grid, capsys):
    # each step is one float spacing, and the 4N refinement's a quarter
    # of one, so refined nodes round onto each other: exit 2 naming the
    # refinement grid, not an order of -inf in a FAIL record
    assert main(["deriv", f"--grid={grid}", "--format", "csv"]) == 2
    captured = capsys.readouterr()
    a, b, _ = (float(x) for x in grid.split(","))
    assert captured.out == ""
    assert captured.err == (
        f"error: 4x refinement grid {a!r},{b!r},8: grid nodes must be strictly increasing,"
        " but with step 0.5 and a float spacing of 2.0 at the endpoints some round onto"
        " each other\n"
    )


def test_refinement_grid_is_checked_before_any_kernel_call(monkeypatch, capsys):
    # 0,1e-320,1012 steps exactly 2 spacings, and its 4N grid's half a
    # spacing underflows: deriv names the refinement grid and runs no
    # kernel.  0,1e-320,1500 is rejected on its own grid.
    calls = []
    check = verification.power_kernel_check

    def counted(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(verification, "power_kernel_check", counted)
    assert main(["deriv", "--grid", "0,1e-320,1012"]) == 2
    assert capsys.readouterr().err == _REFINED_STEP_UNDERFLOWS
    assert main(["deriv", "--grid", "0,1e-320,1500"]) == 2
    assert capsys.readouterr().err == _ENDS_SHORT
    assert calls == []
    main(["deriv", "--grid", "0,1,64"])
    capsys.readouterr()
    assert len(calls) == 2


def test_unallocatable_grid_is_usage_error(monkeypatch, capsys):
    # a grid too large to allocate (say 0,1,100000000000) exits 2 with a
    # message, not a traceback with exit 1.  The nodes' MemoryError is
    # raised by a stand-in on a small grid: a real attempt could succeed
    # under overcommit and exhaust the machine.
    def unallocatable(self):
        raise MemoryError("Unable to allocate 745. GiB for an array")

    monkeypatch.setattr(TimeGrid, "nodes", unallocatable)
    assert main(["deriv", "--grid", "0,1,64"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: Unable to allocate 745. GiB for an array\n"


def test_overflowing_model_setting_is_usage_error(capsys):
    # q**2, a W slope or S overflows a float: exit 2 with a message naming
    # the overflowing quantity and the settings that enter it, not a
    # traceback or a warning
    w1 = "W1 slope must be finite, got inf at c_alpha = {}, l_alpha = {}, v = {}, q = {}, e1 = {}"
    w2 = "W2 slope must be finite, got inf at c_beta = {}, l_beta = {}, e2 = {}"
    # both slopes finite and positive, but e1 + e2 overflows, and S with it
    total = ["sweep", "--model", "custom", "--c-beta", "0.25", "--e2", "1.7e308", "--hbar",
             "1e300", "--param", "e1", "--values", "8e307"]
    for argv, message in (
        (["example1", "--q", "1e308"], "q**2 overflows a float at q = 1e+308"),
        (
            ["sweep", "--param", "q", "--values", "1,-1e308"],
            "q**2 overflows a float at q = -1e+308",
        ),
        (["example1", "--e1", "1e308"], w1.format(1.0, 0.0, 0.0, 0.0, 1e308)),
        (["example2", "--e1", "1e308"], w1.format(1.0, 1.0, 1.0, 0.0, 1e308)),
        (["example2", "--q", "1e308"], w1.format(1.0, 1.0, 1.0, 1e308, 1.0)),
        (
            ["sweep", "--model", "custom", "--c-alpha", "1e308", "--param", "q", "--values", "0"],
            w1.format(1e308, 0.0, 0.0, 0.0, 1.0),
        ),
        (["example2", "--e2", "1e308"], w2.format(1.0, 1.0, 1e308)),
        (total, "S must be finite, got -inf at e1 + e2 = inf, u1 = 0.02, u2 = -0.015, t = 0.005"),
    ):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ret = main(argv)
        assert (ret, capsys.readouterr().err, caught) == (2, f"error: {message}\n", []), argv


@pytest.mark.parametrize(
    "argv",
    [
        ["deriv", "--alpha", "inf"],
        ["deriv", "--side", "right", "--beta", "nan"],
        ["example1", "--alpha", "inf"],
    ],
)
def test_bad_tolerance_is_reported_before_a_bad_order(argv, capsys):
    # every subcommand resolves its tolerances before it reads a setting
    assert main(argv + ["--tol", "bogus=1"]) == 2
    assert capsys.readouterr().err.startswith("error: unknown tolerance 'bogus'")


@pytest.mark.parametrize(
    "coefficients, product",
    [
        (["--l-alpha", "1e-200", "--l-beta", "1e-200"], "0.0"),
        (["--l-alpha", "1e308", "--l-beta", "1e308", "--hbar", "1e308"], "inf"),
        (["--l-alpha", "1", "--l-beta", "1e-313"], "1e-313"),
    ],
)
def test_momentum_product_out_of_range_is_usage_error(coefficients, product, capsys):
    # psi's prefactor is 1/sqrt(p_alpha * p_beta): a product that
    # underflows to 0, overflows to inf or is so small that its
    # reciprocal, |psi|**2, overflows exits 2 with a message naming it,
    # not a traceback or a RuntimeWarning
    argv = [
        "sweep", "--model", "custom", *coefficients,
        "--e1", "0", "--e2", "0", "--param", "q", "--values", "0",
    ]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 2
    assert not caught
    err = capsys.readouterr().err
    assert err == (
        f"error: prefactor undefined: momentum product p_alpha * p_beta = {product}"
        " underflows or overflows a float\n"
    )
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, line",
    [
        (["deriv", "--beta", "0.5"], None),
        (["deriv", "--side", "left", "--beta", "0.5"], None),
        (["deriv", "--side", "right", "--alpha", "0.5"], None),
        (["deriv", "--side", "left"], "beta = 0.5"),
        (["deriv", "--side", "right"], "alpha = 0.5"),
        (["deriv"], "side = right\nalpha = 0.5"),
    ],
)
def test_deriv_rejects_other_sides_order(argv, line, tmp_path, capsys):
    # deriv reads --alpha on the left and --beta on the right; the other
    # order would be ignored, so it is an error wherever it comes from
    if line is not None:
        config = tmp_path / "run.cfg"
        config.write_text(line + "\n", encoding="utf-8")
        argv = argv + ["--config", str(config)]
    ret = main(argv + ["--grid", "0,1,64"])
    captured = capsys.readouterr()
    assert ret == 2
    assert captured.out == ""
    assert "does not apply to --side" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--alpha", "3"],
        ["verify", "--grid", "0,1,5"],
        ["verify", "--e1", "9"],
        ["deriv", "--e1", "2"],
        ["deriv", "--model", "custom"],
        ["example1", "--grid", "0,1,8"],
        ["example2", "--param", "e1"],
    ],
)
def test_flag_of_another_subcommand_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    # reported by the subcommand's parser, so the usage shows its flags
    err = capsys.readouterr().err
    assert err.startswith(f"usage: fracwkb {argv[0]} [-h]")
    assert f"fracwkb {argv[0]}: error: unrecognized arguments: {' '.join(argv[1:])}" in err


@pytest.mark.parametrize("argv", [["--alpha", "3", "verify"], ["--format=csv", "verify"]])
def test_flag_before_subcommand_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    flag = argv[0].split("=")[0]
    assert f"fracwkb: error: {flag} comes before the subcommand; flags go after it" in (
        capsys.readouterr().err
    )


_SUBCOMMANDS = ["deriv", "example1", "example2", "verify", "sweep"]


def _described(parser):
    return [
        (a.option_strings, a.dest, a.type, a.choices, a.default, a.metavar, a.help)
        for a in parser._actions
    ]


@pytest.mark.parametrize("name", _SUBCOMMANDS)
def test_one_subcommand_parser_equals_its_part_of_the_full_parser(name):
    _, alone = _make_parser(name)
    _, full = _make_parser()
    assert list(alone) == [name] and list(full) == _SUBCOMMANDS
    assert alone[name].prog == full[name].prog == f"fracwkb {name}"
    assert alone[name].format_help() == full[name].format_help()
    assert alone[name].format_usage() == full[name].format_usage()
    assert _described(alone[name]) == _described(full[name])


@pytest.mark.parametrize(
    "argv, built",
    [
        (["example1", "--format", "csv"], ["example1"]),
        (["deriv", "--grid", "0,1,8", "--function", "x2"], ["deriv"]),
        (["sweep", "--param", "e1", "--values", "1,2"], ["sweep"]),
        (["verify", "--help"], ["verify"]),
        (["example2", "--bogus"], ["example2"]),
        ([], _SUBCOMMANDS),
        (["derive"], _SUBCOMMANDS),
        (["-h", "verify"], _SUBCOMMANDS),
        (["--alpha", "3", "verify"], _SUBCOMMANDS),
    ],
)
def test_main_builds_only_the_invoked_subparser(argv, built, monkeypatch, capsys):
    # a first argument that names a subcommand registers only its parser;
    # anything else registers all five, whose usage and help name them all
    made = []

    def recording(command=None):
        parser, commands = make_parser(command)
        made.append(list(commands))
        return parser, commands

    make_parser = cli._make_parser
    monkeypatch.setattr(cli, "_make_parser", recording)
    with contextlib.suppress(SystemExit):
        main(argv)
    assert made == [built]
    capsys.readouterr()


def test_deriv_huge_integer_order_output_is_pinned(capsys):
    # the binomial row of order 1e9 overflows past its first weights.  The
    # run used to exit 1, with stdout sha256
    # 16334923f301cb936851546737e8bd05f1540df348771d89672b56b222f15773 and
    # nan max_interior_error and observed_order FAILs; the kernel now
    # rejects the row before any sum, so it exits 2 with one message and
    # no output
    ret = main(["deriv", "--alpha", "1e9", "--grid", "0,1,16384", "--format", "csv"])
    captured = capsys.readouterr()
    assert ret == 2
    assert captured.out == ""
    assert captured.err == (
        "error: grid 0.0,1.0,16384: order 1000000000.0 at step 6.103515625e-05 overflows"
        " a float\n"
    )


# (exit code, sha256 of stdout) of deriv on each side, taken when the
# kernel's FFT length became 5-smooth and its weights stopped cancelling
# near integer orders; the last grid is shifted off [0, 1] and its last
# node lands on b
_DERIV_SHA256 = {
    ("x2", "left", "0.6", "0,1,1024", "csv"): (
        0, "bdfaf2c31462f71dc8d2bdbf3fbb69540b6d879dcc720f98da9835e5037ada97"
    ),
    ("x3", "right", "1.5", "0,1,4096", "table"): (
        0, "69a53dc100ea8e0250a18678833110a4ff624613b049f1deedb69653bfa5f76b"
    ),
    ("x", "left", "2", "0,1,4096", "json"): (
        0, "820534c6c0db1af811c35642dd467a75681c2eaf4a439ba36c3a557aae2f9ddd"
    ),
    ("x3", "left", "1.5", "0,1,1024", "json"): (
        1, "6e60ae86d91259e56a11154ac43d2ce320b35d119b0d2ed9c7a0fe461f2f4f38"
    ),
    ("x2", "right", "0.6", "0,1,4096", "csv"): (
        0, "8457456118725727fca7382e5bbc20ed49b65fc96544f6519df3dbc0e29d5f9e"
    ),
    ("x2", "right", "1.5", "0.3,1.7,1024", "table"): (
        1, "59a08b57c732f19c09f479b395674bc0f23d73b60b554a76473ccee1a03619ab"
    ),
}


def test_deriv_output_is_pinned(capsys):
    # every byte of each deriv report stays as it was
    digests = {}
    for function, side, order, grid, fmt in _DERIV_SHA256:
        argv = [
            "deriv", "--function", function, "--side", side,
            "--alpha" if side == "left" else "--beta", order, "--grid", grid, "--format", fmt,
        ]
        ret = main(argv)
        out = capsys.readouterr().out
        digests[function, side, order, grid, fmt] = ret, hashlib.sha256(out.encode()).hexdigest()
    assert digests == _DERIV_SHA256


# sha256 of stdout for a 50-step e2 sweep, taken when psi's arithmetic
# became numpy's on both the scalar and the batch path
_SWEEP_SHA256 = {
    ("example1", "csv"): "d8879d4919c9c9da9e83273abad6dceca60bb3ca2eb6fd115139c5a4b98681f6",
    ("example1", "table"): "0db0e90989a3c7903fc1e6bc4dcffc28c127e7d3aef7c1a3a14cc00d94429479",
    ("example1", "json"): "342ef14649008964125ab9c24d20006f5c2d1b7888461d069d4c291d4a762ec7",
    ("example2", "csv"): "f1831007956e5ad5f1ba96b6342f57d6d5ac51fa7d282b275f34872bb4b8d7ef",
    ("example2", "table"): "3f9b21334f36f94d59fd0e365fde5989d7b839bf78c103117ab21e52cd818602",
    ("example2", "json"): "37daa23746947678733fea9ec0ffd2a9a58795c52ff4cf41a88062dc3e2417ed",
    # custom's default coefficients are example1's, and every model's
    # closed forms are one expansion, so the two reports are the same
    ("custom", "csv"): "d8879d4919c9c9da9e83273abad6dceca60bb3ca2eb6fd115139c5a4b98681f6",
    ("custom", "table"): "0db0e90989a3c7903fc1e6bc4dcffc28c127e7d3aef7c1a3a14cc00d94429479",
    ("custom", "json"): "342ef14649008964125ab9c24d20006f5c2d1b7888461d069d4c291d4a762ec7",
}


def test_sweep_output_is_pinned(capsys):
    # every byte of each model's sweep report in each format stays as it
    # was; the first step (e2 = 0) has no wave field and keeps 4 records
    digests = {}
    for model, fmt in _SWEEP_SHA256:
        argv = [
            "sweep", "--model", model, "--param", "e2",
            "--from", "0", "--to", "3", "--steps", "50", "--format", fmt,
        ]
        assert main(argv) == 0
        digests[model, fmt] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digests == _SWEEP_SHA256


# sha256 of verify's stdout, taken when the discrete-eigenvalue records
# replaced the step-halving energy ratios
_VERIFY_SHA256 = {
    "csv": "b9cabe66bf904d658043b3cafc970d2b446b6625115b2a6a5679a7568b2da682",
    "table": "f318574df40c9bf6abaed70d4c7b301f171270a91ce92744f22c1c0a3ceab979",
    "json": "ed68f9ab1cffe135c4120584910b64acaa18f8e5f3044e78604635678133f391",
}


def test_verify_output_is_pinned(capsys):
    # every byte of the verify report in each format stays as it was
    digests = {}
    for fmt in _VERIFY_SHA256:
        assert main(["verify", "--format", fmt]) == 0
        digests[fmt] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digests == _VERIFY_SHA256


def test_example1_defaults_pass(capsys):
    ret = main(["example1"])
    out = capsys.readouterr().out
    assert ret == 0
    for name in ("w1_slope", "w2_slope", "S", "hj_residual", "p_alpha", "energy", "probability"):
        assert name in out
    body = out.splitlines()[2:]
    assert body and all(line.endswith("true") for line in body)


def test_example2_csv_all_pass(capsys):
    ret = main(["example2", "--q", "1", "--format", "csv"])
    rows = _csv_rows(capsys.readouterr().out)
    assert ret == 0
    assert len(rows) == 11
    assert all(row["pass"] == "true" for row in rows)
    # driven model at q=1: slope1 = sqrt(3) + 1
    w1 = next(row for row in rows if row["quantity"] == "w1_slope")
    assert float(w1["analytic"]) == math.sqrt(3.0) + 1.0


def test_output_is_byte_deterministic(capsys):
    main(["example1", "--format", "json"])
    first = capsys.readouterr().out
    main(["example1", "--format", "json"])
    second = capsys.readouterr().out
    assert first == second


def test_zero_energy_emits_structural_subset(capsys):
    ret = main(["example1", "--e1", "0", "--e2", "0", "--format", "csv"])
    rows = _csv_rows(capsys.readouterr().out)
    assert ret == 0
    assert [row["quantity"] for row in rows] == ["w1_slope", "w2_slope", "S", "hj_residual"]


def test_tolerance_corruption_fails(capsys):
    ret = main(["example1", "--tol", "probability=0"])
    captured = capsys.readouterr()
    assert ret == 1
    assert "failing records:" in captured.err
    assert "probability" in captured.err


def test_unknown_tolerance_name(capsys):
    ret = main(["example1", "--tol", "bogus=1"])
    assert ret == 2
    assert "unknown tolerance" in capsys.readouterr().err


_REFINED = "4x refinement grid 0.0,1.0,256: order "

# deriv argvs whose order overflows, and the message each exits 2 with
_HUGE_ORDERS = [
    (
        ["deriv", "--alpha", "2000", "--grid", "0,1,4096"],
        "grid 0.0,1.0,4096: order 2000.0 at step 0.000244140625 overflows a float",
    ),
    (
        ["deriv", "--alpha", "300.5", "--grid", "0,1,64"],
        "grid 0.0,1.0,64: order 300.5 at step 0.015625 overflows a float",
    ),
    (
        ["deriv", "--alpha", "1e20", "--grid", "0,1,10"],
        "grid 0.0,1.0,10: order 1e+20 at step 0.1 overflows a float",
    ),
    # weights and scale finite on both grids, but the power rule
    # overflows in the interior
    (
        ["deriv", "--alpha", "126.5", "--grid", "0,1,64"],
        "grid 0.0,1.0,64: order 126.5 overflows a float: its max interior error is not"
        " finite",
    ),
    # the sums overflow on the grid itself, before its refinement's scale
    (
        ["deriv", "--alpha", "150", "--grid", "0,1,64"],
        "grid 0.0,1.0,64: order 150.0 overflows a float: its derivative is not finite",
    ),
    # the grid's values are finite: its refinement's scale, then its
    # sums, overflow
    (
        ["deriv", "--alpha", "150", "--grid", "0,1,64", "--function", "x3"],
        _REFINED + "150.0 at step 0.00390625 overflows a float",
    ),
    (
        ["deriv", "--side", "right", "--beta", "120.5", "--grid", "0,1,64", "--function",
         "x3"],
        _REFINED + "120.5 overflows a float: its derivative is not finite",
    ),
    # on the refinement, where the sums overflow, some finite values
    # also differ from the power rule by more than a float holds
    (
        ["deriv", "--alpha", "120.3", "--grid", "0,1,64", "--function", "x3"],
        _REFINED + "120.3 overflows a float: its derivative is not finite",
    ),
]


@pytest.mark.parametrize(
    "argv, message", _HUGE_ORDERS, ids=[f"argv{i}" for i in range(len(_HUGE_ORDERS))]
)
def test_deriv_huge_order_fails_without_traceback(argv, message, capsys):
    # an order that overflows the kernel's weights or scale, the sums or
    # the power rule exits 2 with one message naming the order and the
    # grid, with no output and no warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ret = main(argv + ["--format", "csv"])
    captured = capsys.readouterr()
    assert (ret, captured.out, captured.err) == (2, "", f"error: {message}\n")
    assert not caught


def test_deriv_unknown_tolerance_name(capsys):
    # deriv resolves against its own table, which has no model tolerances
    ret = main(["deriv", "--tol", "hj_residual=1"])
    assert ret == 2
    assert "unknown tolerance" in capsys.readouterr().err


def test_bad_tolerance_syntax(capsys):
    ret = main(["example1", "--tol", "probability"])
    assert ret == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "name, value, message",
    [
        ("e1", "-1", "energy shares must be >= 0, got -1.0, 1.0"),
        ("fd_step", "0", "step must be finite and positive, got 0.0"),
        ("alpha", "0.5", "orders alpha and beta must be at least 1, got 0.5, 1.5"),
        ("alpha", "inf", "order must be finite and positive, got inf"),
        # zero energies leave no wave field to difference
        ("fd_step", "inf", "step must be finite and positive, got inf"),
        ("hbar", "inf", "hbar must be finite and positive, got inf"),
    ],
)
def test_bad_setting_fails_alike_from_flag_config_or_sweep(name, value, message, tmp_path, capsys):
    # the scalar model path checks a setting wherever it comes from
    zero = ["--e1=0", "--e2=0"] if value == "inf" and name != "alpha" else []
    config = tmp_path / "run.cfg"
    config.write_text(f"{name} = {value}\n", encoding="utf-8")
    runs = [
        ["example1", f"--{name.replace('_', '-')}={value}", *zero],
        ["example1", "--config", str(config), *zero],
    ]
    if name in verification.SWEEP_PARAMS:
        runs.append(["sweep", "--param", name, f"--values={value}", *zero])
    for argv in runs:
        assert (main(argv), capsys.readouterr().err) == (2, f"error: {message}\n"), argv


def test_alpha_below_one_rejected_for_models(capsys):
    ret = main(["example1", "--alpha", "0.9"])
    assert ret == 2
    assert "alpha" in capsys.readouterr().err


def test_config_file_and_flag_precedence(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(
        "# model run settings\n"
        "e1 = 2.0\n"
        "format = csv\n"
        "tol.closed_form = 1e-9\n",
        encoding="utf-8",
    )
    ret = main(["example1", "--config", str(config)])
    rows = _csv_rows(capsys.readouterr().out)
    assert ret == 0
    w1 = next(row for row in rows if row["quantity"] == "w1_slope")
    assert w1["analytic"] == "2"  # sqrt(2 * 2.0)
    assert float(w1["tolerance"]) == 1e-9

    # explicit flag wins over the file value
    ret = main(["example1", "--config", str(config), "--e1", "8"])
    rows = _csv_rows(capsys.readouterr().out)
    assert ret == 0
    w1 = next(row for row in rows if row["quantity"] == "w1_slope")
    assert w1["analytic"] == "4"


def test_config_file_unknown_key(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("junk = 1\n", encoding="utf-8")
    ret = main(["example1", "--config", str(config)])
    assert ret == 2
    assert "unknown config key" in capsys.readouterr().err


def test_config_file_with_a_byte_order_mark_reads_as_without_one(tmp_path, capsys):
    # an editor may start a UTF-8 file with U+FEFF, which is no part of
    # its first key
    text = b"alpha = 1.2\ngrid = 0,1,64\nformat = csv\n"
    outputs = []
    for name, data in (("plain.cfg", text), ("bom.cfg", b"\xef\xbb\xbf" + text)):
        config = tmp_path / name
        config.write_bytes(data)
        outputs.append((main(["deriv", "--config", str(config)]), *capsys.readouterr()))
    # the same run from flags; order 1.2 on 64 intervals misses the kernel
    # tolerance, so it exits 1, not 2
    flags = ["deriv", "--alpha", "1.2", "--grid", "0,1,64", "--format", "csv"]
    outputs.append((main(flags), *capsys.readouterr()))
    assert outputs[0] == outputs[1] == outputs[2] and outputs[0][0] == 1


def test_config_line_without_equals_names_its_line(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("# the model's order\nalpha 1.5\n", encoding="utf-8")
    assert main(["example1", "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {config}:2: expected KEY = VALUE, got 'alpha 1.5'\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "command, line, message",
    [
        ("example1", "alpha = x", "--alpha must be a number, got 'x'"),
        ("sweep", "steps = 2.5", "--steps must be an integer, got '2.5'"),
        ("deriv", "grid = 0,1,1e3", "--grid count must be an integer, got '1e3'"),
        ("verify", "format = xml", "--format must be one of table, csv, json, got 'xml'"),
        ("deriv", "tol.kernel_order = x", "--tol kernel_order must be a number, got 'x'"),
    ],
)
def test_config_value_that_does_not_parse_names_its_line(
    command, line, message, tmp_path, capsys
):
    config = tmp_path / "run.cfg"
    config.write_text(f"# a comment\n{line}\n", encoding="utf-8")
    ret = main([command, "--config", str(config)])
    captured = capsys.readouterr()
    assert ret == 2
    assert captured.out == ""
    assert captured.err == f"error: {config}:2: {message}\n"


@pytest.mark.parametrize(
    "command, line",
    [
        ("example1", "grid = 0,1,8"),  # a deriv flag
        ("verify", "alpha = 2"),
        ("example1", "config = other.cfg"),
        ("example1", "hb = 2"),  # an abbreviation of hbar
        ("example1", "fd-step = 1e-3"),  # keys spell - as _
        ("example1", "help = 1"),
    ],
)
def test_config_key_must_be_exact_flag_of_subcommand(command, line, tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(line + "\n", encoding="utf-8")
    ret = main([command, "--config", str(config)])
    captured = capsys.readouterr()
    assert ret == 2
    assert captured.out == ""
    assert "unknown config key" in captured.err


def test_config_file_takes_every_flag_of_its_subcommand(tmp_path, capsys):
    # sweep's own flags, an underscore key and a repeated tolerance
    config = tmp_path / "sweep.cfg"
    config.write_text(
        "param = e1\nvalues = 2,8\nfd_step = 1e-3\nmodel = example2\n"
        "format = csv\ntol.momentum_eigenvalue = 1\ntol.energy_eigenvalue = 1\n",
        encoding="utf-8",
    )
    ret = main(["sweep", "--config", str(config), "--tol", "energy_eigenvalue=0"])
    captured = capsys.readouterr()
    assert ret == 1
    rows = _csv_rows(captured.out)
    w1 = [row for row in rows if row["quantity"] == "w1_slope"]
    assert [row["e1"] for row in w1] == ["2", "8"]
    assert float(w1[0]["analytic"]) == math.sqrt(4.0) + 1.0
    # the command line's tolerance wins over the file's; the file's
    # stencil step 1e-3 leaves energy residuals of 2e-6 to 4e-6 (about
    # 2e-8 at the default 1e-4)
    energy = [row for row in rows if row["quantity"] == "energy"]
    assert [row["tolerance"] for row in energy] == ["0", "0"]
    assert all(float(row["residual"]) > 1e-6 for row in energy)
    assert all(row["tolerance"] == "1" for row in rows if row["quantity"] == "p_alpha")


def test_sweep_explicit_values(capsys):
    ret = main(["sweep", "--param", "e1", "--values", "0.5,2,8", "--format", "csv"])
    rows = _csv_rows(capsys.readouterr().out)
    assert ret == 0
    w1 = [row for row in rows if row["quantity"] == "w1_slope"]
    assert [row["e1"] for row in w1] == ["0.5", "2", "8"]
    assert [float(row["analytic"]) for row in w1] == [1.0, 2.0, 4.0]


def test_sweep_linear_range(capsys):
    ret = main(
        [
            "sweep", "--param", "q", "--from", "0", "--to", "2", "--steps", "3",
            "--model", "example2", "--format", "csv",
        ]
    )
    rows = _csv_rows(capsys.readouterr().out)
    assert ret == 0
    w1 = [row for row in rows if row["quantity"] == "w1_slope"]
    assert [row["q"] for row in w1] == ["0", "1", "2"]
    assert float(w1[2]["analytic"]) == math.sqrt(6.0) + 1.0


def test_sweep_missing_values(capsys):
    assert main(["sweep", "--param", "e1"]) == 2
    capsys.readouterr()
    assert main(["sweep", "--param", "e1", "--values", ""]) == 2
    capsys.readouterr()
    assert main(["sweep", "--param", "e1", "--from", "0", "--to", "1"]) == 2
    assert "steps" in capsys.readouterr().err


def test_sweep_of_zero_steps_is_usage_error(capsys):
    argv = ["sweep", "--param", "e1", "--from", "0", "--to", "1", "--steps", "0"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --steps must be >= 1\n"
    assert captured.out == ""


def test_sweep_of_one_step_is_one_row_at_from(capsys):
    argv = ["sweep", "--param", "e1", "--from", "0.5", "--to", "1", "--steps", "1"]
    assert main([*argv, "--format", "csv"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = _csv_rows(captured.out)
    assert [row["quantity"] for row in rows] == list(verification._MODEL_RECORDS)
    assert {row["e1"] for row in rows} == {"0.5"}


@pytest.mark.parametrize(
    "flags, config",
    [
        (["--values", "1.5", "--from", "1", "--to", "2", "--steps", "3"], None),
        (["--values", "1.5", "--steps", "0"], None),
        (["--values", "1.5"], "from = 1\n"),
        (["--from", "1", "--to", "2", "--steps", "3"], "values = 1.5\n"),
    ],
)
def test_sweep_of_values_and_a_range_is_usage_error(flags, config, tmp_path, capsys):
    # --values and --from/--to/--steps are two value sources; neither is
    # dropped for the other, from a flag or a config line
    argv = ["sweep", "--param", "alpha", *flags]
    if config is not None:
        path = tmp_path / "run.cfg"
        path.write_text(config, encoding="utf-8")
        argv += ["--config", str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: sweep needs --values or --from/--to/--steps, not both\n"
    assert captured.out == ""


def test_sweep_without_param_is_usage_error(capsys):
    assert main(["sweep", "--values", "1,2"]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "error: sweep parameter must be one of ('alpha', 'beta', 'e1', 'e2', 'q', 'fd_step')\n"
    )
    assert captured.out == ""


@pytest.mark.parametrize("value, shown", [("-1", "-1.0"), ("nan", "nan")])
def test_negative_or_nan_tolerance_is_usage_error(value, shown, capsys):
    assert main(["verify", "--tol", f"kernel_max_error={value}"]) == 2
    captured = capsys.readouterr()
    message = f"tolerance kernel_max_error must be finite and >= 0, got {shown}"
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, name, table",
    [
        (["deriv", "--grid", "0,1,64"], "kernel_max_error", verification._DERIV_TOLERANCES),
        (["example1"], "probability", verification._EXAMPLE_TOLERANCES),
        (["verify"], "imag_part", verification.DEFAULT_TOLERANCES),
    ],
    ids=["deriv", "models", "verify"],
)
def test_negative_zero_tolerance_is_stored_and_printed_as_zero(argv, name, table, capsys):
    # -0.0 is not below 0, so it is accepted; it gates as 0 does, and its
    # records print a tolerance of 0, not -0
    resolved = verification.resolve_tolerances({name: -0.0}, table)[name]
    assert math.copysign(1.0, resolved) == 1.0
    outputs = []
    for value in ("-0.0", "0"):
        ret = main([*argv, "--tol", f"{name}={value}", "--format", "csv"])
        outputs.append((ret, *capsys.readouterr()))
    assert outputs[0] == outputs[1]
    assert ",-0," not in outputs[0][1] and ",0," in outputs[0][1]


def test_step_whose_square_underflows_is_usage_error(capsys):
    assert main(["example1", "--fd-step", "1e-170"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: step 1e-170 is too small: its square underflows to 0\n"
    assert captured.out == ""


def test_sweep_fd_step_exposes_stencil_error(capsys):
    # coarse stencil honestly fails the 1e-6 eigenvalue tolerance and
    # the residual scales as fd_step**2
    ret = main(["sweep", "--param", "fd_step", "--values", "1e-2,1e-3", "--format", "csv"])
    captured = capsys.readouterr()
    assert ret == 1
    assert "energy" in captured.err
    rows = _csv_rows(captured.out)
    energy = [row for row in rows if row["quantity"] == "energy"]
    ratio = float(energy[0]["residual"]) / float(energy[1]["residual"])
    assert 90.0 <= ratio <= 110.0
    assert energy[0]["pass"] == "false"
    assert energy[1]["pass"] == "true"


def test_sweep_custom_model(capsys):
    ret = main(
        [
            "sweep", "--param", "q", "--values", "0.5", "--model", "custom",
            "--c-alpha", "2", "--v", "1", "--format", "csv",
        ]
    )
    rows = _csv_rows(capsys.readouterr().out)
    assert ret == 0
    w1 = next(row for row in rows if row["quantity"] == "w1_slope")
    assert float(w1["analytic"]) == math.sqrt(2.0 * (1.0 * 0.25 + 2.0))


_CLOSED_FORMS = ("w1_slope", "w2_slope", "S")


def test_custom_slope_records_check_an_independent_expansion(monkeypatch, capsys):
    # the closed forms are written apart from the family's code, so a
    # family slope or S that drifts by 1e-9 fails its own records
    argv = [
        "sweep", "--param", "q", "--values", "0.5,1", "--model", "custom",
        "--c-alpha", "2", "--v", "0.5", "--l-alpha", "0.25", "--format", "csv",
    ]
    assert main(argv) == 0
    capsys.readouterr()
    evaluate = verification.evaluate_models
    for field in _CLOSED_FORMS:

        def drifted(*args, field=field):
            columns = evaluate(*args)
            return columns._replace(**{field: getattr(columns, field) + 1e-9})

        monkeypatch.setattr(verification, "evaluate_models", drifted)
        assert main(argv) == 1
        rows = _csv_rows(capsys.readouterr().out)
        assert [row["quantity"] for row in rows if row["pass"] == "false"] == [field] * 2


def _closed_form_rows(text):
    return [row for row in _csv_rows(text) if row["quantity"] in _CLOSED_FORMS]


@pytest.mark.parametrize(
    "flags",
    [
        # W2 about 14,142, where one ulp is 1.8e-12
        ["--param", "e2", "--values", "1e8"],
        # W1 about 9,965
        ["--c-alpha", "1.5", "--v", "0.7", "--q", "1", "--param", "e1", "--values", "3.31e7"],
    ],
)
def test_no_closed_form_record_fails_on_rounding(capsys, flags):
    # a correct family matches its closed forms exactly, however large
    # the slopes; the exit code is not asserted, since the eigenvalue
    # records at step 1e-8 fail on the phase's own rounding
    main(["sweep", "--model", "custom", *flags, "--fd-step", "1e-8", "--format", "csv"])
    rows = _closed_form_rows(capsys.readouterr().out)
    assert [row["quantity"] for row in rows] == list(_CLOSED_FORMS)
    assert all(row["residual"] == "0" and row["pass"] == "true" for row in rows)


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    values=st.tuples(
        *[st.floats(1e-3, 1e3)] * 2, *[st.floats(-1e3, 1e3)] * 3, *[st.floats(0.0, 1e9)] * 2
    ),
    q=st.floats(-1e3, 1e3),
)
def test_closed_form_residuals_are_exactly_zero(capsys, values, q):
    # on every row the scalar path accepts; the large hbar keeps the
    # phase guard from rejecting the large slopes
    flags = ["--c-alpha", "--c-beta", "--l-alpha", "--l-beta", "--v", "--e1", "--e2"]
    ret = main([
        "sweep", "--model", "custom", *(f"{flag}={x!r}" for flag, x in zip(flags, values)),
        "--hbar=1e6", "--param", "q", f"--values={q!r}", "--format", "csv",
    ])
    captured = capsys.readouterr()
    assume(ret != 2)
    rows = _closed_form_rows(captured.out)
    assert [row["quantity"] for row in rows] == list(_CLOSED_FORMS)
    assert all(row["residual"] == "0" for row in rows), rows


def _log_uniform(low, high):
    return st.floats(math.log10(low), math.log10(high)).map(lambda x: 10.0**x)


def _either_sign(magnitudes):
    return st.tuples(st.sampled_from([-1.0, 1.0]), magnitudes).map(lambda pair: pair[0] * pair[1])


# --model custom with c log-uniform in [1e-3, 1e3], |l| in [1e-3, 1e7]
# and |v| in [1e-3, 1e3]
_CUSTOM_FLAGS = st.tuples(
    *[_log_uniform(1e-3, 1e3)] * 2,
    *[_either_sign(_log_uniform(1e-3, 1e7))] * 2,
    _either_sign(_log_uniform(1e-3, 1e3)),
).map(
    lambda values: [
        "--model", "custom",
        *map("--{}={!r}".format, ("c-alpha", "c-beta", "l-alpha", "l-beta", "v"), values),
    ]
)


def _hj_rows(text):
    return [row for row in _csv_rows(text) if row["quantity"] == "hj_residual"]


@settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    model=_CUSTOM_FLAGS,
    e1=_log_uniform(1e-6, 1e9),
    e2=_log_uniform(1e-6, 1e9),
    q=st.floats(-1e3, 1e3),
    hbar=st.just(1e6),
)
# one ulp of e1 + e2 is 1.16e-10 here, past the 1e-10 tolerance
@example(model=["--model", "example1"], e1=1e6, e2=1.0, q=0.0, hbar=1e4)
def test_no_hj_residual_record_fails_on_rounding(capsys, model, e1, e2, q, hbar):
    # a correctly rounded residual passes, however large the energy; the
    # exit code is not asserted, since the eigenvalue records fail on the
    # phase's own rounding at such slopes.  The large hbar keeps the
    # phase guard from rejecting slopes up to about 1e7
    ret = main([
        "sweep", *model, f"--e2={e2!r}", f"--q={q!r}", f"--hbar={hbar!r}",
        "--param", "e1", f"--values={e1!r}", "--format", "csv",
    ])
    captured = capsys.readouterr()
    assume(ret != 2)
    (row,) = _hj_rows(captured.out)
    assert row["pass"] == "true", row


@pytest.mark.parametrize(
    "argv",
    [["example1"], ["sweep", "--param", "e1", "--values", "1e6", "--hbar", "1e4"]],
    ids=["e_1", "e_1e6"],
)
def test_hj_rounding_floor_hides_no_drift(argv, monkeypatch, capsys):
    # a residual off by 1e-9 of the energy fails at e1 + e2 = 2, under the
    # 1e-10 tolerance, and at about 1e6, under the rounding floor
    residual = wkb.hj_residual

    def drifted(pf, point):
        return residual(pf, point) + 1e-9 * pf.energies.total

    monkeypatch.setattr(wkb, "hj_residual", drifted)
    main([*argv, "--format", "csv"])
    assert [row["pass"] for row in _hj_rows(capsys.readouterr().out)] == ["false"]


def test_sweep_row_without_wave_field_keeps_four_records(capsys):
    ret = main(["sweep", "--param", "e1", "--values", "1,0,2", "--format", "csv"])
    rows = _csv_rows(capsys.readouterr().out)
    assert ret == 0
    assert [row["e1"] for row in rows] == ["1"] * 11 + ["0"] * 4 + ["2"] * 11
    assert [row["quantity"] for row in rows[11:15]] == ["w1_slope", "w2_slope", "S", "hj_residual"]


_BAD_VALUES = ["1", "0.5", "0", "-1", "2", "nan", "inf", "1e308", "1e200", "1e-300", "0.25"]


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    model=st.sampled_from(["example1", "example2", "custom"]),
    param=st.sampled_from(["alpha", "beta", "e1", "e2", "q", "fd_step"]),
    values=st.lists(st.sampled_from(_BAD_VALUES), min_size=1, max_size=5),
    v=st.sampled_from(["1", "-1"]),
)
def test_first_bad_row_error_is_the_scalar_error(model, param, values, v, capsys):
    # a sweep stops at the error the scalar path raises on its first bad
    # row, as a row-by-row run would
    ret = main(
        ["sweep", "--model", model, "--param", param, f"--values={','.join(values)}", f"--v={v}"]
    )
    err = capsys.readouterr().err
    config = RunConfig(model=model, v=float(v))
    resolve_tolerances(config.tolerances, verification._EXAMPLE_TOLERANCES)
    coefficients = cli._coefficients(config, model)
    expected = None
    for value in values:
        row = config._replace(**{param: float(value)})
        try:
            spec = LagrangianSpec(
                *coefficients, FractionalOrder(row.alpha), FractionalOrder(row.beta)
            )
            energies = EnergyPartition(row.e1, row.e2)
            point = TransformedPoint(*SAMPLE_POINT, row.q)
            evaluate_model(spec, energies, point, row.fd_step, row.hbar)
        except (ValueError, OverflowError) as exc:
            expected = f"error: {exc}\n"
            break
    if expected is None:
        assert ret in (0, 1) and not err.startswith("error:")
    else:
        assert (ret, err) == (2, expected)


def test_model_batches_rerun_no_good_row(monkeypatch, capsys):
    # A batch that quietly went row by row would print the same output,
    # so count the scalar model path's calls: a 2000-step sweep of each
    # model makes none, and verify only the two of its classical limit check
    callers = []
    evaluate = wkb.evaluate_model

    def counted(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return evaluate(*args)

    monkeypatch.setattr(wkb, "evaluate_model", counted)
    custom = ["--c-alpha", "2", "--v", "0.5", "--l-alpha", "0.25"]
    for model in ("example1", "example2", "custom"):
        argv = ["sweep", "--model", model, "--param", "q", "--from", "-1", "--to", "1"]
        argv += ["--steps", "2000", "--format", "csv", *(custom if model == "custom" else [])]
        assert main(argv) == 0
    assert callers == []
    assert main(["verify"]) == 0
    capsys.readouterr()
    assert callers == ["classical_limit_check"] * 2


def test_out_file_matches_stdout(tmp_path, capsys):
    target = tmp_path / "report.csv"
    ret = main(["example1", "--format", "csv", "--out", str(target)])
    captured = capsys.readouterr()
    assert ret == 0
    assert captured.out == ""
    main(["example1", "--format", "csv"])
    assert target.read_text(encoding="utf-8") == capsys.readouterr().out


class _KeptWrites(io.StringIO):
    """A stdout that keeps the text of each write."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
@pytest.mark.parametrize(
    "argv",
    [
        ["deriv", "--grid", "0,1,3000"],
        ["sweep", "--param", "e1", "--from", "0.5", "--to", "2", "--steps", "300"],
    ],
)
def test_output_is_written_a_chunk_at_a_time(argv, fmt, tmp_path, monkeypatch):
    argv = [*argv, "--format", fmt]
    stdout = _KeptWrites()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(argv) == 0
    assert stdout.getvalue().count("\n") > 2 * reporting.CHUNK_ROWS
    # several writes, none holding more than one chunk of rows
    assert len(stdout.writes) > 1
    assert max(text.count("\n") for text in stdout.writes) <= reporting.CHUNK_ROWS
    target = tmp_path / "out.txt"
    assert main([*argv, "--out", str(target)]) == 0
    assert target.read_bytes() == stdout.getvalue().encode()


def test_failed_run_leaves_an_existing_out_file_as_it_was(tmp_path, monkeypatch, capsys):
    target = tmp_path / "out.txt"
    target.write_bytes(b"kept\n")
    assert main(["sweep", "--param", "e1", "--values", ",", "--out", str(target)]) == 2

    # render formats the first piece before it returns, so a failure
    # there comes before the file is opened, in every format
    def fail(values):
        raise ValueError("cannot render")

    monkeypatch.setattr(reporting, "_distinct_floats", fail)
    for output_format in ("table", "csv", "json"):
        assert main(["example1", "--format", output_format, "--out", str(target)]) == 2
        assert capsys.readouterr().err.endswith("error: cannot render\n")
        assert target.read_bytes() == b"kept\n"


def test_json_output_parses(capsys):
    ret = main(["example1", "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert ret == 0
    assert all(obj["schema_version"] == "1" for obj in data)
    assert all(obj["pass"] is True for obj in data)


def test_verify_corrupted_tolerance_fails(capsys):
    ret = main(["verify", "--tol", "kernel_max_error=0"])
    captured = capsys.readouterr()
    assert ret == 1
    assert "failing records:" in captured.err


@pytest.mark.parametrize("kind, slot", [("momentum", 1), ("energy", -1)])
def test_nan_imaginary_part_fails_verify(kind, slot, monkeypatch, capsys):
    # a nan imaginary part anywhere, not only in the first slot, fails
    # imag_part_max
    data = verification._model_measurements()
    estimates = list(data[kind])
    quantity, analytic, real, _ = estimates[slot]
    estimates[slot] = (quantity, analytic, real, math.nan)
    doctored = {**data, kind: estimates}
    records = verification.check_imaginary_parts(verification.resolve_tolerances(), doctored)
    batch = RecordBatch.from_records(records)
    assert math.isnan(batch.numeric[0])
    assert batch.passed.tolist() == [False]
    # verify takes its measurements from the module's _model_measurements
    monkeypatch.setattr(verification, "_model_measurements", lambda: doctored)
    assert main(["verify", "--format", "csv"]) == 1
    assert "imag_part_max" in capsys.readouterr().err


def test_verify_subprocess_is_deterministic(capsys):
    # a fresh process gives the pinned bytes and those of this process;
    # -X importtime lists on stderr each module it imports, and the
    # seeded draws must not pull in numpy.random
    cmd = [sys.executable, "-X", "importtime", "-m", "fracwkb", "verify", "--format", "csv"]
    fresh = subprocess.run(cmd, capture_output=True, text=True)
    assert fresh.returncode == 0
    imported = [
        line.rsplit("|", 1)[-1].strip()
        for line in fresh.stderr.splitlines()
        if line.startswith("import time:")
    ]
    assert "numpy" in imported
    assert not [name for name in imported if name.startswith("numpy.random")]
    assert hashlib.sha256(fresh.stdout.encode()).hexdigest() == _VERIFY_SHA256["csv"]
    assert main(["verify", "--format", "csv"]) == 0
    assert fresh.stdout == capsys.readouterr().out
    assert fresh.stdout.splitlines()[0] == "# schema_version=1"


def test_closed_stdout_is_not_an_invocation_error():
    # as `fracwkb deriv ... | head -1`: about 1 MB of output, far more than
    # a pipe holds, so the run is still writing when the reader leaves
    cmd = [sys.executable, "-m", "fracwkb", "deriv", "--grid", "0,1,16384", "--format", "csv"]
    with subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    ) as process:
        assert process.stdout.readline() == "# schema_version=1\n"
        process.stdout.close()
        stderr = process.stderr.read()
        assert process.wait(timeout=60) == 0
    assert stderr == ""


def _closed_pipe():
    """The write end of a pipe whose reader has closed."""
    read, write = os.pipe()
    os.close(read)
    return write


def test_closed_stderr_keeps_the_exit_code(capsys):
    # an invalid invocation exits 2 even when its message cannot be written
    cmd = [sys.executable, "-m", "fracwkb", "deriv", "--grid", "0,1"]
    write = _closed_pipe()
    try:
        process = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=write, timeout=60)
    finally:
        os.close(write)
    assert process.returncode == 2
    # and a failing run returns 1 when its failures table cannot be written;
    # line-buffered, as sys.stderr is, so each line is written as it comes
    closed = os.fdopen(_closed_pipe(), "w", buffering=1)
    with closed, pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "stderr", closed)
        assert main(["deriv", "--grid", "0,1,64", "--tol", "kernel_max_error=0"]) == 1
    assert capsys.readouterr().out.startswith("quantity")


def _readme_flags():
    """Subcommand -> flags, read from the README's flag table."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = {}
    for line in text.splitlines():
        cells = line.split("|")
        if len(cells) == 4 and "`--" in cells[2]:
            for name in re.findall(r"`([a-z0-9]+)`", cells[1]):
                table[name] = set(re.findall(r"`(--[a-z0-9-]+)", cells[2]))
    return table


def test_readme_lists_each_subcommands_flags():
    parsed = {
        name: set(sub._option_string_actions) - {"-h", "--help"}
        for name, sub in _make_parser()[1].items()
    }
    assert _readme_flags() == parsed


_, _COMMANDS = _make_parser()

# Fixed fuzz vocabulary: every subcommand and flag, valid values and
# malformed ones.  Grid counts stay <= 4096 and --steps <= 20 so each
# draw runs in milliseconds.
_NUMBERS = ["0.5", "1.5", "2", "3", "1", "0", "-1", "1e308", "inf", "nan", "abc", ""]
_VOCABULARY = {
    "--alpha": _NUMBERS + ["1e20", "300.5", "126.5", "150"],
    "--beta": _NUMBERS + ["1e20", "126.5", "150"],
    "--e1": _NUMBERS,
    "--e2": _NUMBERS,
    "--q": _NUMBERS,
    "--hbar": _NUMBERS,
    "--fd-step": _NUMBERS + ["1e-2", "1e-4"],
    "--grid": [
        "0,1,64", "0,2,300", "0,1,4096", "0,1,2", "0,1", "1,0,8", "0,1,1", "0,1,2.5",
        "0,1e200,64", "0,inf,8", "-1e300,1e300,16", "0,1e-320,1500", "-1e308,1e308,4",
        "a,b,c", "",
    ],
    "--function": ["const", "x", "x2", "x3", "x9"],
    "--side": ["left", "right", "up"],
    "--format": ["table", "csv", "json", "xml"],
    "--tol": [
        "probability=0", "kernel_max_error=1", "closed_form=1e-9", "bogus=1",
        "probability", "=1", "closed_form=-1", "closed_form=nan", "energy_eigenvalue=inf",
    ],
    "--param": ["alpha", "beta", "e1", "e2", "q", "fd_step", "hbar"],
    "--values": ["0.5,2", "1.2,1.7", "", "1,x", "1e-2,1e-3", "-1", ","],
    "--from": _NUMBERS,
    "--to": _NUMBERS,
    "--steps": ["1", "3", "20", "0", "-1", "x"],
    "--model": ["example1", "example2", "custom", "other"],
    "--c-alpha": _NUMBERS,
    "--c-beta": _NUMBERS,
    "--l-alpha": _NUMBERS,
    "--l-beta": _NUMBERS,
    "--v": _NUMBERS,
    "--out": ["OUT", "TMP"],
    "--config": ["CONFIG", "MISSING"],
}
_CONFIG_LINES = [
    "e1 = 2", "alpha = 1.2", "beta = 0.5", "fd_step = 1e-3", "grid = 0,1,8", "format = csv",
    "tol.probability = 0", "tol.bogus = 1", "tol.closed_form = x", "config = x", "hb = 1",
    "junk", "side = right", "param = e1", "values = 1,2", "steps = 3", "from = 0",
    "to = 1", "out = OUT", "# comment", "alpha = abc", "model = custom", "v = 1", "= 1",
]


@st.composite
def _fuzz_argv(draw):
    """A command, flags drawn mostly from its own, maybe a dangling flag."""
    command = draw(st.sampled_from([*_COMMANDS, "bogus"]))
    parser = _COMMANDS.get(command)
    own = [flag for flag in _VOCABULARY if parser and flag in parser._option_string_actions]
    argv = [command]
    for flag in draw(st.lists(st.sampled_from(own * 9 + sorted(_VOCABULARY)), max_size=6)):
        argv += [flag, draw(st.sampled_from(_VOCABULARY[flag]))]
    if draw(st.integers(0, 9)) == 0 and len(argv) > 1:
        argv.pop()
    return argv


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(argv=_fuzz_argv(), config_lines=st.lists(st.sampled_from(_CONFIG_LINES), max_size=4))
def test_fuzzed_argv_exits_0_1_or_2(argv, config_lines, tmp_path, monkeypatch):
    # the verification checks are swapped out: what is fuzzed is the
    # parsing and validation around them, and the full suite takes 0.2 s
    monkeypatch.setattr(verification, "CHECKS", ())
    paths = {
        "OUT": str(tmp_path / "out.txt"), "TMP": str(tmp_path),
        "CONFIG": str(tmp_path / "run.cfg"), "MISSING": str(tmp_path / "missing.cfg"),
    }
    lines = [line.replace("OUT", paths["OUT"]) for line in config_lines]
    (tmp_path / "run.cfg").write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        ret = main([paths.get(token, token) for token in argv])
    except SystemExit as exc:
        assert exc.code == 2
    else:
        assert ret in (0, 1, 2)


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["example1", "--q", "-1e-3"], "--q"),
        (["sweep", "--param", "q", "--values", "-1,2"], "--values"),
        (["sweep", "--param", "q", "--from", "-1e-3", "--to", "1", "--steps", "2"], "--from"),
        (["deriv", "--grid", "-1,1,64"], "--grid"),
        # non-finite values, in any case float() reads
        (["example1", "--q", "-inf"], "--q"),
        (["example1", "--q", "-Infinity"], "--q"),
        (["example1", "--q", "-NaN"], "--q"),
        (["sweep", "--param", "q", "--values", "-inf,1"], "--values"),
        (["deriv", "--grid", "-INF,1,64"], "--grid"),
    ],
)
def test_negative_value_after_its_flag_is_read_as_its_value(argv, flag, capsys):
    # argparse alone reads only -N and -N.N as numbers, so each of these
    # exited 2 with "argument FLAG: expected one argument"; they now read
    # as their --flag=value form does: a finite value gives output, and a
    # non-finite one the setting's own check
    at = argv.index(flag)
    joined = [*argv[:at], f"{flag}={argv[at + 1]}", *argv[at + 2 :]]
    outcomes = []
    for run in (argv, joined):
        code = main(run)
        captured = capsys.readouterr()
        outcomes.append((code, captured.out, captured.err))
    assert outcomes[0] == outcomes[1]
    code, out, err = outcomes[0]
    if argv[at + 1][1].isdigit():
        assert code in (0, 1) and out
    else:
        assert code == 2 and not out
        assert err in ("error: q must be finite\n", "error: grid endpoints must be finite\n")


def test_each_builder_rendered_is_mains_stdout(capsys):
    # cli parses, dispatches and writes; every record comes from a builder
    # in verification, called here with the settings each argv names
    settings = {"alpha": 1.5, "beta": 1.5, "e1": 1.0, "e2": 1.0, "q": 0.0, "fd_step": wkb.FD_STEP}
    cases = [
        (
            ["deriv", "--side", "right", "--beta", "0.5", "--function", "x2", "--grid", "0,1,64"],
            "table",
            lambda: verification.deriv_records({}, "x2", "right", 0.5, TimeGrid(0.0, 1.0, 64)),
        ),
        (
            ["example1", "--e1", "2", "--format", "csv"],
            "csv",
            lambda: verification.model_records(
                {}, example1()[:5], 1.0, **{**settings, "e1": 2.0}
            ),
        ),
        (
            ["example2", "--q", "0.5", "--hbar", "2", "--tol", "probability=1e-13"],
            "table",
            lambda: verification.model_records(
                {"probability": 1e-13}, example2()[:5], 2.0, **{**settings, "q": 0.5}
            ),
        ),
        (
            ["sweep", "--model", "custom", "--c-alpha", "2", "--param", "e1", "--values",
             "0,1,2", "--format", "json"],
            "json",
            lambda: verification.model_records(
                {}, (2.0, 1.0, 0.0, 0.0, 0.0), 1.0, "e1", **{**settings, "e1": [0.0, 1.0, 2.0]}
            ),
        ),
        (["verify", "--format", "csv"], "csv", verification.verify_records),
    ]
    for argv, fmt, build in cases:
        code = main(argv)
        batch = build()
        assert capsys.readouterr().out == "".join(reporting.render(batch, fmt)), argv
        assert code == (0 if batch.passed.all() else 1), argv
