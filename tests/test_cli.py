import json
import math
import subprocess
import sys
import warnings

import pytest

from fracwkb.cli import main


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


@pytest.mark.parametrize(
    "argv",
    [
        ["deriv", "--function", "x", "--alpha", "1"],
        ["deriv", "--function", "x2", "--side", "right", "--beta", "2"],
        # non-dyadic step: the exact stencil leaves roundoff, not 0, and
        # the roundoff grows on the finer grid (a ratio of order -1.9)
        ["deriv", "--function", "x2", "--alpha", "2", "--grid", "0,1,300"],
    ],
)
def test_deriv_exact_kernel_reports_summary(argv, capsys):
    # the kernel is exact here, so both interior errors sit at the
    # roundoff floor and their ratio carries no convergence order: the
    # order record is informational, the run passes and warns nothing
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


def test_deriv_unknown_tolerance_name(capsys):
    # deriv resolves against its own table, which has no model tolerances
    ret = main(["deriv", "--tol", "hj_residual=1"])
    assert ret == 2
    assert "unknown tolerance" in capsys.readouterr().err


def test_bad_tolerance_syntax(capsys):
    ret = main(["example1", "--tol", "probability"])
    assert ret == 2
    assert capsys.readouterr().err.startswith("error:")


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


def test_out_file_matches_stdout(tmp_path, capsys):
    target = tmp_path / "report.csv"
    ret = main(["example1", "--format", "csv", "--out", str(target)])
    captured = capsys.readouterr()
    assert ret == 0
    assert captured.out == ""
    main(["example1", "--format", "csv"])
    assert target.read_text(encoding="utf-8") == capsys.readouterr().out


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


def test_verify_subprocess_is_deterministic():
    cmd = [sys.executable, "-m", "fracwkb", "verify", "--format", "csv"]
    first = subprocess.run(cmd, capture_output=True, text=True)
    second = subprocess.run(cmd, capture_output=True, text=True)
    assert first.returncode == 0
    assert second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.splitlines()[0] == "# schema_version=1"
