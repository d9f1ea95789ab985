"""Tests of the benchmark's own inputs, counts and output checker.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import checker
import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fracwkb import cli  # noqa: E402


def _worker(argv: list[str], trace: bool) -> dict:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py")],
        input=json.dumps({"argv": argv, "trace": trace}),
        capture_output=True, text=True, cwd=ROOT, env=env, timeout=120, check=True,
    )
    return json.loads(proc.stdout)


def _counts(result: dict) -> dict:
    return {k: v for k, v in result["trace"]["metrics"].items() if not k.endswith(("_s", ".s"))}


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_seed_gives_the_same_argv_list(workload):
    assert workloads.argv_list(workload, 3, 30) == workloads.argv_list(workload, 3, 30)
    assert workloads.argv_digest(workload, 3) == workloads.argv_digest(workload, 3)


def _order(argv: list[str]) -> float:
    flag = "--alpha" if "--alpha" in argv else "--beta"
    return float(argv[argv.index(flag) + 1])


def test_seeds_differ_but_blocks_keep_their_mix():
    size = len(workloads.DERIV_CASES)
    first, second = (workloads.argv_list("deriv_large", seed, size) for seed in (3, 4))
    assert first != second
    for block in (first, second):
        cells = sorted((int(op[op.index("--grid") + 1].split(",")[2]), op[-1]) for op in block)
        assert cells == sorted(
            [(n, fmt) for n in workloads.DERIV_SIZES for fmt in workloads.DERIV_FORMATS]
            * workloads.DERIV_REPEATS
        )


@pytest.mark.parametrize("seed", [1, 2, 3, workloads.HELD_OUT_SEED])
def test_every_deriv_block_has_the_same_fail_cases(seed):
    size = len(workloads.DERIV_CASES)
    ops = workloads.argv_list("deriv_large", seed, 3 * size)
    for start in range(0, len(ops), size):
        block = ops[start:start + size]
        integer = [op for op in block if _order(op) in workloads.DERIV_INTEGER_ORDERS]
        const_high = [op for op in block if op[2] == "const" and 1.3 <= _order(op) <= 1.9]
        near_two = [op for op in block if 1.87 <= _order(op) <= 1.9 and op[2] in ("x2", "x3")]
        assert len(integer) == len(const_high) == len(near_two) == 1
        assert near_two[0][near_two[0].index("--grid") + 1] == f"0,1,{workloads.DERIV_SIZES[-1]}"
        assert integer[0][2] in workloads.DERIV_INTEGER_ORDERS[int(_order(integer[0]))]


def test_a_run_executes_a_fixed_number_of_blocks():
    for workload in workloads.WORKLOADS:
        assert workloads.run_blocks(workload, 0.1) == 1
        nominal = workloads.BLOCK_NOMINAL_S[workload]
        assert abs(workloads.run_blocks(workload, 30) * nominal - 30) <= nominal / 2


def test_one_seed_gives_the_same_counts_twice():
    argv = workloads.argv_list("sweep_models", 3, 1)[0]
    first, second = (_worker(argv, trace=True) for _ in range(2))
    assert first["kind"] == second["kind"] == "ok"
    assert _counts(first) == _counts(second)
    assert first["trace"]["metrics"]["fracops.deriv_calls"] == 0
    assert first["trace"]["metrics"]["wkb.operator_calls"] > 0


def test_no_memo_carries_over_between_verify_ops():
    first, second = (_worker(["verify", "--format", "csv"], trace=True) for _ in range(2))
    assert _counts(first) == _counts(second)
    assert first["trace"]["metrics"]["fracops.oracle_calls"] > 0


def test_checker_accepts_real_output():
    for argv in (
        ["deriv", "--function", "x2", "--side", "right", "--beta", "0.6",
         "--grid", "0,1,512", "--format", "table"],
        ["sweep", "--model", "custom", "--param", "q", "--from", "-0.5", "--to", "0.5",
         "--steps", "7", "--c-alpha", "1.5", "--format", "json"],
    ):
        code, text = _run(argv)
        checker.check(argv, code, text)


def _doctor_numeric(text: str, quantity: str) -> str:
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines):
        cells = line.split(",")
        if cells[0] == quantity:
            cells[2] = repr(float(cells[2]) * (1.0 + 1e-9))
            lines[i] = ",".join(cells)
    return "".join(lines)


def _flip_pass(text: str, quantity: str) -> str:
    return "".join(
        line.replace(",true\n", ",false\n") if line.startswith(quantity + ",") else line
        for line in text.splitlines(keepends=True)
    )


@pytest.mark.parametrize(
    "doctor",
    [
        lambda text: _doctor_numeric(text, "max_interior_error"),
        lambda text: _doctor_numeric(text, "D[x=0.5]"),
        lambda text: _flip_pass(text, "D[x=0.5]"),
        lambda text: text.replace("D[x=0.25],", "D[x=0.2500001],"),
        lambda text: "".join(text.splitlines(keepends=True)[:-3]),
    ],
    ids=["summary-numeric", "row-numeric", "pass-flag", "node", "dropped-rows"],
)
def test_checker_rejects_a_doctored_record(doctor):
    argv = ["deriv", "--function", "x", "--alpha", "0.5", "--grid", "0,1,256", "--format", "csv"]
    code, text = _run(argv)
    checker.check(argv, code, text)
    with pytest.raises(checker.CheckError):
        checker.check(argv, code, doctor(text))


def test_checker_rejects_a_wrong_exit_code():
    argv = ["deriv", "--function", "x", "--alpha", "0.5", "--grid", "0,1,256", "--format", "csv"]
    code, text = _run(argv)
    with pytest.raises(checker.CheckError):
        checker.check(argv, 1 - code, text)


def test_checker_rejects_a_sweep_with_a_missing_step():
    argv = ["sweep", "--model", "example1", "--param", "e1", "--from", "0.5", "--to", "2",
            "--steps", "5", "--format", "csv"]
    code, text = _run(argv)
    checker.check(argv, code, text)
    with pytest.raises(checker.CheckError):
        checker.check(argv[:-3] + ["6", "--format", "csv"], code, text)
