"""fracwkb benchmark: one client, closed loop, one fresh interpreter per op.

    python3 perfbench/run.py --workload verify_full --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  Each op is one `fracwkb` CLI
call made by perfbench/worker.py against the checkout's src/.  The next
op starts only when the previous one has finished.

--trace 0 runs a fixed number of whole blocks of the workload, as many
as take --seconds on the machine the benchmark was tuned on, and prints
the end-to-end metrics; `attempted` and `failed` repeat exactly for a
given --seconds.  --trace 1 runs a fixed number of blocks, each op once
traced and once untraced, and prints the per-layer metrics; its counts
are run totals that repeat exactly for a seed.

The second-to-last stdout line is the full report (environment stamp,
argv digest, every failed op with its argv and reason); the last line
is the result object.  Both are also written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT_DIR = Path(__file__).resolve().parent / "out"

OP_TIMEOUT_S = 90.0
# No new op starts after this long, so a run ends well within 180 s.
HARD_LIMIT_S = 120.0
# A tail percentile needs at least this many ops beyond it.
TAIL_BEYOND = 10
# Median time of worker.reference() on the 2-core Xeon the benchmark was
# tuned on.  That machine's speed switched between two states, about
# 1.7x apart, over seconds to minutes (the same verify op took 0.72 s
# and 1.49 s within a minute), more than any regression bound.  Each op's
# times are therefore scaled by REFERENCE_NOMINAL_S / (the mean of the
# reference jobs timed just before and just after its call), and the
# run's metrics are taken over the scaled times: they read as seconds on
# the machine at its nominal speed.
REFERENCE_NOMINAL_S = 0.088

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "records_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# Ops of these kinds mean the program's output is wrong or absent; a
# record FAIL (exit 1) whose output checks out is a failed op, not an
# incorrect one.
INCORRECT_KINDS = ("traceback", "invalid_input", "checker_mismatch", "timeout")
# np.convolve reaches OpenBLAS's threaded dot product; with one client on
# two shared cores its spinning helper thread costs more than it saves,
# so the program is measured single-threaded.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _per_layer_unit(name: str) -> str:
    if name == "trace.overhead_ratio":
        return "ratio"
    if name.endswith(("_s", ".s")):
        return "s"
    return "bytes" if name.endswith(".bytes") else "count"


def run_op(argv: list[str], trace: bool) -> dict:
    env = {**os.environ, **THREAD_ENV}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    request = json.dumps({"argv": argv, "trace": trace})
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER)], input=request, capture_output=True,
            text=True, cwd=ROOT, env=env, timeout=OP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"argv": argv, "kind": "timeout", "reason": f"no result within {OP_TIMEOUT_S} s"}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return {"argv": argv, "kind": "traceback", "reason": f"worker exit {proc.returncode}: {tail[0]}"}
    return {"argv": argv, **json.loads(proc.stdout)}


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30
    )
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    """What must match before two result sets are compared."""
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "commit": _git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "load1_start": os.getloadavg()[0],
    }


def tail(op_s: list[float]) -> dict | None:
    """Highest percentile of op time with at least TAIL_BEYOND ops beyond it."""
    n = len(op_s)
    if n <= TAIL_BEYOND:
        return None
    rank = n - TAIL_BEYOND  # 1-based rank of the reported op
    return {"value": sorted(op_s)[rank - 1], "percentile": 100.0 * rank / n, "samples": n}


def measure(workload: str, seed: int, seconds: float) -> tuple[list[dict], dict]:
    start = time.monotonic()
    done: list[dict] = []
    count = workloads.run_blocks(workload, seconds)
    for block, _ in zip(workloads.blocks(workload, seed), range(count)):
        for argv in block:
            if time.monotonic() - start >= HARD_LIMIT_S:
                break
            done.append(run_op(argv, trace=False))
    timed = [op for op in done if "op_s" in op]
    if not timed:
        return done, {"metrics": {}}
    op_s = [op["op_s"] for op in timed]
    scale = [REFERENCE_NOMINAL_S / op["reference_s"] for op in timed]
    scaled_op_s = [t * k for t, k in zip(op_s, scale)]
    records = sum(op["records"] for op in timed)
    raw = {
        "setup_s": statistics.median(op["setup_s"] for op in timed),
        "op_p50_s": statistics.median(op_s),
        "records_per_s": records / sum(op_s),
        "peak_rss_mb": max(op["rss_kb"] for op in timed) / 1024.0,
    }
    metrics = {
        "setup_s": statistics.median(op["setup_s"] * k for op, k in zip(timed, scale)),
        "op_p50_s": statistics.median(scaled_op_s),
        "records_per_s": records / sum(scaled_op_s),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    return done, {
        "metrics": metrics,
        "raw_metrics": raw,
        "reference_s": [op["reference_s"] for op in timed],
        "scale_p50": statistics.median(scale),
        "op_tail_s": tail(scaled_op_s),
        "op_s": op_s,
    }


def measure_traced(workload: str, seed: int) -> tuple[list[dict], dict]:
    ops = [
        argv
        for block, _ in zip(workloads.blocks(workload, seed), range(workloads.TRACE_BLOCKS[workload]))
        for argv in block
    ]
    done, traced, untraced = [], [], []
    for i, argv in enumerate(ops):
        # alternate which side runs first so neither always follows a warm-up
        pair = [(True, traced), (False, untraced)]
        for trace, into in pair if i % 2 else pair[::-1]:
            op = run_op(argv, trace)
            done.append(op)
            if "op_s" in op:
                into.append(op)

    metrics: dict[str, float] = {}
    by_argv: dict[str, dict] = {}
    carried = []
    for op in traced:
        for name, value in op["trace"]["metrics"].items():
            metrics[name] = metrics.get(name, 0) + value
        counts = {
            k: v for k, v in op["trace"]["metrics"].items() if _per_layer_unit(k) != "s"
        }
        first = by_argv.setdefault(json.dumps(op["argv"]), counts)
        if counts != first:
            carried.append(op["argv"])
    if traced and untraced:
        metrics["trace.overhead_ratio"] = statistics.median(
            op["op_s"] / op["reference_s"] for op in traced
        ) / statistics.median(op["op_s"] / op["reference_s"] for op in untraced)
    trees = [{"argv": op["argv"], "op_s": op["op_s"], "tree": op["trace"]["tree"]} for op in traced]
    return done, {"metrics": metrics, "counts_differ_for_same_argv": carried, "trees": trees}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fracwkb" / "cli.py").is_file():
        print(f"error: no fracwkb sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = environment()
    if args.trace:
        done, summary = measure_traced(args.workload, args.seed)
    else:
        done, summary = measure(args.workload, args.seed, args.seconds)
    env["load1_end"] = os.getloadavg()[0]
    env["numpy"] = next((op["numpy"] for op in done if "numpy" in op), None)

    failed = [
        {"argv": op["argv"], "kind": op["kind"], "reason": op["reason"]}
        for op in done if op["kind"] != "ok"
    ]
    incorrect = [op for op in failed if op["kind"] in INCORRECT_KINDS]
    if args.trace and summary["counts_differ_for_same_argv"]:
        incorrect.append("per-layer counts differ between ops with the same argv")
    metrics = summary["metrics"]
    if args.trace:
        units = {name: _per_layer_unit(name) for name in metrics}
    else:
        units = END_TO_END_UNITS
    result = {
        "correct": bool(done) and not incorrect and set(metrics) >= set(units),
        "attempted": len(done),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units if name in metrics},
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "argv_digest": workloads.argv_digest(args.workload, args.seed),
        "environment": env,
        "failed_op_ratio": len(failed) / len(done) if done else None,
        "failed_ops": failed,
        **{k: v for k, v in summary.items() if k not in ("metrics", "trees")},
    }

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps({"report": report, "result": result}, indent=1))
    if args.trace:
        (OUT_DIR / f"{stem}-calltree.json").write_text(json.dumps(summary["trees"]))
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
