"""Run one `fracwkb` CLI call in this fresh interpreter and report on it.

Reads {"argv": [...], "trace": bool} as JSON on stdin and writes one
JSON result to stdout.  A fresh interpreter per call means the
functools.cache memos in fracwkb.verification start empty, as they do
for a user.  The call's stdout and stderr are captured in memory; the
output is checked after the timed interval and after ru_maxrss is read.
"""

from __future__ import annotations

import io
import json
import math
import resource
import sys
import time
import traceback
from dataclasses import dataclass

import checker


@dataclass(frozen=True)
class _Sample:
    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("non-finite sample")


# Coefficients of a short series evaluated by the reference job's
# interpreter loop; any fixed values would do.
_SERIES = (1.0, 76.18, -86.51, 24.01, -1.232, 0.1209e-2, -0.5395e-5)


def reference() -> float:
    """Time a fixed job that does not touch fracwkb, to gauge machine speed.

    It mixes the kinds of work the workloads are made of: a scalar
    float series in interpreted Python over numpy scalars, small frozen
    dataclasses, 17-digit float formatting, and a numpy convolution.
    """
    import numpy as np

    start = time.perf_counter()
    lines = []
    for i in range(1, 8000):
        x = np.float64(i) / 8000.0
        acc = _SERIES[0]
        for k, c in enumerate(_SERIES[1:], start=1):
            acc += c / (x + k)
        y = math.sqrt(2.0 * math.pi) * (x + 5.5) ** (x + 0.5) * math.exp(-x) * acc
        sample = _Sample(float(x), float(y))
        lines.append(f"{sample.x:.17g},{sample.y:.17g},{sample.x - sample.y:.17g}")
    "\n".join(lines)
    samples = np.linspace(0.0, 1.0, 8192)
    np.convolve(samples, samples)
    return time.perf_counter() - start


def _classify(argv, code, crash, stdout, stderr):
    """(kind, reason, records emitted) for one finished call."""
    if crash is not None:
        return "traceback", crash.strip().splitlines()[-1], 0
    if code == 2:
        first = stderr.strip().splitlines()[:1]
        return "invalid_input", f"exit 2: {first[0] if first else ''}", 0
    try:
        records = checker.check(argv, code, stdout)
    except checker.CheckError as exc:
        return "checker_mismatch", str(exc), 0
    if code == 1:
        failing = [r.quantity for r in records if not r.passed]
        return "record_fail", f"exit 1: failing records {failing[:8]}", len(records)
    return "ok", "", len(records)


def main() -> None:
    request = json.load(sys.stdin)
    argv = request["argv"]

    start = time.perf_counter()
    import fracwkb.cli  # numpy included

    setup_s = time.perf_counter() - start
    reference_before_s = reference()

    tracer = None
    if request["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    out, err = io.StringIO(), io.StringIO()
    sys.stdout, sys.stderr = out, err
    code, crash = None, None
    start = time.perf_counter()
    try:
        code = fracwkb.cli.main(argv)
    except SystemExit as exc:  # argparse rejects the argv
        code = exc.code
    except Exception:
        crash = traceback.format_exc()
    finally:
        op_s = time.perf_counter() - start
        sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # The machine's speed can switch within seconds, so the call is
    # bracketed: its gauge is the mean of a reference job just before and
    # one just after it.
    reference_s = (reference_before_s + reference()) / 2.0

    kind, reason, records = _classify(argv, code, crash, out.getvalue(), err.getvalue())
    result = {
        "setup_s": setup_s,
        "op_s": op_s,
        "exit": code,
        "rss_kb": rss_kb,
        "reference_s": reference_s,
        "records": records,
        "kind": kind,
        "reason": reason,
        "numpy": sys.modules["numpy"].__version__,
    }
    if tracer is not None:
        result["trace"] = tracer.summary(op_s)
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
