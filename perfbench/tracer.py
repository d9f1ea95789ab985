"""Per-layer spans and counts, recorded from outside the program.

install() rebinds the public functions of each fracwkb layer, in every
module that imported them by name, to wrappers that record a span (name,
parent, start, end) per call.  The hottest inner calls (fracops.gamma,
WaveField.value, momenta_from_S) are only counted, so tracing stays
cheap; their time lands in the calling span.  Spans stay in memory and
are reduced to per-layer metrics and a call tree when the call ends.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable

from fracwkb import cli, fracops, hamilton_jacobi, mechanics, reporting, verification, wkb

# Public functions whose calls are spans, by layer.  Class names are
# constructors: a LagrangianSpec built by cli or verification is work
# done in the mechanics layer.
SPANNED = {
    fracops: ("left_rl_derivative", "right_rl_derivative", "rl_power_rule"),
    mechanics: (
        "LagrangianSpec", "example1", "example2",
        "canonical_momenta", "legendre_transform", "hamilton_rhs",
    ),
    hamilton_jacobi: ("separate", "evaluate_S", "lambda_constants", "hj_residual"),
    wkb: (
        "build_wavefunction", "apply_momentum", "apply_hamiltonian",
        "probability_density", "classical_limit_check",
    ),
    verification: ("run_checks",),
    reporting: ("format_table", "format_csv", "format_json"),
}
COUNTED = {fracops: ("gamma",), hamilton_jacobi: ("momenta_from_S",)}
# Modules whose by-name imports (and, for their own functions, internal
# calls) are rebound.
IMPORTERS = (cli, verification, wkb, hamilton_jacobi, fracops)

DERIV = ("fracops.left_rl_derivative", "fracops.right_rl_derivative")
OPERATORS = ("wkb.apply_momentum", "wkb.apply_hamiltonian")
CHECK_NAMES = tuple(name for name, _ in verification.CHECKS)


def _layer(module) -> str:
    return module.__name__.rsplit(".", 1)[1]


class Tracer:
    """Span and count recorder for one CLI call."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._stack = [-1]
        self._cells: dict[str, list[int]] = defaultdict(lambda: [0])

    def span(self, fn: Callable, name: str, measure: Callable | None = None) -> Callable:
        names, parents, starts, ends, stack = (
            self.names, self.parents, self.starts, self.ends, self._stack
        )
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf()
                stack.pop()
            if measure is not None:
                measure(args, result)
            return result

        return wrapper

    def counted(self, fn: Callable, name: str) -> Callable:
        cell = self._cells[name]

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _add(self, name: str, amount: int) -> None:
        self._cells[name][0] += amount

    def _measure(self, name: str) -> Callable | None:
        if name in DERIV:
            return lambda args, result: self._add("fracops.deriv_nodes", len(args[0].values))
        if name.startswith("reporting."):
            def formatted(args, result):
                self._add("reporting.rows", len(args[0]))
                self._add("reporting.bytes", len(result.encode()))
            return formatted
        return None

    def install(self) -> None:
        """Rebind every layer entry point to a recording wrapper."""

        def rebind(module, attr: str, wrap: Callable) -> None:
            original = getattr(module, attr)
            wrapper = wrap(original, f"{_layer(module)}.{attr}")
            for importer in IMPORTERS:
                if getattr(importer, attr, None) is original:
                    setattr(importer, attr, wrapper)

        for module, attrs in SPANNED.items():
            for attr in attrs:
                rebind(module, attr, lambda fn, name: self.span(fn, name, self._measure(name)))
        for module, attrs in COUNTED.items():
            for attr in attrs:
                rebind(module, attr, self.counted)
        wkb.WaveField.value = self.counted(wkb.WaveField.value, "wkb.WaveField.value")
        verification.CHECKS = tuple(
            (check, self.span(fn, f"verification.{check}")) for check, fn in verification.CHECKS
        )

    def summary(self, op_s: float) -> dict:
        """Per-layer metrics for the call, plus its call tree.

        Self time is a span's duration minus the durations of its child
        spans; cli.s is the whole call minus its top-level spans.
        """
        n = len(self.names)
        duration = [self.ends[i] - self.starts[i] for i in range(n)]
        children = [0.0] * n
        top_level = 0.0
        for i, parent in enumerate(self.parents):
            if parent < 0:
                top_level += duration[i]
            else:
                children[parent] += duration[i]
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        inclusive: dict[str, float] = defaultdict(float)
        paths: list[str] = []
        tree: dict[str, list] = {}
        for i, name in enumerate(self.names):
            own = duration[i] - children[i]
            calls[name] += 1
            self_s[name] += own
            inclusive[name] += duration[i]
            parent = self.parents[i]
            path = name if parent < 0 else f"{paths[parent]}>{name}"
            paths.append(path)
            node = tree.setdefault(path, [0, 0.0, 0.0])
            node[0] += 1
            node[1] += duration[i]
            node[2] += own

        def layer(prefix: str, what: dict) -> float:
            return sum((v for k, v in what.items() if k.startswith(prefix)), 0.0)

        count = {name: cell[0] for name, cell in self._cells.items()}
        metrics = {
            "fracops.deriv_calls": sum(calls[k] for k in DERIV),
            "fracops.deriv_nodes": count.get("fracops.deriv_nodes", 0),
            "fracops.deriv_s": sum(self_s[k] for k in DERIV),
            "fracops.oracle_calls": calls["fracops.rl_power_rule"],
            "fracops.gamma_calls": count.get("fracops.gamma", 0),
            "fracops.oracle_s": self_s["fracops.rl_power_rule"],
            "mechanics.calls": int(layer("mechanics.", calls)),
            "mechanics.s": layer("mechanics.", self_s),
            "hamilton_jacobi.calls": int(layer("hamilton_jacobi.", calls))
            + count.get("hamilton_jacobi.momenta_from_S", 0),
            "hamilton_jacobi.s": layer("hamilton_jacobi.", self_s),
            "wkb.operator_calls": sum(calls[k] for k in OPERATORS),
            "wkb.psi_evals": count.get("wkb.WaveField.value", 0),
            "wkb.s": layer("wkb.", self_s),
        }
        for check in CHECK_NAMES:
            metrics[f"verification.{check}_s"] = inclusive[f"verification.{check}"]
        metrics.update({
            "verification.s": layer("verification.", self_s),
            "reporting.rows": count.get("reporting.rows", 0),
            "reporting.bytes": count.get("reporting.bytes", 0),
            "reporting.s": layer("reporting.", self_s),
            "cli.s": op_s - top_level,
        })
        return {
            "metrics": metrics,
            "tree": [[path, c, total, own] for path, (c, total, own) in tree.items()],
        }
