"""Command-line front end.

Subcommands:

- deriv: evaluate a one-sided derivative of a built-in power function
  on a grid, with per-node oracle comparison and a convergence check
- example1 / example2: run the built-in models end to end, comparing
  every stage against the hand-expanded closed forms
- verify: run the full verification suite (see the verification module)
- sweep: repeat the model records across a parameter range

Exit code 0 means every emitted record passed its tolerance; 1 means at
least one failed (the failures are echoed on stderr); 2 means the
invocation itself was invalid (a setting so large that a float
overflows included).  Output is byte-deterministic for a fixed
configuration.  Each subcommand takes only the flags it reads, and a
--config file holds those same flags as KEY = VALUE lines.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Sequence

from .fracops import FractionalOrder, TimeGrid
from .hamilton_jacobi import (
    EnergyPartition,
    TransformedPoint,
    evaluate_S,
    hj_residual,
    momenta_from_S,
    separate,
)
from .mechanics import LagrangianSpec, example1, example2
from .reporting import (
    INFORMATIONAL,
    ReportRecord,
    format_csv,
    format_json,
    format_table,
)
from .verification import (
    observed_order_record,
    power_kernel_check,
    resolve_tolerances,
    run_checks,
)
from .wkb import apply_hamiltonian, apply_momentum, build_wavefunction, probability_density

__all__ = ["RunConfig", "main"]

_TEST_FUNCTIONS = {"const": 0, "x": 1, "x2": 2, "x3": 3}

_DERIV_TOLERANCES = {"kernel_max_error": 1e-3, "kernel_order": 0.2}

_EXAMPLE_TOLERANCES = {
    "closed_form": 1e-12,
    "hj_residual": 1e-10,
    "momentum_eigenvalue": 1e-6,
    "energy_eigenvalue": 1e-6,
    "probability": 1e-14,
    "imag_part": 1e-8,
}

_SWEEP_PARAMS = ("alpha", "beta", "e1", "e2", "q", "fd_step")

# Fixed sample point for the model records; chosen with a small phase
# so the stencil eigen-checks sit well above the roundoff floor.
_SAMPLE_POINT = (0.02, -0.015, 0.005)


@dataclass(frozen=True)
class RunConfig:
    """Resolved settings: defaults, then config file, then flags."""

    model: str = "example1"
    alpha: float = 1.5
    beta: float = 1.5
    e1: float = 1.0
    e2: float = 1.0
    q: float = 0.0
    hbar: float = 1.0
    fd_step: float = 1e-4
    grid: TimeGrid = TimeGrid(0.0, 1.0, 1024)
    output_format: str = "table"
    output_path: str | None = None
    tolerances: dict[str, float] = field(default_factory=dict)
    c_alpha: float = 1.0
    c_beta: float = 1.0
    l_alpha: float = 0.0
    l_beta: float = 0.0
    v: float = 0.0

    def __post_init__(self) -> None:
        if self.model not in ("example1", "example2", "custom"):
            raise ValueError(f"unknown model {self.model!r}")
        if self.e1 < 0.0 or self.e2 < 0.0:
            raise ValueError("e1 and e2 must be >= 0")
        if not self.fd_step > 0.0:
            raise ValueError("fd_step must be positive")
        if not self.hbar > 0.0:
            raise ValueError("hbar must be positive")
        if self.output_format not in ("table", "csv", "json"):
            raise ValueError(f"unknown format {self.output_format!r}")
        FractionalOrder(self.alpha)
        FractionalOrder(self.beta)


def cmd_deriv(config: RunConfig, function: str, side: str) -> list[ReportRecord]:
    """Per-node derivative values plus oracle summary records.

    Per-node rows are informational (infinite tolerance): they expose
    the data, including divergent endpoints, without gating the exit
    code.  The pass/fail content lives in the max_interior_error and
    observed_order records; observed_order is informational too when
    the fine grid's error is within twice its roundoff floor.
    """
    tolerances = resolve_tolerances(config.tolerances, _DERIV_TOLERANCES)
    exponent = _TEST_FUNCTIONS[function]
    order = FractionalOrder(config.alpha if side == "left" else config.beta)
    grid = config.grid
    numeric, oracle, error = power_kernel_check(grid, exponent, order, side)
    fine_grid = TimeGrid(grid.a, grid.b, 4 * grid.count)
    fine_error = power_kernel_check(fine_grid, exponent, order, side)[2]

    records = [
        ReportRecord(f"D[x={x:.17g}]", analytic, value, INFORMATIONAL)
        for x, analytic, value in zip(grid.nodes(), oracle.tolist(), numeric.tolist())
    ]
    records.append(
        ReportRecord("max_interior_error", 0.0, error, tolerances["kernel_max_error"])
    )
    records.append(
        observed_order_record(
            "observed_order", exponent, order, (grid, error), (fine_grid, fine_error),
            tolerances["kernel_order"],
        )
    )
    return records


def _model_spec(config: RunConfig, model: str) -> LagrangianSpec:
    if model == "example1":
        return example1(config.alpha, config.beta)
    if model == "example2":
        return example2(config.alpha, config.beta)
    return LagrangianSpec(
        config.c_alpha,
        config.c_beta,
        config.l_alpha,
        config.l_beta,
        config.v,
        FractionalOrder(config.alpha),
        FractionalOrder(config.beta),
    )


def _closed_form_slopes(config: RunConfig, model: str, pf) -> tuple[float, float]:
    # Hand-expanded per model; the custom model has no independent
    # expansion, so its slope records compare the family against itself.
    if model == "example1":
        return math.sqrt(2.0 * config.e1), math.sqrt(2.0 * config.e2)
    if model == "example2":
        return math.sqrt(config.q * config.q + 2.0 * config.e1) + 1.0, math.sqrt(2.0 * config.e2) + 1.0
    momenta = momenta_from_S(pf, TransformedPoint(0.0, 0.0, 0.0, config.q))
    return momenta.p_alpha, momenta.p_beta


def cmd_example(config: RunConfig, model: str) -> list[ReportRecord]:
    """Model records: slopes, S, HJ residual, eigenvalues, probability.

    Wave-field records are emitted only when both slope momenta are
    positive; zero-energy runs still report slopes, S and the HJ
    residual.
    """
    tolerances = resolve_tolerances(config.tolerances, _EXAMPLE_TOLERANCES)
    if config.alpha < 1.0 or config.beta < 1.0:
        raise ValueError("model commands require alpha >= 1 and beta >= 1")
    spec = _model_spec(config, model)
    pf = separate(spec, EnergyPartition(config.e1, config.e2))
    w1, w2 = _closed_form_slopes(config, model, pf)
    point = TransformedPoint(*_SAMPLE_POINT, config.q)

    records = [
        ReportRecord("w1_slope", w1, pf.w1_slope(config.q), tolerances["closed_form"]),
        ReportRecord("w2_slope", w2, pf.w2_slope, tolerances["closed_form"]),
        ReportRecord(
            "S",
            w1 * point.u1 + w2 * point.u2 - (config.e1 + config.e2) * point.t,
            evaluate_S(pf, point),
            tolerances["closed_form"],
        ),
        ReportRecord("hj_residual", 0.0, hj_residual(pf, point), tolerances["hj_residual"]),
    ]

    if w1 > 0.0 and w2 > 0.0:
        wf = build_wavefunction(pf, config.hbar)
        for which, analytic in (("alpha", w1), ("beta", w2)):
            est = apply_momentum(wf, which, point, config.fd_step).eigenvalue_estimate
            records.append(
                ReportRecord(f"p_{which}", analytic, est.real, tolerances["momentum_eigenvalue"])
            )
            records.append(
                ReportRecord(f"p_{which}_imag", 0.0, est.imag, tolerances["imag_part"])
            )
        est = apply_hamiltonian(wf, point, config.fd_step).eigenvalue_estimate
        records.append(
            ReportRecord(
                "energy", config.e1 + config.e2, est.real, tolerances["energy_eigenvalue"]
            )
        )
        records.append(ReportRecord("energy_imag", 0.0, est.imag, tolerances["imag_part"]))
        momenta = momenta_from_S(pf, point)
        records.append(
            ReportRecord(
                "probability",
                1.0,
                probability_density(wf, point) * momenta.p_alpha * momenta.p_beta,
                tolerances["probability"],
            )
        )
    return records


def cmd_sweep(
    config: RunConfig, param: str, values: Sequence[float]
) -> list[tuple[float, ReportRecord]]:
    """Model records repeated for each value of one swept parameter."""
    if param not in _SWEEP_PARAMS:
        raise ValueError(f"sweep parameter must be one of {_SWEEP_PARAMS}")
    if not values:
        raise ValueError("sweep needs at least one value")
    rows = []
    for value in values:
        swept = replace(config, **{param: value})
        for record in cmd_example(swept, config.model):
            rows.append((value, record))
    return rows


def cmd_verify(config: RunConfig) -> list[ReportRecord]:
    """Full verification suite with the acceptance tolerances."""
    records = []
    for _, check_records in run_checks(config.tolerances):
        records.extend(check_records)
    return records


def _emit(
    rows: list[ReportRecord] | list[tuple[float, ReportRecord]],
    config: RunConfig,
    sweep_param: str | None = None,
) -> int:
    formatter = {"table": format_table, "csv": format_csv, "json": format_json}[
        config.output_format
    ]
    text = formatter(rows, sweep_param)
    if config.output_path is not None:
        Path(config.output_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    records = [row[1] for row in rows] if sweep_param is not None else rows
    failing = [record for record in records if not record.passed]
    if failing:
        sys.stderr.write("failing records:\n")
        sys.stderr.write(format_table(failing))
        return 1
    return 0


def _parse_grid(text: str) -> TimeGrid:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"grid must be 'a,b,count', got {text!r}")
    return TimeGrid(float(parts[0]), float(parts[1]), int(parts[2]))


def _parse_tol(entries: Sequence[str]) -> dict[str, float]:
    out = {}
    for entry in entries:
        name, sep, value = entry.partition("=")
        if not sep or not name:
            raise ValueError(f"tolerance override must be NAME=VALUE, got {entry!r}")
        out[name] = float(value)
    return out


def _config_flags(path: str, parser: argparse.ArgumentParser) -> list[str]:
    """A flat KEY = VALUE file as the flags of one subcommand.

    Each key is one of the parser's flags without its leading dashes,
    written with _ for - (fd_step = 1e-3 is --fd-step=1e-3); tol.NAME = V
    is --tol=NAME=V.  # starts a comment.
    """
    flags = []
    for lineno, raw_line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep:
            raise ValueError(f"{path}:{lineno}: expected KEY = VALUE, got {raw_line!r}")
        if key.startswith("tol."):
            key, value = "tol", f"{key[4:]}={value}"
        flag = "--" + key.replace("_", "-")
        action = parser._option_string_actions.get(flag)
        if "-" in key or action is None or action.dest in ("help", "config"):
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        flags.append(f"{flag}={value}")
    return flags


def _build_config(args: argparse.Namespace) -> RunConfig:
    given = vars(args)
    values = {f.name: given[f.name] for f in fields(RunConfig) if given.get(f.name) is not None}
    if "grid" in values:
        values["grid"] = _parse_grid(values["grid"])
    values["tolerances"] = _parse_tol(values.get("tolerances", []))
    return RunConfig(**values)


def _make_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser and its subcommand parsers; each dest names a RunConfig field."""
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument(
        "--format", dest="output_format", choices=("table", "csv", "json"),
        help="output format (default table)",
    )
    output.add_argument(
        "--out", dest="output_path", metavar="PATH",
        help="write output to this path instead of stdout",
    )
    output.add_argument(
        "--config", metavar="PATH", help="flat key=value file of this subcommand's flags"
    )
    output.add_argument(
        "--tol",
        dest="tolerances",
        action="append",
        metavar="NAME=VALUE",
        help="override a named tolerance (repeatable)",
    )

    orders = argparse.ArgumentParser(add_help=False)
    orders.add_argument("--alpha", type=float, help="left derivative order (default 1.5)")
    orders.add_argument("--beta", type=float, help="right derivative order (default 1.5)")

    model = argparse.ArgumentParser(add_help=False, parents=[orders])
    model.add_argument("--e1", type=float, help="first energy share (default 1)")
    model.add_argument("--e2", type=float, help="second energy share (default 1)")
    model.add_argument("--q", type=float, help="frozen coordinate (default 0)")
    model.add_argument("--hbar", type=float, help="action scale (default 1)")
    model.add_argument("--fd-step", type=float, dest="fd_step", help="stencil step (default 1e-4)")

    parser = argparse.ArgumentParser(
        prog="fracwkb",
        description="Fractional-derivative mechanics and wave-construction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_deriv = sub.add_parser(
        "deriv", parents=[orders, output], help="one-sided derivative of a test function"
    )
    p_deriv.add_argument("--grid", help="grid as a,b,count (default 0,1,1024)")
    p_deriv.add_argument(
        "--function",
        choices=sorted(_TEST_FUNCTIONS),
        default="x",
        help="built-in test function (powers of the offset from the endpoint)",
    )
    p_deriv.add_argument("--side", choices=("left", "right"), default="left")

    for name in ("example1", "example2"):
        sub.add_parser(name, parents=[model, output], help=f"run the {name} model records")

    sub.add_parser("verify", parents=[output], help="run the verification suite")

    p_sweep = sub.add_parser(
        "sweep", parents=[model, output], help="repeat model records over a parameter range"
    )
    p_sweep.add_argument("--param", choices=_SWEEP_PARAMS)
    p_sweep.add_argument("--values", help="comma-separated explicit sweep values")
    p_sweep.add_argument("--from", dest="sweep_from", type=float, help="linear range start")
    p_sweep.add_argument("--to", dest="sweep_to", type=float, help="linear range end")
    p_sweep.add_argument("--steps", type=int, help="number of linear range steps")
    p_sweep.add_argument("--model", choices=("example1", "example2", "custom"))
    p_sweep.add_argument("--c-alpha", dest="c_alpha", type=float)
    p_sweep.add_argument("--c-beta", dest="c_beta", type=float)
    p_sweep.add_argument("--l-alpha", dest="l_alpha", type=float)
    p_sweep.add_argument("--l-beta", dest="l_beta", type=float)
    p_sweep.add_argument("--v", type=float)
    return parser, sub.choices


def _sweep_values(args: argparse.Namespace) -> list[float]:
    if args.values is not None:
        parts = [part for part in args.values.split(",") if part.strip()]
        return [float(part) for part in parts]
    if args.sweep_from is not None or args.sweep_to is not None or args.steps is not None:
        if args.sweep_from is None or args.sweep_to is None or args.steps is None:
            raise ValueError("linear sweep needs --from, --to and --steps together")
        if args.steps < 1:
            raise ValueError("--steps must be >= 1")
        if args.steps == 1:
            return [args.sweep_from]
        width = (args.sweep_to - args.sweep_from) / (args.steps - 1)
        return [args.sweep_from + i * width for i in range(args.steps)]
    raise ValueError("sweep needs --values or --from/--to/--steps")


def main(argv: Sequence[str] | None = None) -> int:
    parser, commands = _make_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            # file values go before the command line's, so its flags win
            at = argv.index(args.command) + 1
            file_flags = _config_flags(args.config, commands[args.command])
            args = parser.parse_args(argv[:at] + file_flags + argv[at:])
        config = _build_config(args)
        if args.command == "deriv":
            other = "beta" if args.side == "left" else "alpha"
            if getattr(args, other) is not None:
                raise ValueError(f"--{other} does not apply to --side {args.side}")
            return _emit(cmd_deriv(config, args.function, args.side), config)
        if args.command in ("example1", "example2"):
            return _emit(cmd_example(config, args.command), config)
        if args.command == "verify":
            return _emit(cmd_verify(config), config)
        rows = cmd_sweep(config, args.param, _sweep_values(args))
        return _emit(rows, config, sweep_param=args.param)
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
