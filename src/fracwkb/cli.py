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
invocation itself was invalid (a setting that overflows the kernel or
the model, or for which an array cannot be allocated, included); a
reader that closes stdout or stderr changes none of them.  Output is
byte-deterministic for a fixed configuration.  Each subcommand takes
only the flags it reads, and a --config file holds those same flags as
KEY = VALUE lines.

argparse checks the choices; RunConfig checks nothing.  A model
setting, from a flag, a config line or a sweep value, is checked where
its row is evaluated: wkb.evaluate_models reruns a row it flags down
the scalar model path, so a bad value gives one message wherever it
came from.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import chain, compress
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence, TextIO

import numpy as np

from .fracops import FractionalOrder, TimeGrid
from .mechanics import FamilyColumns, example1, example2
from .reporting import FLOAT_SPEC, INFORMATIONAL, RecordBatch, ReportRecord, render
from .verification import (
    DEFAULT_TOLERANCES,
    observed_order_record,
    power_kernel_check,
    resolve_tolerances,
    run_checks,
)
from .wkb import FD_STEP, SAMPLE_POINT, evaluate_models

__all__ = ["RunConfig", "main"]

_TEST_FUNCTIONS = {"const": 0, "x": 1, "x2": 2, "x3": 3}

_DERIV_TOLERANCES = {
    name: DEFAULT_TOLERANCES[name] for name in ("kernel_max_error", "kernel_order")
}

# the model records' own tolerances, then those they share with verify
_EXAMPLE_TOLERANCES = {
    "closed_form": 1e-12,
    "hj_residual": 1e-10,
    **{
        name: DEFAULT_TOLERANCES[name]
        for name in ("momentum_eigenvalue", "energy_eigenvalue", "probability", "imag_part")
    },
}

_SWEEP_PARAMS = ("alpha", "beta", "e1", "e2", "q", "fd_step")


class RunConfig(NamedTuple):
    """Resolved settings: defaults, then config file, then flags; unchecked."""

    model: str = "example1"
    alpha: float = 1.5
    beta: float = 1.5
    e1: float = 1.0
    e2: float = 1.0
    q: float = 0.0
    hbar: float = 1.0
    fd_step: float = FD_STEP
    grid: TimeGrid = TimeGrid(0.0, 1.0, 1024)
    output_format: str = "table"
    output_path: str | None = None
    tolerances: Mapping[str, float] = MappingProxyType({})
    c_alpha: float = 1.0
    c_beta: float = 1.0
    l_alpha: float = 0.0
    l_beta: float = 0.0
    v: float = 0.0


def cmd_deriv(config: RunConfig, function: str, side: str) -> RecordBatch:
    """Per-node derivative values plus oracle summary records.

    Per-node rows are informational (infinite tolerance): they expose
    the data, including divergent endpoints, without gating the exit
    code.  The pass/fail content lives in the max_interior_error and
    observed_order records; observed_order is informational too when
    the fine grid's error is within twice its roundoff floor.  An order
    that overflows on the grid, or else on its 4x refinement, exits 2.
    """
    exponent = _TEST_FUNCTIONS[function]
    tolerances = resolve_tolerances(config.tolerances, _DERIV_TOLERANCES)
    order = FractionalOrder(config.alpha if side == "left" else config.beta)
    grid = config.grid
    refined = f"4x refinement grid {grid.a!r},{grid.b!r},{4 * grid.count}"
    try:
        fine_grid = TimeGrid(grid.a, grid.b, 4 * grid.count)
    except ValueError as exc:
        raise ValueError(f"{refined}: {exc}") from None
    checks = []
    for on, label in ((grid, f"grid {grid.a!r},{grid.b!r},{grid.count}"), (fine_grid, refined)):
        try:
            checks.append([a[0, 0] for a in power_kernel_check(on, [exponent], [order], side)])
            numeric, _, error = checks[-1]
            for name, values in (("derivative", numeric), ("max interior error", error)):
                if not np.all(np.isfinite(values)):
                    raise OverflowError(
                        f"order {order.value!r} overflows a float: its {name} is not finite"
                    )
        except OverflowError as exc:
            raise ValueError(f"{label}: {exc}") from None
    (numeric, oracle, error), (_, _, fine_error) = checks

    summary = [
        ReportRecord("max_interior_error", 0.0, error, tolerances["kernel_max_error"]),
        observed_order_record(
            "observed_order", exponent, order, (grid, error), (fine_grid, fine_error),
            tolerances["kernel_order"],
        ),
    ]
    return RecordBatch(
        [f"D[x={x:{FLOAT_SPEC}}]" for x in grid.nodes().tolist()] + [r.quantity for r in summary],
        np.append(oracle, [r.analytic for r in summary]),
        np.append(numeric, [r.numeric for r in summary]),
        np.append(np.full(oracle.size, INFORMATIONAL), [r.tolerance for r in summary]),
    )


def _coefficients(config: RunConfig, model: str) -> tuple[float, ...]:
    """(c_alpha, c_beta, l_alpha, l_beta, v) of the model."""
    if model == "custom":
        return config.c_alpha, config.c_beta, config.l_alpha, config.l_beta, config.v
    spec = example1() if model == "example1" else example2()
    return spec.c_alpha, spec.c_beta, spec.l_alpha, spec.l_beta, spec.v


def _closed_form_slopes(model: str, coefficients, e1, e2, q) -> tuple[np.ndarray, np.ndarray]:
    # Hand-expanded per model.  The custom model's expansion takes another
    # rounding route than the family's l + sqrt(c (v q q + 2 e)): the
    # product is distributed and sqrt(2 c e2) split in two.
    if model == "example1":
        return np.sqrt(2.0 * e1), np.sqrt(2.0 * e2)
    if model == "example2":
        return np.sqrt(q * q + 2.0 * e1) + 1.0, np.sqrt(2.0 * e2) + 1.0
    c_alpha, c_beta, l_alpha, l_beta, v = coefficients
    return (
        l_alpha + np.sqrt(c_alpha * v * q * q + 2.0 * c_alpha * e1),
        l_beta + np.sqrt(2.0 * c_beta) * np.sqrt(e2),
    )


# Model record names, which are also ModelColumns fields, and their
# tolerances; a row whose momenta are not both positive keeps only the
# first four.
_MODEL_RECORDS = {
    "w1_slope": "closed_form",
    "w2_slope": "closed_form",
    "S": "closed_form",
    "hj_residual": "hj_residual",
    "p_alpha": "momentum_eigenvalue",
    "p_alpha_imag": "imag_part",
    "p_beta": "momentum_eigenvalue",
    "p_beta_imag": "imag_part",
    "energy": "energy_eigenvalue",
    "energy_imag": "imag_part",
    "probability": "probability",
}


def cmd_example(
    config: RunConfig, model: str, param: str | None = None, values: Sequence[float] = ()
) -> RecordBatch:
    """Model records: slopes, S, HJ residual, eigenvalues, probability.

    One row for config, or one per value with param set to it, all
    evaluated in one batch.  Wave-field records are emitted only where
    both slope momenta are positive; zero-energy rows still report
    slopes, S and the HJ residual.  The rows are validated where they
    are evaluated, by evaluate_models: a bad setting raises the scalar
    path's error, whether it came from a flag or a sweep value.
    """
    tolerances = resolve_tolerances(config.tolerances, _EXAMPLE_TOLERANCES)
    settings = {name: getattr(config, name) for name in _SWEEP_PARAMS}
    if param is not None:
        settings[param] = values
    rows = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in settings.values()))
    alpha, beta, e1, e2, q, fd_step = map(np.ravel, rows)
    coefficients = _coefficients(config, model)
    u1, u2, t = SAMPLE_POINT
    columns = evaluate_models(
        FamilyColumns(*coefficients, alpha, beta), e1, e2, u1, u2, t, q, fd_step, config.hbar
    )

    with np.errstate(all="ignore"):
        w1, w2 = _closed_form_slopes(model, coefficients, e1, e2, q)
        S = w1 * u1 + w2 * u2 - (e1 + e2) * t
    zero, one = np.zeros_like(w1), np.ones_like(w1)
    analytic = [w1, w2, S, zero, w1, zero, w2, zero, e1 + e2, zero, one]
    kept = np.ones((len(w1), len(_MODEL_RECORDS)), dtype=bool)
    kept[:, 4:] = columns.wave[:, None]
    sweep = None if param is None else (param, np.repeat(values, kept.sum(axis=1)))
    kept = kept.ravel()
    return RecordBatch(
        list(compress(list(_MODEL_RECORDS) * len(w1), kept.tolist())),
        np.column_stack(analytic).ravel()[kept],
        np.column_stack([getattr(columns, name) for name in _MODEL_RECORDS]).ravel()[kept],
        np.tile([tolerances[name] for name in _MODEL_RECORDS.values()], len(w1))[kept],
        sweep,
    )


def cmd_verify(config: RunConfig) -> RecordBatch:
    """Full verification suite with the acceptance tolerances."""
    return RecordBatch.from_records(
        [record for _, records in run_checks(config.tolerances) for record in records]
    )


def _write(stream: TextIO, pieces: Iterable[str]) -> None:
    try:
        stream.writelines(pieces)
        stream.flush()
    except BrokenPipeError:
        # the reader closed the stream, which changes no exit code: stop
        # writing, and send what is left, up to the final flush, to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)


def _emit(batch: RecordBatch, config: RunConfig) -> int:
    # the columns are rendered before --out is opened, so a failure there
    # leaves an existing file as it was
    pieces = render(batch, config.output_format)
    if config.output_path is not None:
        with open(config.output_path, "w", encoding="utf-8") as out:
            out.writelines(pieces)
    else:
        _write(sys.stdout, pieces)
    if not batch.passed.all():
        _write(sys.stderr, chain(["failing records:\n"], render(batch.failures(), "table")))
        return 1
    return 0


def _number(kind: type, text: str, what: str) -> float:
    """kind(text), or a ValueError that names what the text was for."""
    try:
        return kind(text)
    except ValueError:
        needed = "an integer" if kind is int else "a number"
        raise ValueError(f"{what} must be {needed}, got {text!r}") from None


def _parse_grid(text: str) -> TimeGrid:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"grid must be 'a,b,count', got {text!r}")
    a, b = (_number(float, part, "--grid endpoint") for part in parts[:2])
    return TimeGrid(a, b, _number(int, parts[2], "--grid count"))


def _parse_tol(entries: Sequence[str]) -> dict[str, float]:
    out = {}
    for entry in entries:
        name, sep, value = entry.partition("=")
        if not sep or not name:
            raise ValueError(f"tolerance override must be NAME=VALUE, got {entry!r}")
        out[name] = _number(float, value, f"--tol {name}")
    return out


def _parse_value(flag: str, action: argparse.Action, value: str) -> None:
    """Parse a config value as its flag would, naming the flag if it fails."""
    if action.dest == "grid":
        _parse_grid(value)
    elif action.dest == "tolerances":
        _parse_tol([value])
    elif action.type is not None:
        _number(action.type, value, flag)
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"{flag} must be one of {', '.join(action.choices)}, got {value!r}")


def _config_flags(path: str, parser: argparse.ArgumentParser) -> list[str]:
    """A flat KEY = VALUE file as the flags of one subcommand.

    Each key is one of the parser's flags without its leading dashes,
    written with _ for - (fd_step = 1e-3 is --fd-step=1e-3); tol.NAME = V
    is --tol=NAME=V.  # starts a comment.  A value its flag would not
    parse is an error that names its line.
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
        try:
            _parse_value(flag, action, value)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        flags.append(f"{flag}={value}")
    return flags


def _build_config(args: argparse.Namespace) -> RunConfig:
    given = vars(args)
    values = {name: given[name] for name in RunConfig._fields if given.get(name) is not None}
    if "grid" in values:
        values["grid"] = _parse_grid(values["grid"])
    values["tolerances"] = _parse_tol(values.get("tolerances", []))
    return RunConfig(**values)


def _help(text: str, name: str) -> str:
    # text, then field name's RunConfig default: numbers in %g, a grid as a,b,count
    value = RunConfig._field_defaults[name]
    shown = value if isinstance(value, str) else ",".join(f"{x:g}" for x in np.atleast_1d(value))
    return f"{text} (default {shown})"


def _make_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser and its subcommand parsers; each dest names a RunConfig field."""
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument(
        "--format", dest="output_format", choices=("table", "csv", "json"),
        help=_help("output format", "output_format"),
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
    orders.add_argument("--alpha", type=float, help=_help("left derivative order", "alpha"))
    orders.add_argument("--beta", type=float, help=_help("right derivative order", "beta"))

    model = argparse.ArgumentParser(add_help=False, parents=[orders])
    model.add_argument("--e1", type=float, help=_help("first energy share", "e1"))
    model.add_argument("--e2", type=float, help=_help("second energy share", "e2"))
    model.add_argument("--q", type=float, help=_help("frozen coordinate", "q"))
    model.add_argument("--hbar", type=float, help=_help("action scale", "hbar"))
    model.add_argument("--fd-step", type=float, help=_help("stencil step", "fd_step"))

    parser = argparse.ArgumentParser(
        prog="fracwkb",
        description="Fractional-derivative mechanics and wave-construction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_deriv = sub.add_parser(
        "deriv", parents=[orders, output], help="one-sided derivative of a test function"
    )
    p_deriv.add_argument("--grid", help=_help("grid as a,b,count", "grid"))
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
    p_sweep.add_argument("--param", choices=_SWEEP_PARAMS, help="model setting to sweep")
    p_sweep.add_argument("--values", help="comma-separated explicit sweep values")
    p_sweep.add_argument("--from", dest="sweep_from", type=float, help="linear range start")
    p_sweep.add_argument("--to", dest="sweep_to", type=float, help="linear range end")
    p_sweep.add_argument("--steps", type=int, help="number of linear range steps")
    p_sweep.add_argument(
        "--model", choices=("example1", "example2", "custom"), help=_help("model", "model")
    )
    for name in ("c_alpha", "c_beta", "l_alpha", "l_beta", "v"):
        flag = "--" + name.replace("_", "-")
        p_sweep.add_argument(flag, type=float, help=_help(f"custom model's {name}", name))
    return parser, sub.choices


def _sweep_values(args: argparse.Namespace) -> list[float]:
    linear = (args.sweep_from, args.sweep_to, args.steps)
    if args.values is not None:
        if linear != (None, None, None):
            raise ValueError("sweep needs --values or --from/--to/--steps, not both")
        values = [_number(float, x, "--values entry") for x in args.values.split(",") if x.strip()]
    elif linear != (None, None, None):
        if None in linear:
            raise ValueError("linear sweep needs --from, --to and --steps together")
        if args.steps < 1:
            raise ValueError("--steps must be >= 1")
        if args.steps == 1:
            values = [args.sweep_from]
        else:
            width = (args.sweep_to - args.sweep_from) / (args.steps - 1)
            values = [args.sweep_from + i * width for i in range(args.steps)]
    else:
        raise ValueError("sweep needs --values or --from/--to/--steps")
    if args.param not in _SWEEP_PARAMS:
        raise ValueError(f"sweep parameter must be one of {_SWEEP_PARAMS}")
    if not values:
        raise ValueError("sweep needs at least one value")
    return values


def main(argv: Sequence[str] | None = None) -> int:
    parser, commands = _make_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0].startswith("-") and argv[0] not in ("-h", "--help"):
        flag = argv[0].split("=", 1)[0]
        parser.error(
            f"{flag} comes before the subcommand; flags go after it:"
            f" fracwkb SUBCOMMAND {flag} ..."
        )
    args, unknown = parser.parse_known_args(argv)
    if unknown:
        # the subcommand's parser reports it, so the usage shows its flags
        commands[args.command].error(f"unrecognized arguments: {' '.join(unknown)}")
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
        return _emit(cmd_example(config, config.model, args.param, _sweep_values(args)), config)
    except (ValueError, OverflowError, OSError, MemoryError) as exc:
        _write(sys.stderr, [f"error: {exc}\n"])
        return 2


if __name__ == "__main__":
    sys.exit(main())
