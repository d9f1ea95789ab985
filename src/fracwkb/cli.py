"""Command-line front end: parse, dispatch, write.

cli parses argv and --config files into a RunConfig, hands the settings
each subcommand reads, by name, to that subcommand's record builder in
the verification module, and writes the RecordBatch it returns.  It
builds and judges no record itself: every tolerance table and computed
bound sits with the builders.

Subcommands, and the builders behind them:

- deriv (deriv_records): evaluate a one-sided derivative of a built-in
  power function on a grid, with per-node oracle comparison and a
  convergence check
- example1 / example2 (model_records): run the built-in models end to
  end, comparing every stage against the hand-expanded closed forms
- verify (verify_records): run the full verification suite
- sweep (model_records): repeat the model records across a parameter
  range

Exit code 0 means every emitted record passed its tolerance; 1 means at
least one failed (the failures are echoed on stderr); 2 means the
invocation itself was invalid (a setting that overflows the kernel or
the model, or for which an array cannot be allocated, included); a
reader that closes stdout or stderr changes none of them.  Output is
byte-deterministic for a fixed configuration.  Each subcommand takes
only the flags it reads, and a --config file holds those same flags as
KEY = VALUE lines.  A flag's value may start with - and a digit, a '.',
inf or nan (--q -1e-3, --values -1,2, --q -inf).  main builds the
parser of the subcommand its first argument names and no other's; when
that argument names none (there is none, or it is a flag or an unknown
word) it builds all five, so usage, help and error texts read the same
either way.

argparse checks the choices; RunConfig checks nothing.  A builder
resolves its tolerances first and then checks the order or the rows.  A
model setting, from a flag, a config line or a sweep value, is checked
where its row is evaluated, down the scalar model path, so a bad value
gives one message wherever it came from.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from itertools import chain
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence, TextIO

import numpy as np

from .fracops import TimeGrid
from .mechanics import example1, example2
from .reporting import RecordBatch, render
from .verification import (
    SWEEP_PARAMS, TEST_FUNCTIONS, deriv_records, model_records, verify_records,
)
from .wkb import FD_STEP

__all__ = ["RunConfig", "main"]


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


def _coefficients(config: RunConfig, model: str) -> tuple[float, ...]:
    """(c_alpha, c_beta, l_alpha, l_beta, v) of the model."""
    if model == "custom":
        return config.c_alpha, config.c_beta, config.l_alpha, config.l_beta, config.v
    spec = example1() if model == "example1" else example2()
    return spec.c_alpha, spec.c_beta, spec.l_alpha, spec.l_beta, spec.v


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
    # render checks the format and formats the first piece before --out is
    # opened, so a failure there leaves an existing file as it was; only a
    # later piece's MemoryError, like a row join's, can come mid-write
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
    parse is an error that names its line.  The file is UTF-8, with or
    without a byte-order mark.
    """
    flags = []
    for lineno, raw_line in enumerate(Path(path).read_text(encoding="utf-8-sig").splitlines(), 1):
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


_COMMANDS = {
    "deriv": "one-sided derivative of a test function",
    "example1": "run the example1 model records",
    "example2": "run the example2 model records",
    "verify": "run the verification suite",
    "sweep": "repeat model records over a parameter range",
}

# argparse reads only -N and -N.N as negative numbers, and any other token
# that starts with - as a flag; no fracwkb flag starts with a digit, a '.',
# inf or nan, so such a token (-1e-3, -1,2, -1,1,64, or -inf and -nan in
# any case, as float() reads them) is a flag's value
_NEGATIVE_NUMBER = re.compile(r"-(?:[\d.]|inf|nan)", re.IGNORECASE)

_FLOAT_FLAGS = {
    "alpha": "left derivative order",
    "beta": "right derivative order",
    "e1": "first energy share",
    "e2": "second energy share",
    "q": "frozen coordinate",
    "hbar": "action scale",
    "fd_step": "stencil step",
}


def _make_parser(
    command: str | None = None,
) -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser with command's subparser, or all five; dests name RunConfig fields."""
    parser = argparse.ArgumentParser(
        prog="fracwkb",
        description="Fractional-derivative mechanics and wave-construction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in [command] if command in _COMMANDS else _COMMANDS:
        p = sub.add_parser(name, help=_COMMANDS[name])
        p._negative_number_matcher = _NEGATIVE_NUMBER
        if name != "verify":  # deriv takes the first two float flags, the models all
            for field in list(_FLOAT_FLAGS)[: 2 if name == "deriv" else None]:
                flag = "--" + field.replace("_", "-")
                p.add_argument(flag, type=float, help=_help(_FLOAT_FLAGS[field], field))
        p.add_argument(
            "--format", dest="output_format", choices=("table", "csv", "json"),
            help=_help("output format", "output_format"),
        )
        p.add_argument(
            "--out", dest="output_path", metavar="PATH",
            help="write output to this path instead of stdout",
        )
        p.add_argument(
            "--config", metavar="PATH", help="flat key=value file of this subcommand's flags"
        )
        p.add_argument(
            "--tol", dest="tolerances", action="append", metavar="NAME=VALUE",
            help="override a named tolerance (repeatable)",
        )
        if name == "deriv":
            p.add_argument("--grid", help=_help("grid as a,b,count", "grid"))
            p.add_argument(
                "--function",
                choices=sorted(TEST_FUNCTIONS),
                default="x",
                help="built-in test function (powers of the offset from the endpoint)",
            )
            p.add_argument("--side", choices=("left", "right"), default="left")
        elif name == "sweep":
            p.add_argument("--param", choices=SWEEP_PARAMS, help="model setting to sweep")
            p.add_argument("--values", help="comma-separated explicit sweep values")
            p.add_argument("--from", dest="sweep_from", type=float, help="linear range start")
            p.add_argument("--to", dest="sweep_to", type=float, help="linear range end")
            p.add_argument("--steps", type=int, help="number of linear range steps")
            p.add_argument(
                "--model", choices=("example1", "example2", "custom"), help=_help("model", "model")
            )
            for field in ("c_alpha", "c_beta", "l_alpha", "l_beta", "v"):
                flag, text = "--" + field.replace("_", "-"), f"custom model's {field}"
                p.add_argument(flag, type=float, help=_help(text, field))
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
    if args.param not in SWEEP_PARAMS:
        raise ValueError(f"sweep parameter must be one of {SWEEP_PARAMS}")
    if not values:
        raise ValueError("sweep needs at least one value")
    return values


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = _make_parser(argv[0] if argv else None)
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
            order = config.alpha if args.side == "left" else config.beta
            batch = deriv_records(config.tolerances, args.function, args.side, order, config.grid)
        elif args.command == "verify":
            batch = verify_records(config.tolerances)
        else:
            model, sweep = args.command, getattr(args, "param", None)
            settings = {name: getattr(config, name) for name in SWEEP_PARAMS}
            if model == "sweep":
                # _sweep_values checks --param before it is used as a key
                model, settings[sweep] = config.model, _sweep_values(args)
            coefficients = _coefficients(config, model)
            batch = model_records(config.tolerances, coefficients, config.hbar, sweep, **settings)
        return _emit(batch, config)
    except (ValueError, OverflowError, OSError, MemoryError) as exc:
        _write(sys.stderr, [f"error: {exc}\n"])
        return 2


if __name__ == "__main__":
    sys.exit(main())
