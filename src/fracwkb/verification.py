"""Verification suite and the records of every CLI subcommand.

This module builds every record the CLI prints, and so holds every
tolerance table and computed bound behind them: deriv_records for
`fracwkb deriv` (with observed_order_record's 2-floor rule),
model_records for example1, example2 and sweep (with the HJ residual's
rounding floor, _hj_rounding_floor), and verify_records for verify (with
the stencil's discrete-eigenvalue budget).  Each builder takes its
inputs by name and resolves its tolerances before it checks an order or
a row.  The cli module only parses, dispatches and writes; of the
records it prints, only classical_limit_check's come from another
module (wkb).

Each check_* function returns ReportRecords for one family of claims;
run_checks executes all of them with a named-tolerance table and the
run's model measurements.  The CLI verify subcommand and the acceptance
tests share this module, so a passing `fracwkb verify` and a passing
test run certify the same facts.

Eigenvalue checks evaluate at fixed points with |S/hbar| well below one
radian.  The estimates are point-independent up to stencil error, and
small phases keep the 1/h**2 roundoff amplification (see the wkb module
notes) far beneath the 1e-8 imaginary-part budget.

All randomized sweeps use fixed seeds (202301 for the HJ identity,
202302 for the probability law) so output is byte-deterministic.  They
draw from the standard library's random.Random, the MT19937 Mersenne
Twister: Python documents that random() keeps its sequence for a seed
across versions, while NumPy (NEP 19) promises no cross-version stream
for Generator methods.  Each random suite is drawn as one block of
columns, one per member field, holding the doubles a member-by-member
scalar uniform draw would take, in the same stream order.  Every model
row verify checks is a plain member row of those 13 fields: the 1,000
HJ draws, then the eigen grid's 176 cases (a case at a point), then the
100 probability draws.  run_checks makes the one evaluate_models call
of a verify run, a checked batch at step FD_STEP, before any check runs,
and hands its measurements to every check: a member the scalar path
rejects stops verify with that path's error, the first such member in
that row order.  The eigen targets come from the one hand expansion of
the slopes.  The kernel oracle differentiates every power at every
order in one rl_derivative_rows call per grid, and the integer
reduction its four polynomials in one more; each takes a row's oracle
and interior error as the kernel hands the row out and keeps only the
error, so no check holds a derivative or oracle block.
"""

from __future__ import annotations

import math
import random
from itertools import compress, product, starmap
from operator import itemgetter
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .fracops import (
    FractionalOrder,
    TimeGrid,
    interior,
    rl_derivative_rows,
    rl_power_rule,
    roundoff_floor,
)
from .hamilton_jacobi import EnergyColumns, EnergyPartition, PrincipalFunction
from .mechanics import FamilyColumns, example1, example2
from .reporting import FLOAT_SPEC, INFORMATIONAL, RecordBatch, ReportRecord
from .wkb import FD_STEP, SAMPLE_POINT, _closed_form_slopes, classical_limit_check, evaluate_models

__all__ = [
    "DEFAULT_TOLERANCES",
    "TEST_FUNCTIONS",
    "SWEEP_PARAMS",
    "resolve_tolerances",
    "power_kernel_check",
    "observed_order_record",
    "deriv_records",
    "model_records",
    "verify_records",
    "run_checks",
    "check_kernel_oracle",
    "check_integer_reduction",
    "check_hj_identity",
    "check_momentum_eigenvalues",
    "check_energy_eigenvalues",
    "check_probability_law",
    "check_classical_limit",
    "check_imaginary_parts",
]

DEFAULT_TOLERANCES: dict[str, float] = {
    "kernel_max_error": 1e-3,
    "kernel_order": 0.2,
    "hj_residual": 1e-12,
    "momentum_eigenvalue": 1e-6,
    "energy_eigenvalue": 1e-6,
    "probability": 1e-14,
    "imag_part": 1e-8,
}

_DERIV_TOLERANCES = {
    name: DEFAULT_TOLERANCES[name] for name in ("kernel_max_error", "kernel_order")
}

# the model records' own tolerances, then those they share with verify
_EXAMPLE_TOLERANCES = {"closed_form": 1e-12, "hj_residual": 1e-10} | {
    name: DEFAULT_TOLERANCES[name]
    for name in ("momentum_eigenvalue", "energy_eigenvalue", "probability", "imag_part")
}

# deriv's built-in functions, powers of the offset from the endpoint
TEST_FUNCTIONS = {"const": 0, "x": 1, "x2": 2, "x3": 3}

# the model settings a sweep may vary, each a keyword of model_records
SWEEP_PARAMS = ("alpha", "beta", "e1", "e2", "q", "fd_step")

_DOMAIN = (0.0, 1.0)
_EXPONENTS = (1, 2, 3)
_ORDERS = (0.25, 0.5, 0.75, 1.5)
_KERNEL_COUNT = 4096
_ORDER_COUNTS = (1024, 8192)
_ENERGIES = (0.5, 1.0, 2.0, 8.0)
_QS = (0.0, 1.0, 2.0)
_HBAR = 1.0

# Evaluation points for the eigen-checks: the origin (phase exactly
# zero) and the small-phase sample point.
_EVAL_POINTS = ((0.0, 0.0, 0.0), SAMPLE_POINT)

_HJ_SEED = 202301
_PROB_SEED = 202302
_HJ_DRAWS = 1000
_PROB_DRAWS = 100

# (low, high) of each member field of the random suites, in draw order:
# the spec's c_alpha, c_beta, l_alpha, l_beta, v, alpha and beta, the
# energies e1 and e2, and the point u1, u2, t and q
_HJ_RANGES = (
    (0.2, 5.0), (0.2, 5.0), (-2.0, 2.0), (-2.0, 2.0), (-1.0, 2.0), (1.0, 2.0), (1.0, 2.0),
    (0.0, 4.0), (0.0, 4.0), (-3.0, 3.0), (-3.0, 3.0), (-2.0, 2.0), (-2.0, 2.0),
)
_PROB_RANGES = (
    (0.2, 5.0), (0.2, 5.0), (0.1, 2.0), (0.1, 2.0), (0.0, 2.0), (1.0, 2.0), (1.0, 2.0),
    (0.1, 4.0), (0.1, 4.0), (-3.0, 3.0), (-3.0, 3.0), (-2.0, 2.0), (-2.0, 2.0),
)


def resolve_tolerances(
    overrides: Mapping[str, float] | None = None,
    defaults: Mapping[str, float] = DEFAULT_TOLERANCES,
) -> dict[str, float]:
    """Tolerance table: defaults with validated overrides applied."""
    table = dict(defaults)
    for name, value in (overrides or {}).items():
        if name not in table:
            raise ValueError(f"unknown tolerance {name!r}; known: {sorted(table)}")
        if not math.isfinite(value) or value < 0.0:
            raise ValueError(f"tolerance {name} must be finite and >= 0, got {value!r}")
        # -0.0 passes the check above: kept as 0.0, it gates alike and prints as 0
        table[name] = value + 0.0
    return table


def _max_interior_error(
    numeric: np.ndarray, oracle: np.ndarray, grid: TimeGrid
) -> np.ndarray | np.float64:
    # over the last axis, so a block of rows gives one error per row
    nodes = interior(grid)
    # an order whose sums or power rule overflow gives an inf or nan error
    with np.errstate(over="ignore", invalid="ignore"):
        return np.max(np.abs(numeric[..., nodes] - oracle[..., nodes]), axis=-1)


def power_kernel_check(
    grid: TimeGrid,
    exponents: Sequence[int],
    orders: Sequence[FractionalOrder],
    side: str = "left",
) -> Iterator[tuple[int, int, np.ndarray, np.ndarray, np.float64]]:
    """Kernel derivatives of power functions against the power rule, row by row.

    Samples offset**k on the grid for each exponent k, the offset being
    measured from the endpoint the chosen side's derivative starts at,
    and differentiates them at every order in one rl_derivative_rows
    call.  Returns an iterator of (i, j, numeric, oracle, error) for
    orders[i] and exponents[j], every order in turn and the exponents
    within it, each as soon as the kernel hands out that row: the numeric
    derivative and the closed-form oracle at every node, count + 1 values
    each, and the max interior error between them.  A caller keeps what
    it reads, so no derivative or oracle block of every row is ever held.

    The offsets are dropped once the samples are taken from them, before
    the first transform, and rebuilt once, when the first row comes
    back, for its oracle and every later row's.  So during the first
    row's transforms only the kernel's buffers are alive (see
    rl_derivative_rows), and during a later row's the offsets too,
    beside what the caller kept.
    """

    def distances() -> np.ndarray:
        return grid.nodes() - grid.a if side == "left" else grid.b - grid.nodes()

    offsets = distances()
    # an overflowing sample is inf, which rl_derivative_rows rejects; the
    # samples are checked, and dropped, before the first row is summed
    with np.errstate(over="ignore"):
        rows = rl_derivative_rows(grid, (offsets**k for k in exponents), orders, side)
    offsets = None

    def check(i: int, j: int, numeric: np.ndarray) -> tuple:
        nonlocal offsets
        if offsets is None:
            offsets = distances()
        oracle = rl_power_rule(exponents[j], orders[i], offsets)
        return i, j, numeric, oracle, _max_interior_error(numeric, oracle, grid)

    # starmap binds no row, so none outlives the next one's sums here
    return starmap(check, rows)


def observed_order_record(
    quantity: str,
    exponent: int,
    order: FractionalOrder,
    coarse: tuple[TimeGrid, float],
    fine: tuple[TimeGrid, float],
    tolerance: float,
) -> ReportRecord:
    """Observed convergence order of power_kernel_check errors.

    coarse and fine are (grid, max interior error) pairs.  When the fine
    error is not above twice its roundoff floor, which counts the rounding
    of the samples and of their offsets, at least half of it may be
    rounding, so the ratio carries no convergence order: the record is
    informational with a nan value, and the max-error records still gate.
    """
    (coarse_grid, coarse_error), (fine_grid, fine_error) = coarse, fine
    width, reach = fine_grid.b - fine_grid.a, max(abs(fine_grid.a), abs(fine_grid.b))
    # samples up to width**k, plus the rounding of offsets taken on nodes
    # as large as reach, carried through the power (none for a constant)
    rounding = exponent * width ** (exponent - 1) * reach if exponent else 0.0
    magnitude = width**exponent + rounding
    if not fine_error > 2.0 * roundoff_floor(order, fine_grid, magnitude):
        return ReportRecord(quantity, 1.0, math.nan, INFORMATIONAL)
    # an exact coarse result against a rounded fine one gives an order of -inf
    ratio = np.float64(coarse_error) / fine_error
    log_ratio = -math.inf if ratio == 0.0 else math.log(ratio)
    observed = log_ratio / math.log(fine_grid.count / coarse_grid.count)
    return ReportRecord(quantity, 1.0, observed, tolerance)


def deriv_records(
    overrides: Mapping[str, float], function: str, side: str, order: float, grid: TimeGrid
) -> RecordBatch:
    """The records of `fracwkb deriv`: per-node derivative values plus
    oracle summary records.

    function names a TEST_FUNCTIONS power, differentiated on grid at
    order from the side's endpoint.  Per-node rows are informational
    (infinite tolerance): they expose the data, including divergent
    endpoints, without gating the exit code.  The pass/fail content lives
    in the max_interior_error and observed_order records; observed_order
    is informational too when the fine grid's error is within twice its
    roundoff floor.  The tolerances are resolved before the order is
    checked.  An order that overflows on the grid, or else on its 4x
    refinement, raises ValueError.
    """
    exponent = TEST_FUNCTIONS[function]
    tolerances = resolve_tolerances(overrides, _DERIV_TOLERANCES)
    order = FractionalOrder(order)
    refined = f"4x refinement grid {grid.a!r},{grid.b!r},{4 * grid.count}"
    try:
        fine_grid = TimeGrid(grid.a, grid.b, 4 * grid.count)
    except ValueError as exc:
        raise ValueError(f"{refined}: {exc}") from None
    kept = []
    for on, label in ((grid, f"grid {grid.a!r},{grid.b!r},{grid.count}"), (fine_grid, refined)):
        try:
            ((*_, numeric, oracle, error),) = power_kernel_check(on, [exponent], [order], side)
            for name, values in (("derivative", numeric), ("max interior error", error)):
                if not np.all(np.isfinite(values)):
                    raise OverflowError(
                        f"order {order.value!r} overflows a float: its {name} is not finite"
                    )
        except OverflowError as exc:
            raise ValueError(f"{label}: {exc}") from None
        # the grid's row is printed; of the refinement only its error is read
        kept.append((numeric, oracle, error) if on is grid else error)
    (numeric, oracle, error), fine_error = kept

    summary = [
        ReportRecord("max_interior_error", 0.0, error, tolerances["kernel_max_error"]),
        observed_order_record(
            "observed_order", exponent, order, (grid, error), (fine_grid, fine_error),
            tolerances["kernel_order"],
        ),
    ]
    names, analytic, values, tolerance = zip(*summary)
    return RecordBatch(
        [f"D[x={x:{FLOAT_SPEC}}]" for x in grid.nodes().tolist()] + list(names),
        np.append(oracle, analytic), np.append(numeric, values),
        np.append(np.full(oracle.size, INFORMATIONAL), tolerance),
    )


def _error_table(
    grid: TimeGrid, exponents: Sequence[int], orders: Sequence[FractionalOrder]
) -> np.ndarray:
    # power_kernel_check's max interior errors, of shape (orders,
    # exponents): it yields orders in turn, exponents within each.  map
    # binds no row, so only the errors outlive each row
    errors = map(itemgetter(-1), power_kernel_check(grid, exponents, orders))
    return np.fromiter(errors, float).reshape(len(orders), len(exponents))


def _kernel_errors() -> dict[int, np.ndarray]:
    # per grid count, the max interior errors of shape (orders, exponents)
    a, b = _DOMAIN
    orders = [FractionalOrder(alpha) for alpha in _ORDERS]
    return {
        count: _error_table(TimeGrid(a, b, count), _EXPONENTS, orders)
        for count in sorted({_KERNEL_COUNT, *_ORDER_COUNTS})
    }


def check_kernel_oracle(tolerances: Mapping[str, float], models: dict) -> list[ReportRecord]:
    """Left-derivative kernel against the closed-form power rule.

    Per (exponent, order) pair: max interior error on the acceptance
    grid, and observed convergence order across an 8x refinement.  The
    kernel checks read no model measurement.
    """
    records = []
    a, b = _DOMAIN
    coarse, fine = (TimeGrid(a, b, count) for count in _ORDER_COUNTS)
    errors = _kernel_errors()
    for (j, k), (i, alpha) in product(enumerate(_EXPONENTS), enumerate(_ORDERS)):
        tag = f"[k={k} alpha={alpha:g}]"
        records.append(
            ReportRecord(
                f"kernel_error{tag}", 0.0, errors[_KERNEL_COUNT][i, j],
                tolerances["kernel_max_error"],
            )
        )
        records.append(
            observed_order_record(
                f"kernel_order{tag}", k, FractionalOrder(alpha),
                (coarse, errors[coarse.count][i, j]), (fine, errors[fine.count][i, j]),
                tolerances["kernel_order"],
            )
        )
    return records


def _integer_reduction_errors() -> dict[str, np.float64]:
    a, b = _DOMAIN
    grid = TimeGrid(a, b, _KERNEL_COUNT)
    nodes = grid.nodes()
    # each polynomial and its ordinary derivative, as functions of the nodes
    cases = {
        "x": (lambda x: x, lambda x: np.ones_like(x)),
        "x^2": (lambda x: x**2, lambda x: 2.0 * x),
        "x^3": (lambda x: x**3, lambda x: 3.0 * x**2),
        "x^3-2x^2+x": (lambda x: x**3 - 2.0 * x**2 + x, lambda x: 3.0 * x**2 - 4.0 * x + 1.0),
    }
    samples = (polynomial(nodes) for polynomial, _ in cases.values())
    rows = rl_derivative_rows(grid, samples, [FractionalOrder(1.0)])
    # the rows come in case order; each oracle is taken beside its row alone
    return {
        name: _max_interior_error(numeric, derivative(nodes), grid)
        for (name, (_, derivative)), (_, _, numeric) in zip(cases.items(), rows)
    }


def check_integer_reduction(tolerances: Mapping[str, float], models: dict) -> list[ReportRecord]:
    """Order-1 kernel against the ordinary derivative of polynomials."""
    return [
        ReportRecord(f"integer_reduction[{name}]", 0.0, err, tolerances["kernel_max_error"])
        for name, err in _integer_reduction_errors().items()
    ]


def _draw_columns(
    seed: int,
    ranges: Sequence[tuple[float, float]],
    n: int,
    accept: Callable[[np.ndarray], np.ndarray] | None = None,
) -> np.ndarray:
    """n rows drawn from random.Random(seed), one column per (low, high) range.

    Bit for bit the scalar loop that draws uniform(low, high) for each
    range in turn, row after row, and draws the row again when accept
    rejects it: uniform is low + (high - low) * random().  Each block
    draws the rows still missing.  accept maps a block to a mask of the
    rows to keep.  The stream is MT19937, whose random() sequence for a
    seed Python keeps across versions.  random() takes two 32-bit words
    a, b and returns ((a >> 5) * 2**26 + (b >> 6)) * 2**-53; a block
    reads its words from one getrandbits(64 * count) call, which hands
    them out as the integer's little-endian 32-bit words in draw order,
    so it takes the same doubles and leaves the generator in the same
    state; the tests hold it to the random() loop on the running
    interpreter.
    """
    rng = random.Random(seed)
    low, high = np.array(ranges).T
    rows = np.empty((0, len(ranges)))
    while len(rows) < n:
        missing = n - len(rows)
        count = missing * len(ranges)
        words = np.frombuffer(rng.getrandbits(64 * count).to_bytes(8 * count, "little"), "<u4")
        doubles = ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) * 2.0**-53
        block = low + (high - low) * doubles.reshape(missing, len(ranges))
        rows = np.concatenate([rows, block if accept is None else block[accept(block)]])
    return rows


def _w1_real(block: np.ndarray) -> np.ndarray:
    """Rows of member fields whose W1 radicand is not negative."""
    pf = PrincipalFunction(FamilyColumns(*block.T[:7]), EnergyColumns(*block.T[7:9]))
    return pf.w1_radicand(block[:, 12]) >= 0.0


def _model_measurements() -> dict:
    """Every model measurement verify checks, from one checked batch.

    The rows are the HJ draws, the eigen grid and the probability draws,
    in the order the checks read them (see the module docstring).  Each
    call evaluates the batch afresh, so run_checks calls it once per run
    and hands the result to every check.  Returns the max HJ residual,
    lists of (quantity, analytic, real, imag) momentum and energy
    estimates, each quantity's largest gap to the stencil's discrete
    eigenvalues with its rounding budget, and the max probability
    deviation.  No model quantity reads the orders, so one
    eigen grid serves every order.  Both targets come from the one hand
    expansion of the slopes, not from the family formulas.
    """
    hj = _draw_columns(_HJ_SEED, _HJ_RANGES, _HJ_DRAWS, _w1_real)
    probability = _draw_columns(_PROB_SEED, _PROB_RANGES, _PROB_DRAWS)
    # each example's first 7 member fields: coefficients, then orders
    ex1, ex2 = ((*s[:5], s.alpha.value, s.beta.value) for s in (example1(), example2()))
    # (label, estimate column, family, e1, e2, q), each case at every point
    momentum = []
    for e in _ENERGIES:
        momentum += [
            (f"example1.p_alpha[e1={e:g}]", "p_alpha", ex1, e, 1.0, 0.0),
            (f"example1.p_beta[e2={e:g}]", "p_beta", ex1, 1.0, e, 0.0),
            (f"example2.p_beta[e2={e:g}]", "p_beta", ex2, 1.0, e, 1.0),
            *((f"example2.p_alpha[e1={e:g} q={q:g}]", "p_alpha", ex2, e, 1.0, q) for q in _QS),
        ]
    energy = [
        (f"{name}.energy[e1={e1:g} e2={e2:g} q={q:g}", "energy", family, e1, e2, q)
        for name, family, qs in (("example1", ex1, (0.0,)), ("example2", ex2, _QS))
        for e1, e2, q in product(_ENERGIES, _ENERGIES, qs)
    ]
    # the energy labels close their bracket after the point index
    cases = [
        (label + suffix.format(i), column, (*family, e1, e2, *point, q))
        for group, suffix in ((momentum, "[pt={}]"), (energy, " pt={}]"))
        for label, column, family, e1, e2, q in group
        for i, point in enumerate(_EVAL_POINTS)
    ]
    grid = np.array([row for *_, row in cases])
    rows = np.concatenate([hj, grid, probability])
    batch = evaluate_models(FamilyColumns(*rows.T[:7]), *rows.T[7:], FD_STEP, _HBAR)
    eigen = slice(len(hj), len(hj) + len(cases))
    c, l, v, (e1, e2, u1, u2, t, q) = grid.T[0:2], grid.T[2:4], grid.T[4], grid.T[7:]
    slopes = np.array(_closed_form_slopes(grid.T[:5], e1, e2, q))
    # psi is a plane wave in (u1, u2), psi(u +- h) = psi(u) exp(+-i theta)
    # with theta = W h / hbar, so the central differences have the exact
    # eigenvalues p and k (Lele's modified wavenumber), which the energy
    # expands into each branch's (P - l)**2 / (2c) as the stencil does
    theta = slopes * FD_STEP / _HBAR
    p = _HBAR * np.sin(theta) / FD_STEP
    k = (2.0 * _HBAR / FD_STEP) ** 2 * np.sin(theta / 2.0) ** 2
    discrete_energy = ((k - 2.0 * l * p + l * l) / (2.0 * c)).sum(axis=0) - v * q * q / 2.0
    # each case's estimate, imaginary part and two targets, from its column
    names = ("p_alpha", "p_beta", "energy")
    which, columns = [names.index(column) for _, column, _ in cases], batch._asdict()
    real = np.choose(which, [columns[name][eigen] for name in names])
    imag = np.choose(which, [columns[f"{name}_imag"][eigen] for name in names])
    continuous = np.choose(which, [*slopes, e1 + e2])
    gaps = np.abs(real - np.choose(which, [*p, discrete_energy]))
    # The rounding budget of a row.  Each psi value is off by at most
    # u (1 + 3 M / hbar) of itself, u = 2**-53: one rounding of the value
    # and three of its phase, S's sum (at most M = |W1 u1| + |W2 u2| +
    # |(e1 + e2) t|), the shifted coordinate u +- h and exp.  A first
    # difference takes two values over 2 h / hbar; each branch's second
    # difference four over (h / hbar)**2, halved by its 1 / (2c).
    magnitude = np.abs(slopes[0] * u1) + np.abs(slopes[1] * u2) + np.abs((e1 + e2) * t)
    budget = 2.0**-53 * (1.0 + 3.0 * magnitude / _HBAR) * _HBAR / FD_STEP
    split = len(momentum) * len(_EVAL_POINTS)
    budget[split:] *= 2.0 * _HBAR / FD_STEP * (1.0 / c[:, split:]).sum(axis=0)
    labels = [quantity for quantity, *_ in cases]
    estimates = list(zip(labels, continuous.tolist(), real.tolist(), imag.tolist()))
    return {
        "hj_residual": float(np.max(np.abs(batch.hj_residual[: len(hj)]))),
        "momentum": estimates[:split],
        "energy": estimates[split:],
        "momentum_discrete": (gaps[:split].max(), budget[:split].max()),
        "energy_discrete": (gaps[split:].max(), budget[split:].max()),
        "probability": float(np.max(np.abs(batch.probability[eigen.stop :] - 1.0))),
    }


def _eigen_records(models: dict, name: str, tolerance: float) -> list[ReportRecord]:
    # each estimate against its continuous target, then the largest gap
    # to the discrete ones against the largest rounding budget
    records = [ReportRecord(quantity, *values, tolerance) for quantity, *values, _ in models[name]]
    gap, budget = models[f"{name}_discrete"]
    return records + [ReportRecord(f"{name}_discrete[n={len(records)}]", 0.0, gap, budget)]


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


def _hj_rounding_floor(coefficients, w1, w2, e1, e2, q) -> np.ndarray:
    """4 u M, u = 2**-53: what rounding alone can leave in hj_residual.

    The residual sums k**2 / (2c) over both branches, k = W - l, then
    subtracts v q**2 / 2 and e1 + e2.  W carries its own rounding, about
    u |W| from its last addition, into W - l, and the square doubles it:
    a branch's term is off by about u |k| (|k| + 2 |W|) / (2c).  Every
    other rounding, the radicand's included, is u of a term or of a
    partial sum, each at most M = the branches' |k| (|k| + 2 |W|) / (2c)
    + |v| q**2 / 2 + e1 + e2, and 4 covers those few: over 2,000,000
    drawn members (c up to 1e3, |l| up to 1e7, e1 and e2 up to 1e9)
    |residual| stayed under 2.6 u M.  w1 and w2 are the family's own
    slopes.  Each term takes its 4u before a product that M itself could
    overflow in, and each |k| (|k| + 2 |W|) is two products, so k = 0
    gives 0 even where 2 |W| would overflow.
    """
    c_alpha, c_beta, l_alpha, l_beta, v = coefficients
    u4 = 4.0 * 2.0**-53
    k1, k2 = np.abs(w1 - l_alpha), np.abs(w2 - l_beta)
    s1, s2 = u4 * k1, u4 * k2
    return (
        (s1 * k1 + 2.0 * s1 * np.abs(w1)) / (2.0 * c_alpha)
        + (s2 * k2 + 2.0 * s2 * np.abs(w2)) / (2.0 * c_beta)
        + u4 * (0.5 * np.abs(v) * (q * q))
        + u4 * e1
        + u4 * e2
    )


def model_records(
    overrides: Mapping[str, float], coefficients: Sequence[float], hbar: float,
    sweep: str | None = None, **settings: float | Sequence[float],
) -> RecordBatch:
    """The records of `fracwkb example1`, `example2` and `sweep`: slopes,
    S, HJ residual, eigenvalues, probability.

    coefficients are the model's (c_alpha, c_beta, l_alpha, l_beta, v),
    and settings holds each of SWEEP_PARAMS by name: a float, or, for the
    one setting that sweep names, a sequence of values, one row each.  The
    rows are evaluated in one batch.  Wave-field records are emitted only
    where both slope momenta are positive; zero-energy rows still report
    slopes, S and the HJ residual.  An HJ residual row's tolerance is at
    least its rounding floor, _hj_rounding_floor, whether the tolerance
    came from the table or from an override.  The tolerances are resolved
    before any row is checked.  The rows are validated where they are
    evaluated, by evaluate_models: a bad setting raises the scalar path's
    error, whether it is a single value or a sweep's.
    """
    tolerances = resolve_tolerances(overrides, _EXAMPLE_TOLERANCES)
    rows = np.broadcast_arrays(*(np.asarray(settings[name], dtype=float) for name in SWEEP_PARAMS))
    alpha, beta, e1, e2, q, fd_step = map(np.ravel, rows)
    u1, u2, t = SAMPLE_POINT
    columns = evaluate_models(
        FamilyColumns(*coefficients, alpha, beta), e1, e2, u1, u2, t, q, fd_step, hbar
    )

    with np.errstate(all="ignore"):
        w1, w2 = _closed_form_slopes(coefficients, e1, e2, q)
        S = w1 * u1 + w2 * u2 - (e1 + e2) * t
        floor = _hj_rounding_floor(coefficients, columns.w1_slope, columns.w2_slope, e1, e2, q)
    zero, one = np.zeros_like(w1), np.ones_like(w1)
    analytic = [w1, w2, S, zero, w1, zero, w2, zero, e1 + e2, zero, one]
    tolerance = np.tile([tolerances[name] for name in _MODEL_RECORDS.values()], (len(w1), 1))
    tolerance[:, 3] = np.maximum(tolerance[:, 3], floor)  # the hj_residual column
    kept = np.ones((len(w1), len(_MODEL_RECORDS)), dtype=bool)
    kept[:, 4:] = columns.wave[:, None]
    swept = None if sweep is None else (sweep, np.repeat(settings[sweep], kept.sum(axis=1)))
    kept = kept.ravel()
    return RecordBatch(
        list(compress(list(_MODEL_RECORDS) * len(w1), kept.tolist())),
        np.column_stack(analytic).ravel()[kept],
        np.column_stack([getattr(columns, name) for name in _MODEL_RECORDS]).ravel()[kept],
        tolerance.ravel()[kept],
        swept,
    )


def check_hj_identity(tolerances: Mapping[str, float], models: dict) -> list[ReportRecord]:
    """Separation identity H(dS/du, q) + dS/dt = 0 across random members."""
    residual, tol = models["hj_residual"], tolerances["hj_residual"]
    return [ReportRecord(f"hj_residual[n={_HJ_DRAWS}]", 0.0, residual, tol)]


def check_momentum_eigenvalues(
    tolerances: Mapping[str, float], models: dict
) -> list[ReportRecord]:
    """Difference-operator momentum eigenvalues against the closed forms and
    the stencil's discrete eigenvalue."""
    return _eigen_records(models, "momentum", tolerances["momentum_eigenvalue"])


def check_energy_eigenvalues(tolerances: Mapping[str, float], models: dict) -> list[ReportRecord]:
    """Hamiltonian eigenvalues against the partition total and the
    stencil's discrete eigenvalue."""
    return _eigen_records(models, "energy", tolerances["energy_eigenvalue"])


def check_probability_law(tolerances: Mapping[str, float], models: dict) -> list[ReportRecord]:
    """|psi|**2 * p_alpha * p_beta = 1 across random members and points."""
    deviation, tol = models["probability"], tolerances["probability"]
    return [ReportRecord(f"probability_law[n={_PROB_DRAWS}]", 0.0, deviation, tol)]


def check_classical_limit(tolerances: Mapping[str, float], models: dict) -> list[ReportRecord]:
    """Order-1 reduction: structural checks plus the full eigen-grid."""
    records = [
        ReportRecord(f"classical.{name}.{r.quantity}", r.analytic, r.numeric, r.tolerance)
        for name, spec in (("example1", example1(1.0, 1.0)), ("example2", example2(1.0, 1.0)))
        for r in classical_limit_check(spec, EnergyPartition(0.5, 0.5), tolerances)
    ]
    # no model quantity reads the orders, so the eigen-grid is that of
    # the fractional checks
    eigen = _eigen_records(models, "momentum", tolerances["momentum_eigenvalue"])
    eigen += _eigen_records(models, "energy", tolerances["energy_eigenvalue"])
    return records + [
        ReportRecord(f"classical.{r.quantity}", r.analytic, r.numeric, r.tolerance) for r in eigen
    ]


def check_imaginary_parts(tolerances: Mapping[str, float], models: dict) -> list[ReportRecord]:
    """Imaginary parts of every eigenvalue estimate stay below budget."""
    worst = float(np.max(np.abs([imag for *_, imag in models["momentum"] + models["energy"]])))
    return [ReportRecord("imag_part_max", 0.0, worst, tolerances["imag_part"])]


CHECKS: Sequence[tuple[str, Callable[[Mapping[str, float], dict], list[ReportRecord]]]] = (
    ("kernel_oracle", check_kernel_oracle),
    ("integer_reduction", check_integer_reduction),
    ("hj_identity", check_hj_identity),
    ("momentum_eigenvalues", check_momentum_eigenvalues),
    ("energy_eigenvalues", check_energy_eigenvalues),
    ("probability_law", check_probability_law),
    ("classical_limit", check_classical_limit),
    ("imaginary_parts", check_imaginary_parts),
)


def run_checks(
    overrides: Mapping[str, float] | None = None,
) -> list[tuple[str, list[ReportRecord]]]:
    """Run every check; returns (check name, records) pairs in order.

    The model measurements are taken once, before the first check, and
    every check is called as fn(tolerances, models).
    """
    table, models = resolve_tolerances(overrides), _model_measurements()
    return [(name, fn(table, models)) for name, fn in CHECKS]


def verify_records(overrides: Mapping[str, float] | None = None) -> RecordBatch:
    """The records of `fracwkb verify`: every check's, in run_checks' order."""
    return RecordBatch.from_records([r for _, records in run_checks(overrides) for r in records])
