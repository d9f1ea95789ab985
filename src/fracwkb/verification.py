"""Verification suite: kernel oracles, eigen-checks, randomized sweeps.

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
order in one block call per grid, and the integer reduction its four
polynomials in one more.
"""

from __future__ import annotations

import math
import random
from itertools import product
from typing import Callable, Mapping, Sequence

import numpy as np

from .fracops import (
    FractionalOrder,
    TimeGrid,
    interior,
    rl_derivative,
    rl_power_rule,
    roundoff_floor,
)
from .hamilton_jacobi import EnergyColumns, EnergyPartition, PrincipalFunction
from .mechanics import FamilyColumns, example1, example2
from .reporting import INFORMATIONAL, ReportRecord
from .wkb import FD_STEP, SAMPLE_POINT, _closed_form_slopes, classical_limit_check, evaluate_models

__all__ = [
    "DEFAULT_TOLERANCES",
    "resolve_tolerances",
    "power_kernel_check",
    "observed_order_record",
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
        table[name] = value
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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kernel derivatives of power functions against the power rule.

    Samples offset**k on the grid for each exponent k, the offset being
    measured from the endpoint the chosen side's derivative starts at,
    and differentiates them at every order in one block call.  Returns
    the numeric derivatives and the closed-form oracles at every node,
    of shape (orders, exponents, count + 1), and the max interior error
    between them, of shape (orders, exponents).  Each (order, exponent)
    row's error is taken as soon as its oracle row is filled, so one
    row's difference is alive at a time, not the whole block's.
    """
    offsets = grid.nodes() - grid.a if side == "left" else grid.b - grid.nodes()
    # an overflowing sample is inf, which rl_derivative rejects
    with np.errstate(over="ignore"):
        samples = [offsets**k for k in exponents]
    numeric = rl_derivative(grid, samples, orders, side)
    oracle = np.empty_like(numeric)
    error = np.empty(numeric.shape[:2])
    for (i, order), (j, k) in product(enumerate(orders), enumerate(exponents)):
        oracle[i, j] = rl_power_rule(k, order, offsets)
        error[i, j] = _max_interior_error(numeric[i, j], oracle[i, j], grid)
    return numeric, oracle, error


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


def _kernel_errors() -> dict[int, np.ndarray]:
    # per grid count, the max interior errors of shape (orders, exponents)
    a, b = _DOMAIN
    orders = [FractionalOrder(alpha) for alpha in _ORDERS]
    return {
        count: power_kernel_check(TimeGrid(a, b, count), _EXPONENTS, orders)[2]
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


def _integer_reduction_errors() -> dict[str, float]:
    a, b = _DOMAIN
    grid = TimeGrid(a, b, _KERNEL_COUNT)
    nodes = grid.nodes()
    cases = {
        "x": (nodes, np.ones_like(nodes)),
        "x^2": (nodes**2, 2.0 * nodes),
        "x^3": (nodes**3, 3.0 * nodes**2),
        "x^3-2x^2+x": (nodes**3 - 2.0 * nodes**2 + nodes, 3.0 * nodes**2 - 4.0 * nodes + 1.0),
    }
    samples, oracles = zip(*cases.values())
    numeric = rl_derivative(grid, samples, [FractionalOrder(1.0)])[0]
    return dict(zip(cases, _max_interior_error(numeric, np.array(oracles), grid)))


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
    rejects it: uniform is low + (high - low) * random(), and a block
    takes the same random() doubles in the same order.  Each block draws
    the rows still missing.  accept maps a block to a mask of the rows
    to keep.  The stream is MT19937, whose random() sequence for a seed
    Python keeps across versions.
    """
    rng = random.Random(seed)
    low, high = np.array(ranges).T
    rows = np.empty((0, len(ranges)))
    while len(rows) < n:
        missing = n - len(rows)
        doubles = np.array([rng.random() for _ in range(missing * len(ranges))])
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
