"""Verification suite: kernel oracles, eigen-checks, randomized sweeps.

Each check_* function returns ReportRecords for one family of claims;
run_checks executes all of them with a named-tolerance table.  The CLI
verify subcommand and the acceptance tests share this module, so a
passing `fracwkb verify` and a passing test run certify the same facts.

Eigenvalue checks evaluate at fixed points with |S/hbar| well below one
radian.  The estimates are point-independent up to stencil error, and
small phases keep the 1/h**2 roundoff amplification (see the wkb module
notes) far beneath the 1e-8 imaginary-part budget.

All randomized sweeps use fixed seeds so output is byte-deterministic.
"""

from __future__ import annotations

import functools
import math
from itertools import product
from typing import Callable, Mapping, Sequence

import numpy as np

from .fracops import (
    FractionalOrder,
    SampledFunction,
    TimeGrid,
    interior_mask,
    left_rl_derivative,
    right_rl_derivative,
    rl_power_rule,
    roundoff_floor,
)
from .hamilton_jacobi import (
    EnergyPartition,
    TransformedPoint,
    hj_residual,
    momenta_from_S,
    separate,
)
from .mechanics import LagrangianSpec, example1, example2
from .reporting import INFORMATIONAL, ReportRecord
from .wkb import (
    apply_hamiltonian,
    apply_momentum,
    build_wavefunction,
    classical_limit_check,
    probability_density,
)

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
    "energy_ratio": 1.0,
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
_FD_STEP = 1e-4
_RATIO_STEP = 1e-2
_HBAR = 1.0
_FRACTIONAL_ORDER = 1.5

# Evaluation points for the eigen-checks: the origin (phase exactly
# zero) and an offset point with phase magnitude below ~0.3 rad over
# the whole parameter grid.
_EVAL_POINTS = ((0.0, 0.0, 0.0), (0.02, -0.015, 0.005))

_HJ_SEED = 202301
_PROB_SEED = 202302
_HJ_DRAWS = 1000
_PROB_DRAWS = 100


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


def _max_interior_error(numeric: np.ndarray, oracle: np.ndarray, grid: TimeGrid) -> np.float64:
    mask = interior_mask(grid)
    # infinite values on both sides (huge orders) give a nan error
    with np.errstate(invalid="ignore"):
        return np.max(np.abs(numeric[mask] - oracle[mask]))


def power_kernel_check(
    grid: TimeGrid, exponent: int, order: FractionalOrder, side: str = "left"
) -> tuple[np.ndarray, np.ndarray, np.float64]:
    """Kernel derivative of a power function against the power rule.

    Samples offset**exponent on the grid, the offset being measured from
    the endpoint the chosen side's derivative starts at, and returns the
    numeric derivative, the closed-form oracle at every node and the
    max interior error between them.
    """
    nodes = grid.nodes()
    if side == "left":
        offsets = nodes - grid.a
        derivative = left_rl_derivative
    else:
        offsets = grid.b - nodes
        derivative = right_rl_derivative
    numeric = derivative(SampledFunction(grid, offsets**exponent), order).values
    oracle = rl_power_rule(exponent, order, offsets)
    return numeric, oracle, _max_interior_error(numeric, oracle, grid)


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
    error is at or below twice its roundoff floor, at least half of it
    may be rounding, so the ratio carries no convergence order: the
    record is informational with a nan value, and the max-error records
    still gate.
    """
    (coarse_grid, coarse_error), (fine_grid, fine_error) = coarse, fine
    magnitude = (fine_grid.b - fine_grid.a) ** exponent
    if fine_error <= 2.0 * roundoff_floor(order, fine_grid, magnitude):
        return ReportRecord(quantity, 1.0, math.nan, INFORMATIONAL)
    # errors infinite on both grids (huge orders) give a nan order
    with np.errstate(invalid="ignore"):
        ratio = np.float64(coarse_error) / fine_error
    observed = math.log(ratio) / math.log(fine_grid.count / coarse_grid.count)
    return ReportRecord(quantity, 1.0, observed, tolerance)


@functools.cache
def _kernel_errors() -> dict[tuple[int, float], dict[int, np.float64]]:
    a, b = _DOMAIN
    return {
        (k, alpha): {
            count: power_kernel_check(TimeGrid(a, b, count), k, FractionalOrder(alpha))[2]
            for count in sorted({_KERNEL_COUNT, *_ORDER_COUNTS})
        }
        for k, alpha in product(_EXPONENTS, _ORDERS)
    }


def check_kernel_oracle(tolerances: Mapping[str, float]) -> list[ReportRecord]:
    """Left-derivative kernel against the closed-form power rule.

    Per (exponent, order) pair: max interior error on the acceptance
    grid, and observed convergence order across an 8x refinement.
    """
    records = []
    a, b = _DOMAIN
    coarse, fine = (TimeGrid(a, b, count) for count in _ORDER_COUNTS)
    for (k, alpha), per_count in _kernel_errors().items():
        tag = f"[k={k} alpha={alpha:g}]"
        records.append(
            ReportRecord(
                f"kernel_error{tag}", 0.0, per_count[_KERNEL_COUNT],
                tolerances["kernel_max_error"],
            )
        )
        records.append(
            observed_order_record(
                f"kernel_order{tag}", k, FractionalOrder(alpha),
                (coarse, per_count[coarse.count]), (fine, per_count[fine.count]),
                tolerances["kernel_order"],
            )
        )
    return records


@functools.cache
def _integer_reduction_errors() -> dict[str, float]:
    a, b = _DOMAIN
    grid = TimeGrid(a, b, _KERNEL_COUNT)
    nodes = grid.nodes()
    order = FractionalOrder(1.0)
    cases = {
        "x": (nodes, np.ones_like(nodes)),
        "x^2": (nodes**2, 2.0 * nodes),
        "x^3": (nodes**3, 3.0 * nodes**2),
        "x^3-2x^2+x": (nodes**3 - 2.0 * nodes**2 + nodes, 3.0 * nodes**2 - 4.0 * nodes + 1.0),
    }
    errors = {}
    for name, (values, oracle) in cases.items():
        numeric = left_rl_derivative(SampledFunction(grid, values), order).values
        errors[name] = _max_interior_error(numeric, oracle, grid)
    return errors


def check_integer_reduction(tolerances: Mapping[str, float]) -> list[ReportRecord]:
    """Order-1 kernel against the ordinary derivative of polynomials."""
    return [
        ReportRecord(f"integer_reduction[{name}]", 0.0, err, tolerances["kernel_max_error"])
        for name, err in _integer_reduction_errors().items()
    ]


def _draw_member(rng: np.random.Generator) -> tuple[LagrangianSpec, EnergyPartition, TransformedPoint]:
    while True:
        spec = LagrangianSpec(
            c_alpha=rng.uniform(0.2, 5.0),
            c_beta=rng.uniform(0.2, 5.0),
            l_alpha=rng.uniform(-2.0, 2.0),
            l_beta=rng.uniform(-2.0, 2.0),
            v=rng.uniform(-1.0, 2.0),
            alpha=FractionalOrder(rng.uniform(1.0, 2.0)),
            beta=FractionalOrder(rng.uniform(1.0, 2.0)),
        )
        energies = EnergyPartition(rng.uniform(0.0, 4.0), rng.uniform(0.0, 4.0))
        point = TransformedPoint(
            rng.uniform(-3.0, 3.0),
            rng.uniform(-3.0, 3.0),
            rng.uniform(-2.0, 2.0),
            rng.uniform(-2.0, 2.0),
        )
        if spec.v * point.q**2 + 2.0 * energies.e1 >= 0.0:
            return spec, energies, point


@functools.cache
def _hj_max_residual() -> float:
    rng = np.random.default_rng(_HJ_SEED)
    worst = 0.0
    for _ in range(_HJ_DRAWS):
        spec, energies, point = _draw_member(rng)
        worst = max(worst, abs(hj_residual(separate(spec, energies), point)))
    return worst


def check_hj_identity(tolerances: Mapping[str, float]) -> list[ReportRecord]:
    """Separation identity H(dS/du, q) + dS/dt = 0 across random members."""
    return [
        ReportRecord(
            f"hj_residual[n={_HJ_DRAWS}]", 0.0, _hj_max_residual(), tolerances["hj_residual"]
        )
    ]


def _points(q: float) -> list[TransformedPoint]:
    return [TransformedPoint(u1, u2, t, q) for u1, u2, t in _EVAL_POINTS]


@functools.cache
def _eigen_measurements(order_value: float) -> dict[str, list]:
    """Momentum/energy estimates for both examples at the given order.

    Returns lists of (quantity, analytic, complex estimate) plus the
    step-halving residual ratios.  Analytic targets are hand-expanded
    per example rather than routed through the family formulas.
    """
    momentum: list[tuple[str, float, complex]] = []
    energy: list[tuple[str, float, complex]] = []
    ratios: list[tuple[str, float]] = []

    def estimates(spec, e1, e2, q, which, analytic, label):
        wf = build_wavefunction(separate(spec, EnergyPartition(e1, e2)), _HBAR)
        for i, point in enumerate(_points(q)):
            est = apply_momentum(wf, which, point, _FD_STEP).eigenvalue_estimate
            momentum.append((f"{label}[pt={i}]", analytic, est))

    ex1 = example1(order_value, order_value)
    ex2 = example2(order_value, order_value)
    for e in _ENERGIES:
        estimates(ex1, e, 1.0, 0.0, "alpha", math.sqrt(2.0 * e), f"example1.p_alpha[e1={e:g}]")
        estimates(ex1, 1.0, e, 0.0, "beta", math.sqrt(2.0 * e), f"example1.p_beta[e2={e:g}]")
        estimates(
            ex2, 1.0, e, 1.0, "beta", math.sqrt(2.0 * e) + 1.0, f"example2.p_beta[e2={e:g}]"
        )
        for q in _QS:
            estimates(
                ex2, e, 1.0, q, "alpha",
                math.sqrt(q * q + 2.0 * e) + 1.0,
                f"example2.p_alpha[e1={e:g} q={q:g}]",
            )

    for name, spec, qs in (("example1", ex1, (0.0,)), ("example2", ex2, _QS)):
        for e1, e2, q in product(_ENERGIES, _ENERGIES, qs):
            wf = build_wavefunction(separate(spec, EnergyPartition(e1, e2)), _HBAR)
            for i, point in enumerate(_points(q)):
                est = apply_hamiltonian(wf, point, _FD_STEP).eigenvalue_estimate
                tag = f"[e1={e1:g} e2={e2:g} q={q:g} pt={i}]"
                energy.append((f"{name}.energy{tag}", e1 + e2, est))

        wf = build_wavefunction(separate(spec, EnergyPartition(1.0, 1.0)), _HBAR)
        point = TransformedPoint(0.02, -0.015, 0.005, 1.0)
        res_coarse = apply_hamiltonian(wf, point, _RATIO_STEP).residual
        res_fine = apply_hamiltonian(wf, point, _RATIO_STEP / 2.0).residual
        ratios.append((f"{name}.energy_ratio", res_coarse / res_fine))

    return {"momentum": momentum, "energy": energy, "ratios": ratios}


def check_momentum_eigenvalues(tolerances: Mapping[str, float]) -> list[ReportRecord]:
    """Difference-operator momentum eigenvalues against the closed forms."""
    tol = tolerances["momentum_eigenvalue"]
    return [
        ReportRecord(quantity, analytic, est.real, tol)
        for quantity, analytic, est in _eigen_measurements(_FRACTIONAL_ORDER)["momentum"]
    ]


def check_energy_eigenvalues(tolerances: Mapping[str, float]) -> list[ReportRecord]:
    """Hamiltonian eigenvalues against the partition total, plus the
    step-halving O(h**2) ratio."""
    data = _eigen_measurements(_FRACTIONAL_ORDER)
    records = [
        ReportRecord(quantity, analytic, est.real, tolerances["energy_eigenvalue"])
        for quantity, analytic, est in data["energy"]
    ]
    records.extend(
        ReportRecord(quantity, 4.0, ratio, tolerances["energy_ratio"])
        for quantity, ratio in data["ratios"]
    )
    return records


@functools.cache
def _probability_max_deviation() -> float:
    rng = np.random.default_rng(_PROB_SEED)
    worst = 0.0
    for _ in range(_PROB_DRAWS):
        spec = LagrangianSpec(
            c_alpha=rng.uniform(0.2, 5.0),
            c_beta=rng.uniform(0.2, 5.0),
            l_alpha=rng.uniform(0.1, 2.0),
            l_beta=rng.uniform(0.1, 2.0),
            v=rng.uniform(0.0, 2.0),
            alpha=FractionalOrder(rng.uniform(1.0, 2.0)),
            beta=FractionalOrder(rng.uniform(1.0, 2.0)),
        )
        energies = EnergyPartition(rng.uniform(0.1, 4.0), rng.uniform(0.1, 4.0))
        point = TransformedPoint(
            rng.uniform(-3.0, 3.0),
            rng.uniform(-3.0, 3.0),
            rng.uniform(-2.0, 2.0),
            rng.uniform(-2.0, 2.0),
        )
        pf = separate(spec, energies)
        wf = build_wavefunction(pf, _HBAR)
        momenta = momenta_from_S(pf, point)
        product_value = probability_density(wf, point) * momenta.p_alpha * momenta.p_beta
        worst = max(worst, abs(product_value - 1.0))
    return worst


def check_probability_law(tolerances: Mapping[str, float]) -> list[ReportRecord]:
    """|psi|**2 * p_alpha * p_beta = 1 across random members and points."""
    return [
        ReportRecord(
            f"probability_law[n={_PROB_DRAWS}]", 0.0, _probability_max_deviation(),
            tolerances["probability"],
        )
    ]


def check_classical_limit(tolerances: Mapping[str, float]) -> list[ReportRecord]:
    """Order-1 reduction: structural checks plus the full eigen-grid."""
    records = []
    for name, spec in (("example1", example1(1.0, 1.0)), ("example2", example2(1.0, 1.0))):
        for record in classical_limit_check(
            spec,
            EnergyPartition(0.5, 0.5),
            hbar=_HBAR,
            fd_step=_FD_STEP,
            structure_tol=tolerances["hj_residual"],
            momentum_tol=tolerances["momentum_eigenvalue"],
            energy_tol=tolerances["energy_eigenvalue"],
        ):
            records.append(
                ReportRecord(
                    f"classical.{name}.{record.quantity}",
                    record.analytic,
                    record.numeric,
                    record.tolerance,
                )
            )
    data = _eigen_measurements(1.0)
    records.extend(
        ReportRecord(f"classical.{quantity}", analytic, est.real, tolerances["momentum_eigenvalue"])
        for quantity, analytic, est in data["momentum"]
    )
    records.extend(
        ReportRecord(f"classical.{quantity}", analytic, est.real, tolerances["energy_eigenvalue"])
        for quantity, analytic, est in data["energy"]
    )
    records.extend(
        ReportRecord(f"classical.{quantity}", 4.0, ratio, tolerances["energy_ratio"])
        for quantity, ratio in data["ratios"]
    )
    return records


def check_imaginary_parts(tolerances: Mapping[str, float]) -> list[ReportRecord]:
    """Imaginary parts of every eigenvalue estimate stay below budget."""
    data = _eigen_measurements(_FRACTIONAL_ORDER)
    worst = max(
        abs(est.imag) for _, _, est in data["momentum"] + data["energy"]
    )
    return [ReportRecord("imag_part_max", 0.0, worst, tolerances["imag_part"])]


CHECKS: Sequence[tuple[str, Callable[[Mapping[str, float]], list[ReportRecord]]]] = (
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
    """Run every check; returns (check name, records) pairs in order."""
    table = resolve_tolerances(overrides)
    return [(name, fn(table)) for name, fn in CHECKS]
