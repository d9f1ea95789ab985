"""Fractional-derivative mechanics and WKB wave construction.

Layers, bottom up:

- fracops: uniform-grid Riemann-Liouville derivatives via the
  Grunwald-Letnikov kernel, with closed-form oracles
- mechanics: a quadratic Lagrangian family in two fractional
  velocities and its Legendre transform
- hamilton_jacobi: additive separation of the principal function in
  the transformed coordinates
- wkb: the 1/sqrt(p) exp(iS/hbar) wave field, finite-difference
  eigen-checks of the momentum and Hamiltonian operators, and the
  batched evaluator of every model quantity
- verification: the oracle suite behind `fracwkb verify`
- cli: command-line front end
"""

from .errors import (
    ForbiddenRegionError,
    NonFiniteInputError,
    NonpositiveMomentumError,
    StepTooLargeError,
    ZeroEnergyError,
)
from .fracops import (
    FractionalOrder,
    TimeGrid,
    gl_weights,
    interior,
    left_rl_derivative,
    right_rl_derivative,
    rl_power_rule,
)
from .hamilton_jacobi import (
    EnergyPartition,
    PrincipalFunction,
    TransformedPoint,
    evaluate_S,
    hj_residual,
    lambda_constants,
    momenta_from_S,
    separate,
)
from .mechanics import (
    HamiltonRHS,
    KinematicState,
    LagrangianSpec,
    Momenta,
    canonical_momenta,
    example1,
    example2,
    hamilton_rhs,
    legendre_transform,
)
from .reporting import RecordBatch, ReportRecord, format_csv, format_json, format_table
from .wkb import (
    WaveField,
    apply_hamiltonian,
    apply_momentum,
    build_wavefunction,
    classical_limit_check,
    evaluate_models,
    probability_density,
)

__version__ = "0.1.0"

__all__ = [
    "ForbiddenRegionError",
    "NonFiniteInputError",
    "NonpositiveMomentumError",
    "StepTooLargeError",
    "ZeroEnergyError",
    "FractionalOrder",
    "TimeGrid",
    "gl_weights",
    "interior",
    "left_rl_derivative",
    "right_rl_derivative",
    "rl_power_rule",
    "EnergyPartition",
    "PrincipalFunction",
    "TransformedPoint",
    "evaluate_S",
    "hj_residual",
    "lambda_constants",
    "momenta_from_S",
    "separate",
    "HamiltonRHS",
    "KinematicState",
    "LagrangianSpec",
    "Momenta",
    "canonical_momenta",
    "example1",
    "example2",
    "hamilton_rhs",
    "legendre_transform",
    "RecordBatch",
    "ReportRecord",
    "format_csv",
    "format_json",
    "format_table",
    "WaveField",
    "apply_hamiltonian",
    "apply_momentum",
    "build_wavefunction",
    "classical_limit_check",
    "evaluate_models",
    "probability_density",
    "__version__",
]
