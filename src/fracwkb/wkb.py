"""Semiclassical wave construction and finite-difference eigen-checks.

The wave field is amplitude times phase,

    psi = exp(i S / hbar) / sqrt(p_alpha * p_beta)

evaluated on the transformed coordinates (u1, u2).  Because S is linear
in u1 and u2 at frozen q, psi is an exact eigenfunction of the momentum
operators (hbar/i) d/du, and of the Hamiltonian assembled from them.
The operators are realized as central differences, so the eigenvalue
estimates carry an O(h**2) stencil error that the verification layers
measure directly.

evaluate_models computes every model quantity of a batch of members as
float columns: the operators below also act on a whole batch of wave
fields and points at once, on complex128 arrays.  evaluate_model is the
scalar path for one member, the reference the batch reproduces.  Both
paths compute psi with numpy's complex arithmetic and every square as a
product, so they agree bit for bit.

A note on roundoff: the second-difference stencil divides by h**2 and
therefore amplifies the representation error of the phase, which is
proportional to |S/hbar| ulps.  At h = 1e-4 this floor is around
2e-8 * |S/hbar|, so checks that push residuals below 1e-7 must evaluate
at points where |S/hbar| is small (a fraction of a radian).  The
eigen-relations are point-independent, so this costs no generality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import NonpositiveMomentumError, StepTooLargeError
from .hamilton_jacobi import (
    EnergyPartition,
    PrincipalFunction,
    TransformedPoint,
    evaluate_S,
    hj_residual,
    momenta_from_S,
    separate,
)
from .mechanics import (
    FamilyColumns,
    LagrangianSpec,
    MomentumColumns,
    legendre_transform,
)
from .fracops import gl_weights
from .reporting import ReportRecord

__all__ = [
    "WaveField",
    "OperatorResult",
    "build_wavefunction",
    "apply_momentum",
    "apply_hamiltonian",
    "probability_density",
    "evaluate_models",
    "classical_limit_check",
    "SAMPLE_POINT",
]

# Central differencing aliases the phase once h per wavelength gets
# large; reject steps beyond a tenth of a radian of phase advance.
_PHASE_GUARD = 0.1

# The (u1, u2, t) at which the model records and the eigen-checks
# sample psi.  Its phase stays below ~0.3 rad over verify's parameter
# grid, small enough that the stencil eigen-checks sit well above the
# roundoff floor of the note above.
SAMPLE_POINT = (0.02, -0.015, 0.005)


def _require_positive(name: str, value: float) -> None:
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


@dataclass(frozen=True)
class WaveField:
    """Immutable wave function psi = prefactor * exp(i S / hbar)."""

    pf: PrincipalFunction
    hbar: float = 1.0

    def __post_init__(self) -> None:
        _require_positive("hbar", self.hbar)

    def prefactor(self, point: TransformedPoint) -> float:
        momenta = momenta_from_S(self.pf, point)
        if momenta.p_alpha <= 0.0 or momenta.p_beta <= 0.0:
            raise NonpositiveMomentumError(
                f"prefactor undefined: momenta ({momenta.p_alpha!r}, {momenta.p_beta!r})"
                " must both be positive"
            )
        product = momenta.p_alpha * momenta.p_beta
        if not 0.0 < product < math.inf or 1.0 / product == math.inf:
            raise ValueError(
                f"prefactor undefined: momentum product p_alpha * p_beta = {product!r}"
                " underflows or overflows a float"
            )
        return 1.0 / math.sqrt(product)

    def value(self, point: TransformedPoint) -> complex:
        return self.prefactor(point) * np.exp(1j * (evaluate_S(self.pf, point) / self.hbar))


@dataclass(frozen=True)
class _PointColumns:
    """Points of many members: TransformedPoint's batch counterpart, unchecked."""

    u1: np.ndarray
    u2: np.ndarray
    t: np.ndarray
    q: np.ndarray


class _WaveColumns(NamedTuple):
    """psi of many members: WaveField's batch counterpart, unchecked.

    momenta are the W slopes and total the energy e1 + e2 of each row.
    """

    spec: FamilyColumns
    momenta: MomentumColumns
    total: np.ndarray
    hbar: np.ndarray

    def value(self, point: _PointColumns) -> np.ndarray:
        p_alpha, p_beta = self.momenta
        S = p_alpha * point.u1 + p_beta * point.u2 - self.total * point.t
        return (1.0 / np.sqrt(p_alpha * p_beta)) * np.exp(1j * (S / self.hbar))


@dataclass(frozen=True)
class OperatorResult:
    """Operator action at a point, with its eigenvalue estimate."""

    eigenvalue_estimate: complex
    residual: float


def build_wavefunction(pf: PrincipalFunction, hbar: float = 1.0) -> WaveField:
    """Wave field for the given principal function and action scale."""
    return WaveField(pf, hbar)


def _check_step(h: float, momentum: float, hbar: float) -> None:
    _require_positive("step", h)
    if h * abs(momentum) / hbar > _PHASE_GUARD:
        raise StepTooLargeError(
            f"step {h!r} advances the phase by more than {_PHASE_GUARD} rad"
            f" at momentum {momentum!r}; refine the step"
        )


def _shift(point: TransformedPoint, which: str, delta: float) -> TransformedPoint:
    if which == "alpha":
        return replace(point, u1=point.u1 + delta)
    return replace(point, u2=point.u2 + delta)


def apply_momentum(wf: WaveField, which: str, point: TransformedPoint, h: float) -> OperatorResult:
    """Central-difference momentum (hbar/i) d/du applied to psi.

    The residual compares the eigenvalue estimate against the slope
    momentum for the chosen axis; it decays as O(h**2).  On the batch
    field and points of evaluate_models it acts on every row at once and
    checks no step; the estimate is then a complex128 array.
    """
    if which not in ("alpha", "beta"):
        raise ValueError(f"which must be 'alpha' or 'beta', got {which!r}")
    batch = isinstance(wf, _WaveColumns)
    momenta = wf.momenta if batch else momenta_from_S(wf.pf, point)
    analytic = momenta.p_alpha if which == "alpha" else momenta.p_beta
    if not batch:
        _check_step(h, analytic, wf.hbar)
    psi_plus = wf.value(_shift(point, which, h))
    psi_minus = wf.value(_shift(point, which, -h))
    raw = wf.hbar * (psi_plus - psi_minus) / (2.0 * h * 1j)
    estimate = raw / wf.value(point)
    return OperatorResult(estimate, abs(estimate - analytic))


def apply_hamiltonian(wf: WaveField, point: TransformedPoint, h: float) -> OperatorResult:
    """Hamiltonian assembled from difference operators, applied to psi.

    Each branch expands (P - l)**2 / (2c) termwise: the squared momentum
    is the 3-point second difference times -hbar**2, the linear momentum
    is the central first difference.  The potential term -v/2 q**2
    multiplies psi directly.  The residual compares against the total
    energy of the partition and decays as O(h**2).  The coefficients
    come from the spec psi was built from, so operator and state always
    describe the same system.  Batch input is taken as apply_momentum
    takes it.
    """
    if isinstance(wf, _WaveColumns):
        spec, analytic = wf.spec, wf.total
    else:
        spec, analytic = wf.pf.spec, wf.pf.energies.total
        momenta = momenta_from_S(wf.pf, point)
        _check_step(h, momenta.p_alpha, wf.hbar)
        _check_step(h, momenta.p_beta, wf.hbar)
        if h * h == 0.0:  # the second difference divides by it
            raise ValueError(f"step {h!r} is too small: its square underflows to 0")
    psi_0 = wf.value(point)
    hbar = wf.hbar

    def branch(which: str, coeff: float, linear: float) -> complex:
        psi_plus = wf.value(_shift(point, which, h))
        psi_minus = wf.value(_shift(point, which, -h))
        p_squared = -(hbar * hbar) * (psi_plus - 2.0 * psi_0 + psi_minus) / (h * h)
        p_linear = hbar * (psi_plus - psi_minus) / (2.0 * h * 1j)
        return (p_squared - 2.0 * linear * p_linear + linear * linear * psi_0) / (2.0 * coeff)

    raw = (
        branch("alpha", spec.c_alpha, spec.l_alpha)
        + branch("beta", spec.c_beta, spec.l_beta)
        - 0.5 * spec.v * (point.q * point.q) * psi_0
    )
    estimate = raw / psi_0
    return OperatorResult(estimate, abs(estimate - analytic))


def probability_density(wf: WaveField, point: TransformedPoint) -> float:
    """|psi|**2, equal to 1/(p_alpha * p_beta) up to roundoff."""
    psi = wf.value(point)
    return psi.real * psi.real + psi.imag * psi.imag


class ModelColumns(NamedTuple):
    """Every model quantity of a batch of members, one column each.

    w1_slope, w2_slope, S and hj_residual are what the hamilton_jacobi
    functions return; p_alpha, p_beta and energy, each with its
    imaginary part, are the apply_momentum and apply_hamiltonian
    eigenvalue estimates; probability is |psi|**2 * p_alpha * p_beta.
    Row i equals evaluate_model of that row's member bit for bit.  The
    seven wave-field columns are nan where wave is False, since psi
    needs both momenta positive.  rejected marks every row on which the
    scalar path may raise.  It may also mark a row the scalar path
    accepts, so a caller that needs the scalar error runs the marked
    rows through evaluate_model.
    """

    w1_slope: np.ndarray
    w2_slope: np.ndarray
    S: np.ndarray
    hj_residual: np.ndarray
    p_alpha: np.ndarray
    p_alpha_imag: np.ndarray
    p_beta: np.ndarray
    p_beta_imag: np.ndarray
    energy: np.ndarray
    energy_imag: np.ndarray
    probability: np.ndarray
    wave: np.ndarray
    rejected: np.ndarray


def evaluate_model(
    spec: LagrangianSpec,
    energies: EnergyPartition,
    point: TransformedPoint,
    h: float,
    hbar: float = 1.0,
) -> ModelColumns:
    """One member through the scalar functions: the reference for evaluate_models.

    Raises where those functions raise, and warns nowhere.  h and hbar
    must be finite and positive for every member, as evaluate_models
    marks them, even one whose zero energy leaves no wave field to
    difference.  The fields are floats, the wave-field ones nan unless
    both momenta are positive, and rejected is False.
    """
    _require_positive("step", h)
    _require_positive("hbar", hbar)
    pf = separate(spec, energies)
    w1, w2 = pf.w1_slope(point.q), pf.w2_slope
    S = evaluate_S(pf, point)
    residual = hj_residual(pf, point)
    wave = w1 > 0.0 and w2 > 0.0
    p_alpha = p_beta = energy = complex(math.nan, math.nan)
    probability = math.nan
    if wave:
        wf = build_wavefunction(pf, hbar)
        with np.errstate(all="ignore"):  # as in evaluate_models: overflow is inf, not a warning
            p_alpha = apply_momentum(wf, "alpha", point, h).eigenvalue_estimate
            p_beta = apply_momentum(wf, "beta", point, h).eigenvalue_estimate
            energy = apply_hamiltonian(wf, point, h).eigenvalue_estimate
            probability = probability_density(wf, point) * w1 * w2
    return ModelColumns(
        w1, w2, S, residual, p_alpha.real, p_alpha.imag, p_beta.real, p_beta.imag,
        energy.real, energy.imag, probability, wave, False,
    )


def evaluate_models(
    family: FamilyColumns,
    e1: np.ndarray,
    e2: np.ndarray,
    u1: np.ndarray,
    u2: np.ndarray,
    t: np.ndarray,
    q: np.ndarray,
    h: np.ndarray,
    hbar: np.ndarray | float = 1.0,
) -> ModelColumns:
    """Every model quantity of a batch of members, as float columns.

    family holds the five coefficients (c_alpha, c_beta, l_alpha, l_beta,
    v), e1 and e2 the energy shares, (u1, u2, t, q) the points, h the
    stencil steps and hbar the action scales; all broadcast to one 1-D
    shape.  The operators and the probability are the functions above,
    called once on the whole batch; no point or wave field is built per
    row.  Row i equals evaluate_model of that row's member, point and
    step bit for bit.
    """
    inputs = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (*family, e1, e2, u1, u2, t, q, h, hbar))
    )
    c_alpha, c_beta, l_alpha, l_beta, v, e1, e2, u1, u2, t, q, h, hbar = map(np.ravel, inputs)
    with np.errstate(all="ignore"):
        # PrincipalFunction's slopes and evaluate_S, elementwise
        w1 = l_alpha + np.sqrt(c_alpha * (v * q * q + 2.0 * e1))
        w2 = l_beta + np.sqrt(2.0 * c_beta * e2)
        total = e1 + e2
        S = w1 * u1 + w2 * u2 - total * t
        spec = FamilyColumns(c_alpha, c_beta, l_alpha, l_beta, v)
        momenta = MomentumColumns(w1, w2)
        residual = legendre_transform(spec, momenta, q) - total

        wf = _WaveColumns(spec, momenta, total, hbar)
        point = _PointColumns(u1, u2, t, q)
        results = (
            apply_momentum(wf, "alpha", point, h),
            apply_momentum(wf, "beta", point, h),
            apply_hamiltonian(wf, point, h),
        )
        estimates = [
            part
            for r in results
            for part in (r.eigenvalue_estimate.real, r.eigenvalue_estimate.imag)
        ]
        probability = probability_density(wf, point) * w1 * w2

        finite = np.isfinite([c_alpha, c_beta, l_alpha, l_beta, v, e1, e2, u1, u2, t, q])
        accepted = (
            finite.all(axis=0) & (c_alpha > 0.0) & (c_beta > 0.0) & (e1 >= 0.0) & (e2 >= 0.0)
            & np.isfinite([w1, w2, S, residual]).all(axis=0)
        )
        stepped = np.isfinite(h) & (h > 0.0) & np.isfinite(hbar) & (hbar > 0.0)
        wave = accepted & (w1 > 0.0) & (w2 > 0.0)
        # _check_step's guard, then every wave-field value finite
        stable = (
            ~(h * np.abs(w1) / hbar > _PHASE_GUARD)
            & ~(h * np.abs(w2) / hbar > _PHASE_GUARD)
            & np.isfinite([*estimates, probability]).all(axis=0)
        )
    wave_columns = [np.where(wave, x, math.nan) for x in (*estimates, probability)]
    rejected = ~accepted | ~stepped | (wave & ~stable)
    return ModelColumns(w1, w2, S, residual, *wave_columns, wave, rejected)


def classical_limit_check(
    spec: LagrangianSpec,
    energies: EnergyPartition,
    hbar: float = 1.0,
    fd_step: float = 1e-4,
    structure_tol: float = 1e-12,
    momentum_tol: float = 1e-6,
    energy_tol: float = 1e-6,
) -> list[ReportRecord]:
    """Structural checks that orders one reduce to ordinary mechanics.

    At alpha = beta = 1 both transformed coordinates are order-0
    derivatives of q, i.e. q itself, so S collapses to the ordinary
    p(q) * q - E t and the difference operators reproduce the classical
    momenta and energy.  Records:

    - order0_identity: the order-0 difference stencil is the identity
    - S_reduction: S at u1 = u2 = q against a hand-written classical
      principal function with independently expanded momenta
    - p_alpha / p_beta / energy: difference-operator eigenvalues against
      the classical predictions (emitted only where both momenta are
      positive, since the amplitude needs 1/sqrt(p))

    Raises ValueError when either order differs from one.
    """
    if spec.alpha.value != 1.0 or spec.beta.value != 1.0:
        raise ValueError("classical limit check requires alpha = beta = 1")

    def p1_classical(q: float) -> float:
        # distributed product, a deliberately different rounding route
        # from the family slope's c*(v*q*q + 2*e1)
        return spec.l_alpha + math.sqrt(
            spec.c_alpha * spec.v * q * q + 2.0 * spec.c_alpha * energies.e1
        )

    p2_classical = spec.l_beta + math.sqrt(2.0 * spec.c_beta * energies.e2)

    records = []
    stencil = gl_weights(0.0, 16)
    stencil_error = abs(stencil[0] - 1.0) + float(abs(stencil[1:]).max())
    records.append(ReportRecord("order0_identity", 0.0, stencil_error, structure_tol))

    pf = separate(spec, energies)
    for q, t in ((1.0, 0.0), (0.6, 0.25)):
        classical = (p1_classical(q) + p2_classical) * q - energies.total * t
        value = evaluate_S(pf, TransformedPoint(q, q, t, q))
        records.append(
            ReportRecord(f"S_reduction[q={q:g} t={t:g}]", classical, value, structure_tol)
        )

    point = TransformedPoint(*SAMPLE_POINT, 0.02)
    p1 = p1_classical(point.q)
    if p1 > 0.0 and p2_classical > 0.0:
        model = evaluate_model(spec, energies, point, fd_step, hbar)
        records += [
            ReportRecord("p_alpha", p1, model.p_alpha, momentum_tol),
            ReportRecord("p_beta", p2_classical, model.p_beta, momentum_tol),
            ReportRecord("energy", energies.total, model.energy, energy_tol),
        ]
    return records
