"""Semiclassical wave construction and finite-difference eigen-checks.

The wave field is amplitude times phase,

    psi = exp(i S / hbar) / sqrt(p_alpha * p_beta)

evaluated on the transformed coordinates (u1, u2).  Because S is linear
in u1 and u2 at frozen q, psi is an exact eigenfunction of the momentum
operators (hbar/i) d/du, and of the Hamiltonian assembled from them.
The operators are realized as central differences, so the eigenvalue
estimates carry an O(h**2) stencil error that the verification layers
measure directly.

A note on roundoff: the second-difference stencil divides by h**2 and
therefore amplifies the representation error of the phase, which is
proportional to |S/hbar| ulps.  At h = 1e-4 this floor is around
2e-8 * |S/hbar|, so checks that push residuals below 1e-7 must evaluate
at points where |S/hbar| is small (a fraction of a radian).  The
eigen-relations are point-independent, so this costs no generality.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

from .errors import NonpositiveMomentumError, StepTooLargeError
from .hamilton_jacobi import (
    EnergyPartition,
    PrincipalFunction,
    TransformedPoint,
    evaluate_S,
    momenta_from_S,
    separate,
)
from .mechanics import LagrangianSpec
from .fracops import gl_weights
from .reporting import ReportRecord

__all__ = [
    "WaveField",
    "OperatorResult",
    "build_wavefunction",
    "apply_momentum",
    "apply_hamiltonian",
    "probability_density",
    "classical_limit_check",
]

# Central differencing aliases the phase once h per wavelength gets
# large; reject steps beyond a tenth of a radian of phase advance.
_PHASE_GUARD = 0.1


@dataclass(frozen=True)
class WaveField:
    """Immutable wave function psi = prefactor * exp(i S / hbar)."""

    pf: PrincipalFunction
    hbar: float = 1.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.hbar) or self.hbar <= 0.0:
            raise ValueError(f"hbar must be finite and positive, got {self.hbar!r}")

    def prefactor(self, point: TransformedPoint) -> float:
        momenta = momenta_from_S(self.pf, point)
        if momenta.p_alpha <= 0.0 or momenta.p_beta <= 0.0:
            raise NonpositiveMomentumError(
                f"prefactor undefined: momenta ({momenta.p_alpha!r}, {momenta.p_beta!r})"
                " must both be positive"
            )
        return 1.0 / math.sqrt(momenta.p_alpha * momenta.p_beta)

    def value(self, point: TransformedPoint) -> complex:
        return self.prefactor(point) * cmath.exp(1j * (evaluate_S(self.pf, point) / self.hbar))


@dataclass(frozen=True)
class OperatorResult:
    """Operator action at a point, with its eigenvalue estimate."""

    eigenvalue_estimate: complex
    residual: float


def build_wavefunction(pf: PrincipalFunction, hbar: float = 1.0) -> WaveField:
    """Wave field for the given principal function and action scale."""
    return WaveField(pf, hbar)


def _check_step(h: float, momentum: float, hbar: float) -> None:
    if not math.isfinite(h) or h <= 0.0:
        raise ValueError(f"step must be finite and positive, got {h!r}")
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
    momentum for the chosen axis; it decays as O(h**2).
    """
    if which not in ("alpha", "beta"):
        raise ValueError(f"which must be 'alpha' or 'beta', got {which!r}")
    momenta = momenta_from_S(wf.pf, point)
    analytic = momenta.p_alpha if which == "alpha" else momenta.p_beta
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
    describe the same system.
    """
    spec = wf.pf.spec
    momenta = momenta_from_S(wf.pf, point)
    _check_step(h, momenta.p_alpha, wf.hbar)
    _check_step(h, momenta.p_beta, wf.hbar)
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
        - 0.5 * spec.v * point.q**2 * psi_0
    )
    estimate = raw / psi_0
    analytic = wf.pf.energies.total
    return OperatorResult(estimate, abs(estimate - analytic))


def probability_density(wf: WaveField, point: TransformedPoint) -> float:
    """|psi|**2, equal to 1/(p_alpha * p_beta) up to roundoff."""
    return abs(wf.value(point)) ** 2


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

    point = TransformedPoint(0.02, -0.015, 0.005, 0.02)
    p1 = p1_classical(point.q)
    if p1 > 0.0 and p2_classical > 0.0:
        wf = build_wavefunction(pf, hbar)
        for which, analytic in (("alpha", p1), ("beta", p2_classical)):
            estimate = apply_momentum(wf, which, point, fd_step).eigenvalue_estimate
            records.append(ReportRecord(f"p_{which}", analytic, estimate.real, momentum_tol))
        estimate = apply_hamiltonian(wf, point, fd_step).eigenvalue_estimate
        records.append(ReportRecord("energy", energies.total, estimate.real, energy_tol))
    return records
