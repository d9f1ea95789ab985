"""Semiclassical wave construction and finite-difference eigen-checks.

The wave field is amplitude times phase,

    psi = exp(i S / hbar) / sqrt(p_alpha * p_beta)

evaluated on the transformed coordinates (u1, u2).  Because S is linear
in u1 and u2 at frozen q, psi is an exact eigenfunction of the momentum
operators (hbar/i) d/du, and of the Hamiltonian assembled from them.
The operators are realized as central differences and return their
eigenvalue estimates, which carry an O(h**2) stencil error.

evaluate_models computes every model quantity of a batch of members as
float columns: the operators below also act on a whole batch of wave
fields and points at once, on complex128 arrays.  evaluate_model is the
scalar path for one member, the reference the batch reproduces.  Both
paths compute psi with numpy's complex arithmetic and every square as a
product, so they agree bit for bit.  evaluate_models is also where a
batch is checked: it reruns each row the scalar path may reject down
evaluate_model, so a bad member raises the scalar error.

A note on roundoff: the second-difference stencil divides by h**2 and
therefore amplifies the representation error of the phase, which is
proportional to |S/hbar| ulps.  At h = FD_STEP = 1e-4 this floor is
around 2e-8 * |S/hbar|, so checks that push residuals below 1e-7 must
evaluate at points where |S/hbar| is small (a fraction of a radian).
The eigen-relations are point-independent, so this costs no generality.
"""

from __future__ import annotations

import math
from typing import Mapping, NamedTuple

import numpy as np

from .errors import NonpositiveMomentumError, StepTooLargeError
from .hamilton_jacobi import (
    EnergyPartition,
    PointColumns,
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
from .fracops import FractionalOrder, gl_weights
from .reporting import ReportRecord

__all__ = [
    "WaveField",
    "build_wavefunction",
    "apply_momentum",
    "apply_hamiltonian",
    "probability_density",
    "evaluate_models",
    "classical_limit_check",
    "SAMPLE_POINT",
    "FD_STEP",
]

# Central differencing aliases the phase once h per wavelength gets
# large; reject steps beyond a tenth of a radian of phase advance.
_PHASE_GUARD = 0.1

# The (u1, u2, t) at which the model records and the eigen-checks
# sample psi.  Its phase stays below ~0.3 rad over verify's parameter
# grid, small enough that the stencil eigen-checks sit well above the
# roundoff floor of the note above.
SAMPLE_POINT = (0.02, -0.015, 0.005)

# The stencil step every check and the model commands' default use; the
# roundoff note above gives its floor.
FD_STEP = 1e-4


def _require_positive(name: str, value: float) -> None:
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


class WaveField(NamedTuple("WaveField", [("pf", PrincipalFunction), ("hbar", float)])):
    """Immutable wave function psi = prefactor * exp(i S / hbar)."""

    __slots__ = ()

    def __new__(cls, pf: PrincipalFunction, hbar: float = 1.0) -> WaveField:
        _require_positive("hbar", hbar)
        return super().__new__(cls, pf, hbar)

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


class _WaveColumns(NamedTuple):
    """psi of many members: WaveField's batch counterpart, unchecked.

    momenta are the W slopes and total the energy e1 + e2 of each row.
    """

    spec: FamilyColumns
    momenta: MomentumColumns
    total: np.ndarray
    hbar: np.ndarray

    def value(self, point: PointColumns) -> np.ndarray:
        p_alpha, p_beta = self.momenta
        S = p_alpha * point.u1 + p_beta * point.u2 - self.total * point.t
        return (1.0 / np.sqrt(p_alpha * p_beta)) * np.exp(1j * (S / self.hbar))


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
    # by its class, not _replace, so a TransformedPoint is checked again
    u1, u2, t, q = point
    if which == "alpha":
        return type(point)(u1 + delta, u2, t, q)
    return type(point)(u1, u2 + delta, t, q)


def apply_momentum(wf: WaveField, which: str, point: TransformedPoint, h: float) -> complex:
    """Central-difference momentum (hbar/i) d/du applied to psi.

    Returns the eigenvalue estimate (hbar/i) psi' / psi for the chosen
    axis, the slope momentum up to O(h**2).  On the batch field and
    points of evaluate_models it acts on every row at once and checks no
    step; the estimate is then a complex128 array.
    """
    if which not in ("alpha", "beta"):
        raise ValueError(f"which must be 'alpha' or 'beta', got {which!r}")
    if not isinstance(wf, _WaveColumns):
        momenta = momenta_from_S(wf.pf, point)
        _check_step(h, momenta.p_alpha if which == "alpha" else momenta.p_beta, wf.hbar)
    psi_plus = wf.value(_shift(point, which, h))
    psi_minus = wf.value(_shift(point, which, -h))
    raw = wf.hbar * (psi_plus - psi_minus) / (2.0 * h * 1j)
    return raw / wf.value(point)


def apply_hamiltonian(wf: WaveField, point: TransformedPoint, h: float) -> complex:
    """Hamiltonian assembled from difference operators, applied to psi.

    Each branch expands (P - l)**2 / (2c) termwise: the squared momentum
    is the 3-point second difference times -hbar**2, the linear momentum
    is the central first difference.  The potential term -v/2 q**2
    multiplies psi directly.  Returns the eigenvalue estimate H psi / psi,
    the total energy of the partition up to O(h**2).  The coefficients
    come from the spec psi was built from, so operator and state always
    describe the same system.  Batch input is taken as apply_momentum
    takes it.
    """
    if isinstance(wf, _WaveColumns):
        spec = wf.spec
    else:
        spec = wf.pf.spec
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
    return raw / psi_0


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
    needs both momenta positive.
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
    checks them, even one whose zero energy leaves no wave field to
    difference.  The fields are floats, the wave-field ones nan unless
    both momenta are positive.
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
            p_alpha = apply_momentum(wf, "alpha", point, h)
            p_beta = apply_momentum(wf, "beta", point, h)
            energy = apply_hamiltonian(wf, point, h)
            probability = probability_density(wf, point) * w1 * w2
    return ModelColumns(
        w1, w2, S, residual, p_alpha.real, p_alpha.imag, p_beta.real, p_beta.imag,
        energy.real, energy.imag, probability, wave,
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

    family holds the coefficients and orders of LagrangianSpec as
    floats, e1 and e2 the energy shares, (u1, u2, t, q) the points, h
    the stencil steps and hbar the action scales; all broadcast to one
    1-D shape.  The operators and the probability are the functions
    above, called once on the whole batch; no point or wave field is
    built per row.  Row i equals evaluate_model of that row's member,
    point and step bit for bit.

    The batch checks its rows as the scalar path does.  Each row on
    which that path may raise, or whose orders are not finite and at
    least 1, is rebuilt as a member from Python floats and run down
    evaluate_model, in row order, so the first bad row raises the error
    a member-by-member run would stop at.
    """
    inputs = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (*family, e1, e2, u1, u2, t, q, h, hbar))
    )
    fields = [np.ravel(x) for x in inputs]
    c_alpha, c_beta, l_alpha, l_beta, v, alpha, beta, e1, e2, u1, u2, t, q, h, hbar = fields
    with np.errstate(all="ignore"):
        # PrincipalFunction's slopes and evaluate_S, elementwise
        w1 = l_alpha + np.sqrt(c_alpha * (v * q * q + 2.0 * e1))
        w2 = l_beta + np.sqrt(2.0 * c_beta * e2)
        total = e1 + e2
        S = w1 * u1 + w2 * u2 - total * t
        family = FamilyColumns(c_alpha, c_beta, l_alpha, l_beta, v, alpha, beta)
        momenta = MomentumColumns(w1, w2)
        residual = legendre_transform(family, momenta, q) - total

        wf = _WaveColumns(family, momenta, total, hbar)
        points = PointColumns(u1, u2, t, q)
        results = (
            apply_momentum(wf, "alpha", points, h),
            apply_momentum(wf, "beta", points, h),
            apply_hamiltonian(wf, points, h),
        )
        estimates = [part for r in results for part in (r.real, r.imag)]
        probability = probability_density(wf, points) * w1 * w2

        finite = np.isfinite([c_alpha, c_beta, l_alpha, l_beta, v, e1, e2, u1, u2, t, q])
        accepted = (
            finite.all(axis=0) & (c_alpha > 0.0) & (c_beta > 0.0) & (e1 >= 0.0) & (e2 >= 0.0)
            & np.isfinite([w1, w2, S, residual]).all(axis=0)
        )
        stepped = np.isfinite(h) & (h > 0.0) & np.isfinite(hbar) & (hbar > 0.0)
        ordered = (alpha >= 1.0) & (alpha < math.inf) & (beta >= 1.0) & (beta < math.inf)
        wave = accepted & (w1 > 0.0) & (w2 > 0.0)
        # _check_step's guard, then every wave-field value finite
        stable = (
            ~(h * np.abs(w1) / hbar > _PHASE_GUARD)
            & ~(h * np.abs(w2) / hbar > _PHASE_GUARD)
            & np.isfinite([*estimates, probability]).all(axis=0)
        )
    wave_columns = [np.where(wave, x, math.nan) for x in (*estimates, probability)]
    flagged = ~(accepted & stepped & ordered) | (wave & ~stable)
    # each flagged row as Python floats, whose reprs the scalar messages
    # show, built in the order a member-by-member run builds it
    for row in zip(*(field[flagged].tolist() for field in fields)):
        spec = LagrangianSpec(*row[:5], FractionalOrder(row[5]), FractionalOrder(row[6]))
        energies, point = EnergyPartition(*row[7:9]), TransformedPoint(*row[9:13])
        evaluate_model(spec, energies, point, *row[13:])
    return ModelColumns(w1, w2, S, residual, *wave_columns, wave)


def classical_limit_check(
    spec: LagrangianSpec, energies: EnergyPartition, tolerances: Mapping[str, float]
) -> list[ReportRecord]:
    """Structural checks that orders one reduce to ordinary mechanics.

    At alpha = beta = 1 both transformed coordinates are order-0
    derivatives of q, i.e. q itself, so S collapses to the ordinary
    p(q) * q - E t and the difference operators, at hbar 1 and step
    FD_STEP, reproduce the classical momenta and energy.  Each record
    reads its tolerance from the table: hj_residual for the structural
    ones, momentum_eigenvalue and energy_eigenvalue for the eigenvalues.
    Records:

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

    structure_tol = tolerances["hj_residual"]
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
        model = evaluate_model(spec, energies, point, FD_STEP)
        momentum_tol = tolerances["momentum_eigenvalue"]
        records += [
            ReportRecord("p_alpha", p1, model.p_alpha, momentum_tol),
            ReportRecord("p_beta", p2_classical, model.p_beta, momentum_tol),
            ReportRecord("energy", energies.total, model.energy, tolerances["energy_eigenvalue"]),
        ]
    return records
