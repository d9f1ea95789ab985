"""Semiclassical wave construction and finite-difference eigen-checks.

The wave field is amplitude times phase,

    psi = exp(i S / hbar) / sqrt(p_alpha * p_beta)

evaluated on the transformed coordinates (u1, u2): WaveField(pf, hbar),
for which build_wavefunction is another name.  Because S is linear
in u1 and u2 at frozen q, psi is an exact eigenfunction of the momentum
operators (hbar/i) d/du, and of the Hamiltonian assembled from them.
The operators are realized as central differences and return their
eigenvalue estimates, which carry an O(h**2) stencil error.

probability_density gives the probability law |psi|**2 =
1/(p_alpha p_beta), and classical_limit_check the reduction to ordinary
mechanics at orders one.

evaluate_models is the one batched model evaluator, behind example1,
example2, sweep and the model checks of verify.  From a
mechanics.FamilyColumns of coefficients and orders and arrays of
energies, points, steps and hbar, it computes every model quantity as
float columns (ModelColumns) with the functions below and
hamilton_jacobi's, called once on the whole batch.  As there, they take
floats, checked, or columns, unchecked (nan or inf where a float call
raises).  An operator call is a column call, no step checked, where
momenta_from_S returns columns or hbar is an array.  The operators and
the batch read one five-point stencil: psi at the point and one step
either side along each axis.  evaluate_model is the scalar path for one
member through the operators, the reference the batch reproduces bit
for bit; wave means both slopes positive.
evaluate_models also checks a batch: one rule flags each row the scalar
path may reject, which reruns down evaluate_model to raise its error.

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
    EnergyColumns,
    EnergyPartition,
    PointColumns,
    PrincipalFunction,
    TransformedPoint,
    evaluate_S,
    hj_residual,
    momenta_from_S,
)
from .mechanics import FamilyColumns, LagrangianSpec, Momenta
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


def _prefactor(momenta: Momenta) -> float:
    product = momenta.p_alpha * momenta.p_beta
    if np.ndim(product):
        return 1.0 / np.sqrt(product)
    if momenta.p_alpha <= 0.0 or momenta.p_beta <= 0.0:
        raise NonpositiveMomentumError(
            f"prefactor undefined: momenta ({momenta.p_alpha!r}, {momenta.p_beta!r})"
            " must both be positive"
        )
    if not 0.0 < product < math.inf or 1.0 / product == math.inf:
        raise ValueError(
            f"prefactor undefined: momentum product p_alpha * p_beta = {product!r}"
            " underflows or overflows a float"
        )
    return 1.0 / math.sqrt(product)


class WaveField(NamedTuple("WaveField", [("pf", PrincipalFunction), ("hbar", float)])):
    """Immutable wave function psi = exp(i S / hbar) / sqrt(p_alpha * p_beta) of pf."""

    __slots__ = ()

    def __new__(cls, pf: PrincipalFunction, hbar: float = 1.0) -> WaveField:
        if not np.ndim(hbar):
            _require_positive("hbar", hbar)
        return super().__new__(cls, pf, hbar)

    def value(self, point: TransformedPoint) -> complex:
        prefactor = _prefactor(momenta_from_S(self.pf, point))
        return prefactor * np.exp(1j * (evaluate_S(self.pf, point) / self.hbar))


build_wavefunction = WaveField


def _past_guard(h: float, momentum: float, hbar: float) -> bool:
    return h * abs(momentum) / hbar > _PHASE_GUARD


def _check_step(h: float, momentum: float, hbar: float) -> None:
    _require_positive("step", h)
    if _past_guard(h, momentum, hbar):
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


def _stencil(wf: WaveField, point: TransformedPoint, h: float, axes: tuple[str, ...]) -> list:
    """(hbar/i) psi' / psi for each axis and, given ("alpha", "beta"), H psi / psi.

    A float call first checks each axis's step and, given both axes, that
    h**2 is not 0 and psi's prefactor, whose error so beats a shifted
    point's (under evaluate_model, apply_momentum has raised it already);
    a column call checks nothing.  psi is then evaluated one step h either
    side along each axis, plus side first, and last at the point.
    """
    momenta, hbar = momenta_from_S(wf.pf, point), wf.hbar
    if isinstance(momenta, Momenta) and not np.ndim(hbar):
        for which in axes:
            _check_step(h, momenta.p_alpha if which == "alpha" else momenta.p_beta, hbar)
        if len(axes) == 2:
            if h * h == 0.0:  # the second difference divides by it
                raise ValueError(f"step {h!r} is too small: its square underflows to 0")
            _prefactor(momenta)
    sides = [[wf.value(_shift(point, which, step)) for step in (h, -h)] for which in axes]
    psi_0 = wf.value(point)
    firsts = [hbar * (plus - minus) / (2.0 * h * 1j) for plus, minus in sides]
    estimates = [first / psi_0 for first in firsts]
    if len(axes) == 2:
        spec = wf.pf.spec

        def branch(i: int, coeff: float, linear: float) -> complex:
            p_squared = -(hbar * hbar) * (sides[i][0] - 2.0 * psi_0 + sides[i][1]) / (h * h)
            return (p_squared - 2.0 * linear * firsts[i] + linear * linear * psi_0) / (2.0 * coeff)

        raw = branch(0, spec.c_alpha, spec.l_alpha) + branch(1, spec.c_beta, spec.l_beta)
        estimates.append((raw - 0.5 * spec.v * (point.q * point.q) * psi_0) / psi_0)
    return estimates


def apply_momentum(wf: WaveField, which: str, point: TransformedPoint, h: float) -> complex:
    """Central-difference momentum (hbar/i) d/du applied to psi.

    Returns the eigenvalue estimate (hbar/i) psi' / psi for the chosen
    axis, the slope momentum up to O(h**2).  A float call checks that
    axis's step only.  A column call (pf or point columns, or hbar an
    array) acts on every row at once and checks no step; the estimate is
    then a complex128 array.
    """
    if which not in ("alpha", "beta"):
        raise ValueError(f"which must be 'alpha' or 'beta', got {which!r}")
    return _stencil(wf, point, h, (which,))[0]


def apply_hamiltonian(wf: WaveField, point: TransformedPoint, h: float) -> complex:
    """Hamiltonian assembled from difference operators, applied to psi.

    Each branch expands (P - l)**2 / (2c) termwise: the squared momentum
    is the 3-point second difference times -hbar**2, the linear momentum
    is the central first difference.  The potential term -v/2 q**2
    multiplies psi directly.  Returns the eigenvalue estimate H psi / psi,
    the total energy of the partition up to O(h**2).  The coefficients
    come from the spec psi was built from, so operator and state always
    describe the same system.  A float call checks the alpha and beta
    steps, that h**2 is not 0 and psi's prefactor, in that order; a
    column call is taken as apply_momentum takes it.
    """
    return _stencil(wf, point, h, ("alpha", "beta"))[2]


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
    Row i equals evaluate_model of that row's member bit for bit.  wave
    is True where both slopes are positive, since psi needs both momenta
    positive; the seven wave-field columns are nan where it is False.
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
    difference, and S and the HJ residual must be finite.  The fields are
    floats, the wave-field ones nan unless both momenta are positive.
    """
    _require_positive("step", h)
    _require_positive("hbar", hbar)
    pf = PrincipalFunction(spec, energies)
    w1, w2 = pf.w1_slope(point.q), pf.w2_slope
    S = evaluate_S(pf, point)
    residual = hj_residual(pf, point)
    for name, value in (("S", S), ("HJ residual", residual)):
        if not math.isfinite(value):
            raise ValueError(
                f"{name} must be finite, got {value!r} at e1 + e2 = {energies.total!r},"
                f" u1 = {point.u1!r}, u2 = {point.u2!r}, t = {point.t!r}"
            )
    wave = w1 > 0.0 and w2 > 0.0
    p_alpha = p_beta = energy = complex(math.nan, math.nan)
    probability = math.nan
    if wave:
        wf = WaveField(pf, hbar)
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
    1-D shape.  Every quantity comes from the functions evaluate_model
    calls, called once on the whole batch as columns; no point or wave
    field is built per row.  Row i equals evaluate_model of that row's
    member, point and step bit for bit.

    A row is flagged where the scalar path may raise: c <= 0, e < 0,
    h or hbar <= 0, an order below 1, h, hbar, an order, a slope, S or
    the HJ residual not finite (a non-finite input makes a slope or S
    so), or, where wave (both slopes positive) holds, a step past the
    phase guard or a wave-field value not finite.  Flagged rows rerun
    down evaluate_model in row order, so the first raises its error.
    """
    inputs = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (*family, e1, e2, u1, u2, t, q, h, hbar))
    )
    fields = [np.ravel(x) for x in inputs]
    c_alpha, c_beta, l_alpha, l_beta, v, alpha, beta, e1, e2, u1, u2, t, q, h, hbar = fields
    with np.errstate(all="ignore"):
        pf = PrincipalFunction(FamilyColumns(*fields[:7]), EnergyColumns(e1, e2))
        points = PointColumns(u1, u2, t, q)
        w1, w2 = momenta_from_S(pf, points)
        S = evaluate_S(pf, points)
        residual = hj_residual(pf, points)

        wf = WaveField(pf, hbar)
        results = _stencil(wf, points, h, ("alpha", "beta"))
        estimates = [part for r in results for part in (r.real, r.imag)]
        probability = probability_density(wf, points) * w1 * w2

        wave = (w1 > 0.0) & (w2 > 0.0)
        flagged = ~(
            (c_alpha > 0.0) & (c_beta > 0.0) & (e1 >= 0.0) & (e2 >= 0.0) & (h > 0.0)
            & (hbar > 0.0) & (alpha >= 1.0) & (beta >= 1.0)
            & np.isfinite([h, hbar, alpha, beta, w1, w2, S, residual]).all(axis=0)
        ) | wave & (
            _past_guard(h, w1, hbar) | _past_guard(h, w2, hbar)
            | ~np.isfinite([*estimates, probability]).all(axis=0)
        )
    wave_columns = [np.where(wave, x, math.nan) for x in (*estimates, probability)]
    # each flagged row as Python floats, whose reprs the scalar messages
    # show, built in the order a member-by-member run builds it
    for row in zip(*(field[flagged].tolist() for field in fields)):
        spec = LagrangianSpec(*row[:5], FractionalOrder(row[5]), FractionalOrder(row[6]))
        energies, point = EnergyPartition(*row[7:9]), TransformedPoint(*row[9:13])
        evaluate_model(spec, energies, point, *row[13:])
    return ModelColumns(w1, w2, S, residual, *wave_columns, wave)


def _closed_form_slopes(coefficients, e1, e2, q) -> tuple[np.ndarray, np.ndarray]:
    # The family's slopes, written out by hand in the family's order of
    # operations: a correct family matches them bit for bit, and a change
    # to the family's formula still fails its record.
    c_alpha, c_beta, l_alpha, l_beta, v = coefficients
    return l_alpha + np.sqrt(c_alpha * (v * q * q + 2.0 * e1)), l_beta + np.sqrt(2.0 * c_beta * e2)


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
      principal function, its momenta expanded in the family's order of
      operations
    - p_alpha / p_beta / energy: difference-operator eigenvalues against
      the classical predictions (emitted only where both momenta are
      positive, since the amplitude needs 1/sqrt(p))

    Raises ValueError when either order differs from one.
    """
    if spec.alpha.value != 1.0 or spec.beta.value != 1.0:
        raise ValueError("classical limit check requires alpha = beta = 1")

    structure_tol = tolerances["hj_residual"]
    records = []
    stencil = gl_weights(0.0, 16)
    stencil_error = abs(stencil[0] - 1.0) + float(abs(stencil[1:]).max())
    records.append(ReportRecord("order0_identity", 0.0, stencil_error, structure_tol))

    pf = PrincipalFunction(spec, energies)
    for q, t in ((1.0, 0.0), (0.6, 0.25)):
        value = evaluate_S(pf, TransformedPoint(q, q, t, q))
        p1, p2 = _closed_form_slopes(spec[:5], energies.e1, energies.e2, q)
        classical = (p1 + p2) * q - energies.total * t
        records.append(
            ReportRecord(f"S_reduction[q={q:g} t={t:g}]", classical, value, structure_tol)
        )

    point = TransformedPoint(*SAMPLE_POINT, 0.02)
    p1, p2 = _closed_form_slopes(spec[:5], energies.e1, energies.e2, point.q)
    if p1 > 0.0 and p2 > 0.0:
        model = evaluate_model(spec, energies, point, FD_STEP)
        momentum_tol = tolerances["momentum_eigenvalue"]
        records += [
            ReportRecord("p_alpha", p1, model.p_alpha, momentum_tol),
            ReportRecord("p_beta", p2, model.p_beta, momentum_tol),
            ReportRecord("energy", energies.total, model.energy, tolerances["energy_eigenvalue"]),
        ]
    return records
