
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracwkb import verification
from fracwkb.errors import NonpositiveMomentumError, StepTooLargeError
from fracwkb.fracops import FractionalOrder
from fracwkb.hamilton_jacobi import EnergyPartition, TransformedPoint, separate
from fracwkb.mechanics import FamilyColumns, LagrangianSpec, example1, example2
from fracwkb.reporting import RecordBatch
from fracwkb.wkb import (
    ModelColumns,
    apply_hamiltonian,
    apply_momentum,
    build_wavefunction,
    classical_limit_check,
    evaluate_model,
    evaluate_models,
    probability_density,
)

# small |S| keeps the 1/h**2 phase-roundoff floor out of the way
_POINT = TransformedPoint(0.02, -0.015, 0.005)


def _wave(spec, e1, e2, hbar=1.0):
    return build_wavefunction(separate(spec, EnergyPartition(e1, e2)), hbar)


def test_value_at_origin_is_one():
    # unit momenta: prefactor 1, zero phase
    wf = _wave(example1(), 0.5, 0.5)
    assert wf.value(TransformedPoint(0.0, 0.0, 0.0)) == 1.0 + 0.0j


def test_amplitude_from_momenta():
    # p_alpha = p_beta = 2, so |psi| = 1/2 everywhere
    wf = _wave(example1(), 2.0, 2.0)
    assert abs(abs(wf.value(TransformedPoint(0.7, -0.3, 1.2))) - 0.5) <= 1e-15


def test_nonpositive_momentum_rejected():
    wf = _wave(example1(), 0.0, 1.0)
    with pytest.raises(NonpositiveMomentumError):
        wf.value(TransformedPoint(0.0, 0.0, 0.0))


def test_hbar_validation():
    pf = separate(example1(), EnergyPartition(1.0, 1.0))
    with pytest.raises(ValueError):
        build_wavefunction(pf, 0.0)
    with pytest.raises(ValueError):
        build_wavefunction(pf, -1.0)


def test_momentum_eigenvalues():
    result = apply_momentum(_wave(example1(), 0.5, 0.5), "alpha", _POINT, 1e-4)
    assert abs(result.eigenvalue_estimate.real - 1.0) <= 1e-6
    result = apply_momentum(_wave(example1(), 2.0, 2.0), "alpha", _POINT, 1e-4)
    assert abs(result.eigenvalue_estimate.real - 2.0) <= 1e-6
    # driven model at q = 0: slope is l + sqrt(2 c e1) = 2
    result = apply_momentum(_wave(example2(), 0.5, 0.5), "beta", _POINT, 1e-4)
    assert abs(result.eigenvalue_estimate.real - 2.0) <= 1e-6
    assert result.residual <= 1e-6


def test_momentum_which_validation():
    with pytest.raises(ValueError):
        apply_momentum(_wave(example1(), 1.0, 1.0), "gamma", _POINT, 1e-4)


def test_hamiltonian_eigenvalues():
    result = apply_hamiltonian(_wave(example1(), 1.0, 1.0), _POINT, 1e-4)
    assert abs(result.eigenvalue_estimate.real - 2.0) <= 1e-6
    result = apply_hamiltonian(_wave(example2(), 0.5, 0.5), _POINT, 1e-4)
    assert abs(result.eigenvalue_estimate.real - 1.0) <= 1e-6
    # zero e2 still works: p_beta = l_beta = 1 stays positive
    point = TransformedPoint(0.02, -0.015, 0.005, 2.0)
    result = apply_hamiltonian(_wave(example2(), 1.0, 0.0), point, 1e-4)
    assert abs(result.eigenvalue_estimate.real - 1.0) <= 1e-6
    assert result.residual <= 1e-6


def test_stencil_error_is_second_order():
    # halving h divides the eigenvalue residual by about four
    wf = _wave(example1(), 2.0, 2.0)
    point = TransformedPoint(0.4, 0.3, 0.1)
    coarse = apply_momentum(wf, "alpha", point, 2e-2).residual
    fine = apply_momentum(wf, "alpha", point, 1e-2).residual
    assert 3.6 <= coarse / fine <= 4.4
    coarse = apply_hamiltonian(wf, point, 2e-2).residual
    fine = apply_hamiltonian(wf, point, 1e-2).residual
    assert 3.6 <= coarse / fine <= 4.4


def test_step_guards():
    wf = _wave(example1(), 8.0, 8.0)  # momenta 4: 0.03 * 4 > 0.1
    with pytest.raises(StepTooLargeError):
        apply_momentum(wf, "alpha", _POINT, 0.03)
    with pytest.raises(StepTooLargeError):
        apply_hamiltonian(wf, _POINT, 0.03)
    with pytest.raises(ValueError):
        apply_momentum(wf, "alpha", _POINT, 0.0)
    with pytest.raises(ValueError):
        apply_momentum(wf, "alpha", _POINT, -1e-4)


def test_probability_values():
    point = TransformedPoint(0.9, -1.1, 0.3)
    assert abs(probability_density(_wave(example1(), 0.5, 0.5), point) - 1.0) <= 1e-15
    assert abs(probability_density(_wave(example1(), 2.0, 2.0), point) - 0.25) <= 1e-15
    assert abs(probability_density(_wave(example1(), 2.0, 0.5), point) - 0.5) <= 1e-15


def test_probability_matches_inverse_momentum_product():
    # |psi|**2 = 1/(p_alpha p_beta) across a positive-drive family sweep
    rng = np.random.default_rng(31)
    for _ in range(100):
        spec = LagrangianSpec(
            c_alpha=rng.uniform(0.2, 5.0),
            c_beta=rng.uniform(0.2, 5.0),
            l_alpha=rng.uniform(0.5, 2.0),
            l_beta=rng.uniform(0.5, 2.0),
            v=rng.uniform(0.0, 2.0),
            alpha=FractionalOrder(rng.uniform(1.0, 2.0)),
            beta=FractionalOrder(rng.uniform(1.0, 2.0)),
        )
        energies = EnergyPartition(rng.uniform(0.1, 4.0), rng.uniform(0.1, 4.0))
        pf = separate(spec, energies)
        q = rng.uniform(-2.0, 2.0)
        point = TransformedPoint(
            rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0), rng.uniform(-2.0, 2.0), q
        )
        wf = build_wavefunction(pf)
        expected = 1.0 / (pf.w1_slope(q) * pf.w2_slope)
        assert abs(probability_density(wf, point) - expected) <= 1e-14


def test_amplitude_independent_of_time():
    wf = _wave(example2(), 1.0, 2.0)
    a = abs(wf.value(TransformedPoint(0.5, 0.5, 0.0, 0.3)))
    b = abs(wf.value(TransformedPoint(0.5, 0.5, 5.0, 0.3)))
    assert abs(a - b) <= 1e-15


def test_hbar_rescaling_gauge():
    # S is linear in (u1, u2, t), so scaling the point by s cancels hbar = s
    pf = separate(example2(), EnergyPartition(1.5, 0.5))
    s = 3.7
    point = TransformedPoint(0.4, -0.3, 0.2, 0.7)
    scaled = TransformedPoint(s * point.u1, s * point.u2, s * point.t, point.q)
    a = build_wavefunction(pf, 1.0).value(point)
    b = build_wavefunction(pf, s).value(scaled)
    assert abs(a - b) <= 1e-13


def test_eigenvalue_estimates_point_independent():
    wf = _wave(example2(), 1.0, 1.0)
    p1 = TransformedPoint(0.1, 0.2, 0.0, 0.5)
    p2 = TransformedPoint(-0.8, 0.6, 1.1, 0.5)
    a = apply_momentum(wf, "alpha", p1, 1e-2).eigenvalue_estimate
    b = apply_momentum(wf, "alpha", p2, 1e-2).eigenvalue_estimate
    assert abs(a - b) <= 1e-12


def test_imaginary_part_small_at_small_phase():
    wf = _wave(example1(), 8.0, 8.0)
    est = apply_hamiltonian(wf, _POINT, 1e-4).eigenvalue_estimate
    assert abs(est.imag) < 1e-8
    est = apply_momentum(wf, "alpha", _POINT, 1e-4).eigenvalue_estimate
    assert abs(est.imag) < 1e-8


def test_classical_limit_passes():
    for spec in (example1(1.0, 1.0), example2(1.0, 1.0)):
        records = classical_limit_check(spec, EnergyPartition(0.5, 0.5))
        assert len(records) == 6
        failures = RecordBatch.from_records(records).failures()
        assert not len(failures), failures.quantities


def test_classical_limit_reduction_value():
    # e2 = 0 suppresses the second branch: S at q = 1 collapses to p1 * q = 1
    records = classical_limit_check(example1(1.0, 1.0), EnergyPartition(0.5, 0.0))
    by_name = {r.quantity: r for r in records}
    assert by_name["S_reduction[q=1 t=0]"].numeric == 1.0
    # zero momentum on the beta branch: no eigen-operator records
    assert "p_beta" not in by_name


def test_classical_limit_zero_energies():
    records = classical_limit_check(example1(1.0, 1.0), EnergyPartition(0.0, 0.0))
    assert [r.quantity for r in records] == [
        "order0_identity",
        "S_reduction[q=1 t=0]",
        "S_reduction[q=0.6 t=0.25]",
    ]
    assert RecordBatch.from_records(records).passed.all()
    for record in records:
        if record.quantity.startswith("S_reduction"):
            assert record.numeric == 0.0


def test_classical_limit_rejects_fractional_orders():
    with pytest.raises(ValueError):
        classical_limit_check(example1(), EnergyPartition(1.0, 1.0))


# ------------------------------------------------------ batch evaluator

def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def _member(draw, small_point=True):
    """A family member, energies, point, step and hbar; some energies zero,
    and some steps and hbars not finite and positive."""
    spec = LagrangianSpec(
        draw(_floats(0.2, 5.0)), draw(_floats(0.2, 5.0)), draw(_floats(-2.0, 2.0)),
        draw(_floats(-2.0, 2.0)), draw(_floats(-1.0, 2.0)),
        FractionalOrder(1.5), FractionalOrder(1.5),
    )
    energy = st.sampled_from([0.0]) | _floats(0.0, 4.0)
    energies = EnergyPartition(draw(energy), draw(energy))
    span = (0.05, 0.02) if small_point else (3.0, 2.0)
    point = TransformedPoint(
        draw(_floats(-span[0], span[0])), draw(_floats(-span[0], span[0])),
        draw(_floats(-span[1], span[1])), draw(_floats(-2.0, 2.0)),
    )
    # steps from 0.02 on often trip the phase guard for one momentum only
    step = _floats(5e-5, 1e-3) | st.sampled_from([0.02, 0.05])
    # each of step and hbar is not finite and positive on one member in ten
    invalid = st.sampled_from([0.0, -1.0, math.nan, math.inf])
    step, hbar = (
        draw(invalid if draw(st.integers(0, 9)) == 0 else valid)
        for valid in (step, _floats(0.5, 2.0))
    )
    return spec, energies, point, step, hbar


def _batch(members) -> ModelColumns:
    specs, energies, points, steps, hbars = zip(*members)
    family = FamilyColumns(
        *(np.array([getattr(s, name) for s in specs]) for name in FamilyColumns._fields)
    )
    return evaluate_models(
        family, [e.e1 for e in energies], [e.e2 for e in energies],
        [p.u1 for p in points], [p.u2 for p in points], [p.t for p in points],
        [p.q for p in points], steps, hbars,
    )


@settings(max_examples=60, deadline=None)
@given(members=st.lists(_member() | _member(small_point=False), min_size=1, max_size=30))
def test_batch_equals_scalar_path(members):
    # Every column equals the scalar functions' value bit for bit, signed
    # zeros included, nan where the wave field is undefined (a zero
    # energy or a nonpositive momentum).  A member the scalar path
    # rejects (a negative W1 radicand, a step past the phase guard, a
    # momentum product out of the float range) must be marked rejected.
    # A step or hbar that is not finite and positive is rejected on every
    # member, zero energies included.
    columns = _batch(members)
    for i, member in enumerate(members):
        *_, step, hbar = member
        if not (0.0 < step < math.inf and 0.0 < hbar < math.inf):
            with pytest.raises(ValueError, match="must be finite and positive"):
                evaluate_model(*member)
        try:
            reference = evaluate_model(*member)
        except (ValueError, ArithmeticError):
            assert columns.rejected[i]
            continue
        for name in ModelColumns._fields[:-2]:
            got, want = np.float64(getattr(columns, name)[i]), np.float64(getattr(reference, name))
            assert got.tobytes() == want.tobytes() or (np.isnan(got) and np.isnan(want)), name
        assert columns.wave[i] == reference.wave


@settings(max_examples=40, deadline=None)
@given(members=st.lists(_member(small_point=False), min_size=1, max_size=20))
def test_hj_identity_and_probability_law_hold(members):
    # H(dS/du, q) + dS/dt = 0 wherever W1 is real, and
    # |psi|**2 p_alpha p_beta = 1 wherever psi is defined (hbar finite
    # and positive) and the momentum product is a normal float, at any point
    columns = _batch(members)
    real = np.isfinite(columns.w1_slope)
    assert np.all(np.abs(columns.hj_residual[real]) <= 1e-12)
    hbar = np.array([member[-1] for member in members])
    normal = (
        columns.wave & (0.0 < hbar) & (hbar < math.inf)
        & (columns.w1_slope * columns.w2_slope >= np.finfo(float).tiny)
    )
    assert np.all(np.abs(columns.probability[normal] - 1.0) <= 1e-14)


@pytest.mark.parametrize(
    "member, step",
    [
        ((example1(), EnergyPartition(1.0, 1.0), _POINT), 0.5),  # past the phase guard
        (
            (
                LagrangianSpec(1.0, 1.0, 0.0, 0.0, -1.0, FractionalOrder(1.5), FractionalOrder(1.5)),
                EnergyPartition(0.0, 1.0),
                TransformedPoint(0.02, -0.015, 0.005, 1.0),
            ),
            1e-4,
        ),  # a negative W1 radicand
    ],
)
def test_verify_batch_raises_the_scalar_error(member, step):
    # verify evaluates its drawn members as one batch; a member the
    # scalar path rejects raises that path's error instead of giving nan
    with pytest.raises(Exception) as scalar:
        evaluate_model(*member, step)
    good = (example2(), EnergyPartition(1.0, 1.0), _POINT)
    with pytest.raises(type(scalar.value), match=re.escape(str(scalar.value))):
        rows = np.array([verification._member_row(*m) for m in (good, member)])
        verification.evaluate_members(rows, np.array([1e-4, step]), 1.0)
