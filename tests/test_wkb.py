
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracwkb.errors import ForbiddenRegionError, NonpositiveMomentumError, StepTooLargeError
from fracwkb.fracops import FractionalOrder
from fracwkb.hamilton_jacobi import EnergyPartition, TransformedPoint, hj_residual, separate
from fracwkb.mechanics import FamilyColumns, LagrangianSpec, example1, example2
from fracwkb.reporting import RecordBatch
from fracwkb.verification import DEFAULT_TOLERANCES
from fracwkb.wkb import (
    FD_STEP,
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


def test_hamiltonian_rejects_a_step_whose_square_underflows():
    # the step passes the phase guard, but the second difference divides by h * h
    wf = _wave(example1(), 1.0, 1.0)
    with pytest.raises(ValueError, match=r"^step 1e-170 is too small: its square underflows to 0$"):
        apply_hamiltonian(wf, _POINT, 1e-170)


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
    estimate = apply_momentum(_wave(example1(), 0.5, 0.5), "alpha", _POINT, 1e-4)
    assert abs(estimate.real - 1.0) <= 1e-6
    estimate = apply_momentum(_wave(example1(), 2.0, 2.0), "alpha", _POINT, 1e-4)
    assert abs(estimate.real - 2.0) <= 1e-6
    # driven model at q = 0: slope is l + sqrt(2 c e1) = 2
    estimate = apply_momentum(_wave(example2(), 0.5, 0.5), "beta", _POINT, 1e-4)
    assert abs(estimate.real - 2.0) <= 1e-6
    assert abs(estimate - 2.0) <= 1e-6


def test_momentum_which_validation():
    with pytest.raises(ValueError):
        apply_momentum(_wave(example1(), 1.0, 1.0), "gamma", _POINT, 1e-4)


def test_hamiltonian_eigenvalues():
    estimate = apply_hamiltonian(_wave(example1(), 1.0, 1.0), _POINT, 1e-4)
    assert abs(estimate.real - 2.0) <= 1e-6
    estimate = apply_hamiltonian(_wave(example2(), 0.5, 0.5), _POINT, 1e-4)
    assert abs(estimate.real - 1.0) <= 1e-6
    # zero e2 still works: p_beta = l_beta = 1 stays positive
    point = TransformedPoint(0.02, -0.015, 0.005, 2.0)
    estimate = apply_hamiltonian(_wave(example2(), 1.0, 0.0), point, 1e-4)
    assert abs(estimate.real - 1.0) <= 1e-6
    assert abs(estimate - 1.0) <= 1e-6


def test_stencil_error_is_second_order():
    # halving h divides the eigenvalue residual by about four
    wf = _wave(example1(), 2.0, 2.0)
    point = TransformedPoint(0.4, 0.3, 0.1)
    coarse, fine = (abs(apply_momentum(wf, "alpha", point, h) - 2.0) for h in (2e-2, 1e-2))
    assert 3.6 <= coarse / fine <= 4.4
    # the partition total e1 + e2
    coarse, fine = (abs(apply_hamiltonian(wf, point, h) - 4.0) for h in (2e-2, 1e-2))
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
    a = apply_momentum(wf, "alpha", p1, 1e-2)
    b = apply_momentum(wf, "alpha", p2, 1e-2)
    assert abs(a - b) <= 1e-12


def test_imaginary_part_small_at_small_phase():
    wf = _wave(example1(), 8.0, 8.0)
    est = apply_hamiltonian(wf, _POINT, 1e-4)
    assert abs(est.imag) < 1e-8
    est = apply_momentum(wf, "alpha", _POINT, 1e-4)
    assert abs(est.imag) < 1e-8


def test_classical_limit_passes():
    for spec in (example1(1.0, 1.0), example2(1.0, 1.0)):
        records = classical_limit_check(spec, EnergyPartition(0.5, 0.5), DEFAULT_TOLERANCES)
        assert len(records) == 6
        failures = RecordBatch.from_records(records).failures()
        assert not len(failures), failures.quantities


def test_classical_limit_reduction_value():
    # e2 = 0 suppresses the second branch: S at q = 1 collapses to p1 * q = 1
    records = classical_limit_check(
        example1(1.0, 1.0), EnergyPartition(0.5, 0.0), DEFAULT_TOLERANCES
    )
    by_name = {r.quantity: r for r in records}
    assert by_name["S_reduction[q=1 t=0]"].numeric == 1.0
    # zero momentum on the beta branch: no eigen-operator records
    assert "p_beta" not in by_name


def test_classical_limit_zero_energies():
    records = classical_limit_check(
        example1(1.0, 1.0), EnergyPartition(0.0, 0.0), DEFAULT_TOLERANCES
    )
    assert [r.quantity for r in records] == [
        "order0_identity",
        "S_reduction[q=1 t=0]",
        "S_reduction[q=0.6 t=0.25]",
    ]
    assert RecordBatch.from_records(records).passed.all()
    for record in records:
        if record.quantity.startswith("S_reduction"):
            assert record.numeric == 0.0


def test_classical_limit_records_read_the_tolerance_table():
    # each record carries the table entry of its key, so one changed
    # entry moves exactly the records that read it
    table = {**DEFAULT_TOLERANCES, "momentum_eigenvalue": 0.125}
    records = classical_limit_check(example2(1.0, 1.0), EnergyPartition(0.5, 0.5), table)
    assert [r.quantity for r in records if r.tolerance == 0.125] == ["p_alpha", "p_beta"]
    expected = {"p_alpha": 0.125, "p_beta": 0.125, "energy": table["energy_eigenvalue"]}
    for record in records:
        assert record.tolerance == expected.get(record.quantity, table["hj_residual"])


def test_classical_limit_rejects_fractional_orders():
    with pytest.raises(ValueError):
        classical_limit_check(example1(), EnergyPartition(1.0, 1.0), DEFAULT_TOLERANCES)


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
        *np.array([[*s[:5], s.alpha.value, s.beta.value] for s in specs]).T
    )
    return evaluate_models(
        family, [e.e1 for e in energies], [e.e2 for e in energies],
        [p.u1 for p in points], [p.u2 for p in points], [p.t for p in points],
        [p.q for p in points], steps, hbars,
    )


@settings(max_examples=60, deadline=None)
@given(members=st.lists(_member() | _member(small_point=False), min_size=1, max_size=30))
def test_batch_equals_scalar_path(members):
    # A member the scalar path rejects (a negative W1 radicand, a step
    # past the phase guard, a momentum product out of the float range)
    # raises the same error from a one-row batch, and a batch of all the
    # members raises the first one's.  A step or hbar that is not finite
    # and positive is rejected on every member, zero energies included.
    # On the accepted members every column equals the scalar functions'
    # value bit for bit, signed zeros included, nan where the wave field
    # is undefined (a zero energy or a nonpositive momentum).
    accepted, references, errors = [], [], []
    for member in members:
        *_, step, hbar = member
        if not (0.0 < step < math.inf and 0.0 < hbar < math.inf):
            with pytest.raises(ValueError, match="must be finite and positive"):
                evaluate_model(*member)
        try:
            references.append(evaluate_model(*member))
        except (ValueError, ArithmeticError) as exc:
            errors.append(exc)
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                _batch([member])
            continue
        accepted.append(member)
    if errors:
        with pytest.raises(type(errors[0]), match=f"^{re.escape(str(errors[0]))}$"):
            _batch(members)
    if not accepted:
        return
    columns = _batch(accepted)
    for i, reference in enumerate(references):
        for name in ModelColumns._fields[:-1]:
            got, want = np.float64(getattr(columns, name)[i]), np.float64(getattr(reference, name))
            assert got.tobytes() == want.tobytes() or (np.isnan(got) and np.isnan(want)), name
        assert columns.wave[i] == reference.wave


@settings(max_examples=40, deadline=None)
@given(members=st.lists(_member(small_point=False), min_size=1, max_size=20))
def test_hj_identity_and_probability_law_hold(members):
    # H(dS/du, q) + dS/dt = 0 wherever W1 is real, and
    # |psi|**2 p_alpha p_beta = 1 wherever psi is defined (hbar finite
    # and positive) and the momentum product is a normal float, at any
    # point.  Neither reads the step, nor the HJ residual hbar, so each
    # member is evaluated at step FD_STEP, and at hbar 1 where its own is
    # not finite and positive.  Positive momenta whose product is not a
    # normal float may leave no psi, and the batch rejects such a member:
    # its residual is the scalar path's.
    kept, own_hbar = [], []
    for spec, energies, point, _, hbar in members:
        pf = separate(spec, energies)
        try:
            w1, w2 = pf.w1_slope(point.q), pf.w2_slope
        except ForbiddenRegionError:
            continue  # W1 imaginary
        if w1 > 0.0 and w2 > 0.0 and w1 * w2 < np.finfo(float).tiny:
            assert abs(hj_residual(pf, point)) <= 1e-12
            continue
        valid = 0.0 < hbar < math.inf
        kept.append((spec, energies, point, FD_STEP, hbar if valid else 1.0))
        own_hbar.append(valid)
    if not kept:
        return
    columns = _batch(kept)
    assert np.all(np.abs(columns.hj_residual) <= 1e-12)
    normal = columns.wave & np.array(own_hbar)
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
    good = (example2(), EnergyPartition(1.0, 1.0), _POINT, 1e-4, 1.0)
    with pytest.raises(type(scalar.value), match=re.escape(str(scalar.value))):
        _batch([good, (*member, step, 1.0)])
