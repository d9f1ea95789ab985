
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fracwkb import wkb
from fracwkb.errors import ForbiddenRegionError, NonpositiveMomentumError, StepTooLargeError
from fracwkb.fracops import FractionalOrder
from fracwkb.hamilton_jacobi import (
    EnergyColumns,
    EnergyPartition,
    PointColumns,
    PrincipalFunction,
    TransformedPoint,
    evaluate_S,
    hj_residual,
    momenta_from_S,
    separate,
)
from fracwkb.mechanics import FamilyColumns, LagrangianSpec, MomentumColumns, example1, example2
from fracwkb.reporting import RecordBatch
from fracwkb.verification import DEFAULT_TOLERANCES
from fracwkb.wkb import (
    FD_STEP,
    SAMPLE_POINT,
    ModelColumns,
    WaveField,
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


@st.composite
def _plane_wave(draw):
    """A member with positive energies, at a point anywhere on the draws'
    ranges; its phase S / hbar reaches tens of radians."""
    spec = LagrangianSpec(
        draw(_floats(0.2, 5.0)), draw(_floats(0.2, 5.0)), draw(_floats(-2.0, 2.0)),
        draw(_floats(-2.0, 2.0)), draw(_floats(-1.0, 2.0)),
        FractionalOrder(1.5), FractionalOrder(1.5),
    )
    energies = EnergyPartition(draw(_floats(0.1, 4.0)), draw(_floats(0.1, 4.0)))
    u1, u2, t = (draw(_floats(-3.0, 3.0)) for _ in range(3))
    return spec, energies, TransformedPoint(u1, u2, t, draw(_floats(-2.0, 2.0)))


@settings(max_examples=200, deadline=None)
@given(member=_plane_wave())
def test_stencil_sits_within_rounding_of_its_discrete_eigenvalues(member):
    # psi is a plane wave in (u1, u2): with theta = W h / hbar, the first
    # difference's exact eigenvalue is hbar sin(theta) / h and the second's
    # (2 hbar / h)**2 sin(theta / 2)**2.  The scalar operators and the
    # batch columns sit within the row's rounding budget: per psi value
    # u (1 + 3 M / hbar), M the summed magnitude of S's three terms, times hbar / h
    # for a momentum and 2 (hbar / h)**2 (1 / c_alpha + 1 / c_beta) for
    # the energy.
    spec, energies, point = member
    h, hbar = FD_STEP, 1.0
    wf = WaveField(PrincipalFunction(spec, energies), hbar)
    try:
        scalar = [
            apply_momentum(wf, "alpha", point, h), apply_momentum(wf, "beta", point, h),
            apply_hamiltonian(wf, point, h),
        ]
    except ValueError:  # a negative W1 radicand or a momentum not positive
        assume(False)
    w1, w2 = momenta_from_S(wf.pf, point)
    momenta = [hbar * math.sin(w * h / hbar) / h for w in (w1, w2)]
    squares = [(2.0 * hbar / h) ** 2 * math.sin(w * h / hbar / 2.0) ** 2 for w in (w1, w2)]
    branches = zip(squares, momenta, (spec.l_alpha, spec.l_beta), (spec.c_alpha, spec.c_beta))
    energy = sum((k - 2.0 * l * p + l * l) / (2.0 * c) for k, p, l, c in branches)
    energy -= spec.v * point.q * point.q / 2.0
    magnitude = abs(w1 * point.u1) + abs(w2 * point.u2) + abs(energies.total * point.t)
    per_value = 2.0**-53 * (1.0 + 3.0 * magnitude / hbar)
    budgets = [per_value * hbar / h] * 2
    budgets.append(2.0 * per_value * (hbar / h) ** 2 * (1.0 / spec.c_alpha + 1.0 / spec.c_beta))
    columns = evaluate_models(_family([spec]), *energies, *point, h, hbar)
    batch = [columns.p_alpha[0], columns.p_beta[0], columns.energy[0]]
    for estimate, row, target, budget in zip(scalar, batch, [*momenta, energy], budgets):
        assert abs(estimate.real - target) <= budget
        assert abs(row - target) <= budget


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


def test_float_operators_check_their_own_steps_first():
    point = TransformedPoint(*SAMPLE_POINT, 0.0)
    # momenta 1 and 4: the beta step alone is past the phase guard
    wf = _wave(example1(), 0.5, 8.0)
    assert abs(apply_momentum(wf, "alpha", point, 0.03) - 1.0) <= 1e-3
    with pytest.raises(StepTooLargeError, match=r" at momentum 4\.0; "):
        apply_hamiltonian(wf, point, 0.03)
    # momenta 1e-313 and 1e4: the momentum product underflows, and the
    # beta step is past the guard; apply_momentum checks the alpha step
    # only, so psi's prefactor raises
    spec = LagrangianSpec(1.0, 1.0, 1e-313, 1e4, 0.0, FractionalOrder(1.5), FractionalOrder(1.5))
    wf = _wave(spec, 0.0, 0.0)
    with pytest.raises(StepTooLargeError, match=r" at momentum 10000\.0; "):
        apply_hamiltonian(wf, point, 1e-4)
    with pytest.raises(ValueError, match=r"^prefactor undefined: momentum product "):
        apply_momentum(wf, "alpha", point, 1e-4)


def test_a_shifted_point_off_the_float_range_and_an_undefined_prefactor():
    # the steps pass the guard, the momentum product underflows to 0 and
    # u1 + h overflows: apply_momentum builds the shifted point first,
    # apply_hamiltonian checks psi's prefactor first
    spec = LagrangianSpec(1.0, 1.0, 1e-300, 1e-300, 0.0, FractionalOrder(1.5), FractionalOrder(1.5))
    wf = _wave(spec, 0.0, 0.0)
    point = TransformedPoint(1.7976931348623157e308, 0.0, 0.0)
    with pytest.raises(ValueError, match=r"^u1 must be finite$"):
        apply_momentum(wf, "alpha", point, 5e298)
    with pytest.raises(ValueError, match=r"^prefactor undefined: momentum product .* = 0\.0 "):
        apply_hamiltonian(wf, point, 5e298)


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


def _family(specs) -> FamilyColumns:
    return FamilyColumns(*np.array([[*s[:5], s.alpha.value, s.beta.value] for s in specs]).T)


def _batch(members) -> ModelColumns:
    specs, energies, points, steps, hbars = zip(*members)
    return evaluate_models(
        _family(specs), [e.e1 for e in energies], [e.e2 for e in energies],
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
        _assert_row_is(columns, i, reference)


def _same_bits(got, want) -> bool:
    got, want = np.float64(got), np.float64(want)
    return got.tobytes() == want.tobytes() or bool(np.isnan(got) and np.isnan(want))


def _parts(psi):
    return psi.real, psi.imag


@settings(max_examples=60, deadline=None)
@given(members=st.lists(_member() | _member(small_point=False), min_size=1, max_size=30))
def test_model_functions_on_columns_equal_the_float_calls(members):
    # The same functions on columns (FamilyColumns, EnergyColumns,
    # PointColumns, an hbar array) give, row by row, the float call's
    # value bit for bit wherever the float call returns one, and raise
    # nothing on the rows where it raises.
    specs, energies, points, _, hbars = zip(*members)
    pf = PrincipalFunction(_family(specs), EnergyColumns(*np.array(energies).T))
    batch = PointColumns(*np.array(points).T)
    with np.errstate(all="ignore"):
        columns = {
            "momenta": momenta_from_S(pf, batch),
            "S": [evaluate_S(pf, batch)],
            "residual": [hj_residual(pf, batch)],
            "psi": _parts(WaveField(pf, np.array(hbars)).value(batch)),
        }
    assert type(columns["momenta"]) is MomentumColumns
    for i, (spec, energy, point, _, hbar) in enumerate(members):
        row_pf = PrincipalFunction(spec, energy)
        calls = {
            "momenta": lambda: momenta_from_S(row_pf, point),
            "S": lambda: [evaluate_S(row_pf, point)],
            "residual": lambda: [hj_residual(row_pf, point)],
            "psi": lambda: _parts(WaveField(row_pf, hbar).value(point)),
        }
        for name, call in calls.items():
            try:
                with np.errstate(all="ignore"):
                    values = call()
            except (ValueError, ArithmeticError):
                continue
            for column, value in zip(columns[name], values, strict=True):
                assert _same_bits(column[i], value), name

    # The operators and the probability law take a column call wherever
    # exactly one of pf, point and hbar is columns, the other two the
    # floats of one fixed valid member, at one step that passes the
    # phase guard on some rows only.
    operators = {
        "p_alpha": lambda wf, point, h: _parts(apply_momentum(wf, "alpha", point, h)),
        "p_beta": lambda wf, point, h: _parts(apply_momentum(wf, "beta", point, h)),
        "energy": lambda wf, point, h: _parts(apply_hamiltonian(wf, point, h)),
        "probability": lambda wf, point, h: [probability_density(wf, point)],
    }
    shared = (separate(example2(), EnergyPartition(1.0, 0.5)), _POINT, 1.0)
    step = 0.02
    for k, column_arg in enumerate((pf, batch, np.array(hbars))):
        args = [*shared[:k], column_arg, *shared[k + 1:]]
        with np.errstate(all="ignore"):
            wf = WaveField(args[0], args[2])
            columns = {name: op(wf, args[1], step) for name, op in operators.items()}
        for i, (spec, energy, point, _, hbar) in enumerate(members):
            row = [*shared[:k], (PrincipalFunction(spec, energy), point, hbar)[k], *shared[k + 1:]]
            for name, op in operators.items():
                try:
                    with np.errstate(all="ignore"):
                        values = op(WaveField(row[0], row[2]), row[1], step)
                except (ValueError, ArithmeticError):
                    continue
                for column, value in zip(columns[name], values, strict=True):
                    assert _same_bits(column[i], value), (name, k)


def test_a_batch_evaluates_psi_on_one_five_point_stencil(monkeypatch):
    # evaluate_models evaluates psi once at each of the five stencil
    # points and once for the probability law; evaluate_model, the
    # scalar reference, goes through the public operators instead
    calls = []
    for name in ("apply_momentum", "apply_hamiltonian"):
        monkeypatch.setattr(wkb, name, _counted(getattr(wkb, name), name, calls))
    monkeypatch.setattr(WaveField, "value", _counted(WaveField.value, "value", calls))
    member = (example2(), EnergyPartition(1.0, 0.5), _POINT, 1e-4, 1.0)
    _batch([member] * 3)
    assert calls == ["value"] * 6
    calls.clear()
    evaluate_model(*member)
    assert [c for c in calls if c != "value"] == ["apply_momentum"] * 2 + ["apply_hamiltonian"]


def _counted(fn, name, calls):
    def wrapper(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    return wrapper


def _assert_row_is(columns, i, reference):
    for name in ModelColumns._fields[:-1]:
        assert _same_bits(getattr(columns, name)[i], getattr(reference, name)), name
    assert columns.wave[i] == reference.wave


_S_AT = "S must be finite, got {} at e1 + e2 = {}, u1 = {}, u2 = -0.015, t = {}"


@pytest.mark.parametrize(
    "member, message",
    [
        (
            (example2(), EnergyPartition(1.0, 1.0), TransformedPoint(1e308, -0.015, 0.0), 1e-4,
             1.0),
            _S_AT.format("inf", 2.0, 1e308, 0.0),
        ),
        (
            (example2(), EnergyPartition(1.0, 1.0), TransformedPoint(0.02, -0.015, 1e308), 1e-4,
             1.0),
            _S_AT.format("-inf", 2.0, 0.02, 1e308),
        ),
        # e1 + e2 overflows under finite slopes, as sweep can make it
        (
            (
                LagrangianSpec(1.0, 0.25, 0.0, 0.0, 0.0, FractionalOrder(1.5),
                               FractionalOrder(1.5)),
                EnergyPartition(8e307, 1.7e308), TransformedPoint(0.02, -0.015, 0.005), 1e-4,
                1e300,
            ),
            _S_AT.format("-inf", "inf", 0.02, 0.005),
        ),
    ],
    ids=["member0", "member1", "member2"],
)
def test_batch_wave_is_the_scalar_wave_where_S_overflows(member, message):
    # both slopes are finite and positive, but S overflows: the scalar
    # path rejects the member, naming S and the settings behind it, and
    # the batch, which flags the row and reruns it, raises the same error
    for evaluate in (evaluate_model, lambda *row: _batch([row])):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            evaluate(*member)


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
