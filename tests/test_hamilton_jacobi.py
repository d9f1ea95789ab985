import math

import numpy as np
import pytest

from fracwkb.errors import ForbiddenRegionError, ZeroEnergyError
from fracwkb.hamilton_jacobi import (
    EnergyPartition,
    PrincipalFunction,
    TransformedPoint,
    evaluate_S,
    hj_residual,
    lambda_constants,
    momenta_from_S,
    separate,
)
from fracwkb.mechanics import LagrangianSpec, example1, example2
from fracwkb.fracops import FractionalOrder

from conftest import random_spec


def test_energy_partition():
    part = EnergyPartition(1.5, 0.25)
    assert part.total == 1.75
    with pytest.raises(ValueError):
        EnergyPartition(-0.1, 1.0)
    with pytest.raises(ValueError):
        EnergyPartition(1.0, math.nan)


def test_transformed_point_validation():
    point = TransformedPoint(1.0, 2.0, 3.0)
    assert point.q == 0.0
    with pytest.raises(ValueError):
        TransformedPoint(math.inf, 0.0, 0.0)


def test_separate_returns_bound_instance():
    pf = separate(example1(), EnergyPartition(1.0, 1.0))
    assert isinstance(pf, PrincipalFunction)
    assert pf.spec is example1() or pf.spec == example1()


def test_slopes_closed_form():
    # free model: slope1 = sqrt(2 e1), no q dependence
    pf = separate(example1(), EnergyPartition(2.0, 0.5))
    assert pf.w1_slope(0.0) == math.sqrt(4.0)
    assert pf.w1_slope(3.0) == math.sqrt(4.0)
    assert pf.w2_slope == 1.0
    # driven model: slope1 = 1 + sqrt(q**2 + 2 e1)
    pf2 = separate(example2(), EnergyPartition(2.0, 2.0))
    assert pf2.w1_slope(0.0) == 1.0 + 2.0
    assert pf2.w1_slope(1.0) == 1.0 + math.sqrt(5.0)
    assert pf2.w2_slope == 3.0


def test_evaluate_S_frozen_values():
    # free model, e1 = e2 = 1, unit point: S = sqrt(2) + sqrt(2) - 2
    pf = separate(example1(), EnergyPartition(1.0, 1.0))
    value = evaluate_S(pf, TransformedPoint(1.0, 1.0, 1.0))
    assert abs(value - (2.0 * math.sqrt(2.0) - 2.0)) <= 1e-15
    # driven model, e1 = 4, e2 = 0 contributes only the drive term
    pf2 = separate(example2(), EnergyPartition(4.0, 0.0))
    value2 = evaluate_S(pf2, TransformedPoint(2.0, 0.0, 0.0, 3.0))
    assert value2 == 2.0 * (math.sqrt(17.0) + 1.0)


def test_momenta_from_S_values():
    pf = separate(example1(), EnergyPartition(2.0, 2.0))
    momenta = momenta_from_S(pf, TransformedPoint(0.0, 0.0, 0.0))
    assert momenta.p_alpha == 2.0
    assert momenta.p_beta == 2.0


def test_slopes_match_finite_differences():
    # d S / d u1 and d S / d u2 recover the closed-form slopes
    rng = np.random.default_rng(21)
    h = 1e-5
    for _ in range(50):
        spec = random_spec(rng)
        energies = EnergyPartition(rng.uniform(0.1, 4.0), rng.uniform(0.1, 4.0))
        pf = separate(spec, energies)
        q = rng.uniform(-2.0, 2.0)
        if spec.v * q * q + 2.0 * energies.e1 <= 0.0:
            continue
        point = TransformedPoint(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0), 0.0, q)
        up1 = TransformedPoint(point.u1 + h, point.u2, point.t, q)
        dn1 = TransformedPoint(point.u1 - h, point.u2, point.t, q)
        up2 = TransformedPoint(point.u1, point.u2 + h, point.t, q)
        dn2 = TransformedPoint(point.u1, point.u2 - h, point.t, q)
        fd1 = (evaluate_S(pf, up1) - evaluate_S(pf, dn1)) / (2.0 * h)
        fd2 = (evaluate_S(pf, up2) - evaluate_S(pf, dn2)) / (2.0 * h)
        assert abs(fd1 - pf.w1_slope(q)) < 1e-8
        assert abs(fd2 - pf.w2_slope) < 1e-8


def test_lambda_constants_values():
    # free model, e1 = e2 = 2: lambda1 = u1 / 2, lambda2 = u2 / 2
    pf = separate(example1(), EnergyPartition(2.0, 2.0))
    lam1, lam2 = lambda_constants(pf, TransformedPoint(2.0, 2.0, 0.0))
    assert lam1 == 1.0
    assert lam2 == 1.0
    lam1, lam2 = lambda_constants(pf, TransformedPoint(0.0, 6.0, 5.0))
    assert lam1 == 0.0
    assert lam2 == 3.0


def test_lambda_constants_match_finite_differences():
    # lambda_i = d W_i / d e_i via central differences of the S parts
    rng = np.random.default_rng(22)
    h = 1e-6
    for _ in range(50):
        spec = random_spec(rng)
        energies = EnergyPartition(rng.uniform(0.2, 4.0), rng.uniform(0.2, 4.0))
        q = rng.uniform(-2.0, 2.0)
        if spec.v * q * q + 2.0 * (energies.e1 - h) <= 0.0:
            continue
        point = TransformedPoint(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0), 0.0, q)
        pf = separate(spec, energies)
        lam1, lam2 = lambda_constants(pf, point)

        def w_parts(e1, e2):
            other = separate(spec, EnergyPartition(e1, e2))
            return (
                other.w1_slope(q) * point.u1,
                other.w2_slope * point.u2,
            )

        w1_up, _ = w_parts(energies.e1 + h, energies.e2)
        w1_dn, _ = w_parts(energies.e1 - h, energies.e2)
        _, w2_up = w_parts(energies.e1, energies.e2 + h)
        _, w2_dn = w_parts(energies.e1, energies.e2 - h)
        assert abs(lam1 - (w1_up - w1_dn) / (2.0 * h)) < 1e-6
        assert abs(lam2 - (w2_up - w2_dn) / (2.0 * h)) < 1e-6


def test_lambda_constants_zero_energy():
    with pytest.raises(ZeroEnergyError):
        lambda_constants(
            separate(example1(), EnergyPartition(0.0, 1.0)), TransformedPoint(1.0, 1.0, 0.0)
        )
    with pytest.raises(ZeroEnergyError):
        lambda_constants(
            separate(example1(), EnergyPartition(1.0, 0.0)), TransformedPoint(1.0, 1.0, 0.0)
        )
    # radicand exactly zero: v = -1, q = 1, e1 = 0.5 gives -1 + 1 = 0
    spec = LagrangianSpec(
        1.0, 1.0, 0.0, 0.0, -1.0, FractionalOrder(1.5), FractionalOrder(1.5)
    )
    pf = separate(spec, EnergyPartition(0.5, 1.0))
    with pytest.raises(ZeroEnergyError):
        lambda_constants(pf, TransformedPoint(1.0, 1.0, 0.0, 1.0))


def test_forbidden_region():
    # v = -1, q = 2, e1 = 0.1: radicand = -4 + 0.2 < 0
    spec = LagrangianSpec(
        1.0, 1.0, 0.0, 0.0, -1.0, FractionalOrder(1.5), FractionalOrder(1.5)
    )
    pf = separate(spec, EnergyPartition(0.1, 1.0))
    point = TransformedPoint(1.0, 1.0, 0.0, 2.0)
    with pytest.raises(ForbiddenRegionError):
        pf.w1_slope(2.0)
    with pytest.raises(ForbiddenRegionError):
        evaluate_S(pf, point)
    with pytest.raises(ForbiddenRegionError):
        momenta_from_S(pf, point)
    with pytest.raises(ForbiddenRegionError):
        hj_residual(pf, point)
    with pytest.raises(ForbiddenRegionError, match=r"W1 slope imaginary at q=2\.0"):
        lambda_constants(pf, point)


def test_hj_residual_frozen_values():
    # free model: slopes are exact roots, residual is identically zero
    pf = separate(example1(), EnergyPartition(2.0, 0.5))
    assert hj_residual(pf, TransformedPoint(1.0, -2.0, 0.5)) == 0.0
    pf2 = separate(example2(), EnergyPartition(1.0, 1.0))
    assert abs(hj_residual(pf2, TransformedPoint(1.0, 1.0, 0.0, 2.0))) <= 1e-13
    pf3 = separate(example2(), EnergyPartition(0.0, 0.0))
    assert hj_residual(pf3, TransformedPoint(1.0, 1.0, 0.0)) == 0.0


def test_hj_residual_property():
    # the separated solution satisfies H(q, dS) = E across the family
    rng = np.random.default_rng(23)
    checked = 0
    while checked < 300:
        spec = random_spec(rng)
        energies = EnergyPartition(rng.uniform(0.0, 4.0), rng.uniform(0.0, 4.0))
        q = rng.uniform(-2.0, 2.0)
        if spec.v * q * q + 2.0 * energies.e1 < 0.0:
            continue
        pf = separate(spec, energies)
        point = TransformedPoint(
            rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0), rng.uniform(-2.0, 2.0), q
        )
        assert abs(hj_residual(pf, point)) <= 1e-12
        checked += 1
