import math

import numpy as np
import pytest

from fracwkb.fracops import (
    FractionalOrder,
    TimeGrid,
    left_rl_derivative,
    rl_power_rule,
)
from fracwkb.mechanics import (
    KinematicState,
    LagrangianSpec,
    Momenta,
    canonical_momenta,
    example1,
    example2,
    hamilton_rhs,
    legendre_transform,
)

from conftest import random_spec


def test_presets():
    ex1 = example1()
    assert (ex1.c_alpha, ex1.c_beta, ex1.l_alpha, ex1.l_beta, ex1.v) == (1.0, 1.0, 0.0, 0.0, 0.0)
    ex2 = example2(1.25, 1.75)
    assert (ex2.c_alpha, ex2.c_beta, ex2.l_alpha, ex2.l_beta, ex2.v) == (1.0, 1.0, 1.0, 1.0, 1.0)
    assert ex2.alpha.value == 1.25
    assert ex2.beta.value == 1.75


def test_spec_validation():
    with pytest.raises(ValueError):
        example1(0.9, 1.5)
    with pytest.raises(ValueError):
        LagrangianSpec(0.0, 1.0, 0.0, 0.0, 0.0, FractionalOrder(1.5), FractionalOrder(1.5))
    with pytest.raises(ValueError):
        LagrangianSpec(1.0, 1.0, math.nan, 0.0, 0.0, FractionalOrder(1.5), FractionalOrder(1.5))


def test_state_and_momenta_validation():
    with pytest.raises(ValueError):
        KinematicState(math.inf, 0.0, 0.0)
    with pytest.raises(ValueError):
        Momenta(0.0, math.nan)


def test_canonical_momenta_values():
    # free model: p equals the velocity
    assert canonical_momenta(example1(), KinematicState(0.5, 3.0, -1.0)) == Momenta(3.0, -1.0)
    # driven model: unit drive shifts p by one
    assert canonical_momenta(example2(), KinematicState(0.0, 0.0, 0.0)) == Momenta(1.0, 1.0)
    assert canonical_momenta(example2(), KinematicState(0.0, 1.0, 2.0)) == Momenta(2.0, 3.0)


def test_legendre_transform_values():
    # driven model at rest: kinetic terms vanish with the drive removed
    assert legendre_transform(example2(), Momenta(1.0, 1.0), 0.0) == 0.0
    # free model: H = p_alpha**2 / 2
    assert legendre_transform(example1(), Momenta(2.0, 0.0), 0.0) == 2.0
    # driven model: (3-1)**2/2 + 0 - 4/2 = 0
    assert legendre_transform(example2(), Momenta(3.0, 1.0), 2.0) == 0.0


def test_hamilton_rhs_values():
    assert hamilton_rhs(example1(), Momenta(2.0, 0.5), 0.0).d_p_alpha == 2.0
    assert hamilton_rhs(example2(), Momenta(3.0, 1.0), 0.0).d_p_alpha == 2.0
    assert hamilton_rhs(example2(), Momenta(1.0, 1.0), 5.0).d_q == -5.0


def test_momenta_velocity_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(200):
        spec = random_spec(rng)
        state = KinematicState(
            rng.uniform(-2.0, 2.0), rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
        )
        momenta = canonical_momenta(spec, state)
        rhs = hamilton_rhs(spec, momenta, state.q)
        assert abs(rhs.d_p_alpha - state.d_alpha_q) <= 1e-12 * max(1.0, abs(state.d_alpha_q))
        assert abs(rhs.d_p_beta - state.d_beta_q) <= 1e-12 * max(1.0, abs(state.d_beta_q))


def test_legendre_consistency():
    # H = p . velocity - L whenever p comes from the same state
    rng = np.random.default_rng(12)
    for _ in range(200):
        spec = random_spec(rng)
        state = KinematicState(
            rng.uniform(-2.0, 2.0), rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
        )
        momenta = canonical_momenta(spec, state)
        direct = legendre_transform(spec, momenta, state.q)
        assembled = (
            momenta.p_alpha * state.d_alpha_q
            + momenta.p_beta * state.d_beta_q
            - spec.lagrangian(state)
        )
        assert abs(direct - assembled) <= 1e-10 * max(1.0, abs(direct))


def test_hamilton_rhs_matches_finite_differences():
    rng = np.random.default_rng(13)
    h = 1e-5
    for _ in range(50):
        spec = random_spec(rng)
        momenta = Momenta(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
        q = rng.uniform(-2.0, 2.0)
        rhs = hamilton_rhs(spec, momenta, q)
        fd_alpha = (
            legendre_transform(spec, Momenta(momenta.p_alpha + h, momenta.p_beta), q)
            - legendre_transform(spec, Momenta(momenta.p_alpha - h, momenta.p_beta), q)
        ) / (2.0 * h)
        fd_beta = (
            legendre_transform(spec, Momenta(momenta.p_alpha, momenta.p_beta + h), q)
            - legendre_transform(spec, Momenta(momenta.p_alpha, momenta.p_beta - h), q)
        ) / (2.0 * h)
        fd_q = (
            legendre_transform(spec, momenta, q + h)
            - legendre_transform(spec, momenta, q - h)
        ) / (2.0 * h)
        assert abs(rhs.d_p_alpha - fd_alpha) < 1e-8
        assert abs(rhs.d_p_beta - fd_beta) < 1e-8
        assert abs(rhs.d_q - fd_q) < 1e-8


@pytest.mark.parametrize(
    "state, name, value",
    [
        (KinematicState(1.0, 1.0, 1e200), "d_beta_q", "1e+200"),
        (KinematicState(1.0, -2e154, 1.0), "d_alpha_q", "-2e+154"),
        (KinematicState(1e300, 1.0, 1.0), "q", "1e+300"),
    ],
)
def test_lagrangian_overflow_names_the_quantity(state, name, value):
    with pytest.raises(ValueError) as info:
        example2().lagrangian(state)
    assert str(info.value) == f"{name}**2 overflows a float at {name} = {value}"


def test_lagrangian_value():
    # all five terms contribute 0.5, 0.5, 1, 1, 0.5
    assert example2().lagrangian(KinematicState(1.0, 1.0, 1.0)) == 3.5


def test_classical_orders_allowed():
    spec = example1(1.0, 1.0)
    assert spec.alpha.value == 1.0
    assert canonical_momenta(spec, KinematicState(0.0, 1.5, 0.0)).p_alpha == 1.5


def test_momenta_from_sampled_velocity():
    # velocity from the kernel feeds the momentum map: p at an interior
    # node matches c * (closed-form derivative) + l within kernel error
    grid = TimeGrid(0.0, 1.0, 2048)
    order = FractionalOrder(1.25)
    q_samples = grid.nodes() ** 2
    d_alpha_q = left_rl_derivative(grid, q_samples, order)
    node = 1536  # x = 0.75
    state = KinematicState(q_samples[node], d_alpha_q[node], 0.0)
    momenta = canonical_momenta(example2(1.25, 1.25), state)
    expected = 1.0 * rl_power_rule(2, order, 0.75) + 1.0
    assert abs(momenta.p_alpha - expected) < 2e-3
