import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracwkb.errors import GammaPoleError, NonFiniteInputError
from fracwkb.fracops import (
    FractionalOrder,
    SampledFunction,
    TimeGrid,
    gamma,
    gl_weights,
    interior_mask,
    left_rl_derivative,
    right_rl_derivative,
    rl_power_rule,
    roundoff_floor,
)
from fracwkb.verification import observed_order_record, power_kernel_check


# ---------------------------------------------------------------- gamma

def test_gamma_against_libm():
    xs = np.linspace(0.1, 50.0, 2497)
    for x in xs:
        expected = math.gamma(x)
        assert abs(gamma(float(x)) - expected) <= 1e-12 * abs(expected)


def test_gamma_half_against_quadrature():
    # Gauss-Hermite weights integrate exp(-u**2) exactly, and the full
    # integral equals gamma(1/2); an oracle independent of libm's gamma.
    _, weights = np.polynomial.hermite.hermgauss(64)
    assert abs(gamma(0.5) - weights.sum()) < 1e-13


def test_gamma_small_integers():
    assert abs(gamma(1.0) - 1.0) < 1e-14
    assert abs(gamma(5.0) - 24.0) < 1e-12 * 24.0


def test_gamma_recurrence():
    for x in (0.3, 1.7, 6.4, 23.9):
        assert abs(gamma(x + 1.0) - x * gamma(x)) <= 1e-12 * abs(gamma(x + 1.0))


def test_gamma_negative_non_integer():
    for x in (-0.5, -2.5, -6.3):
        expected = math.gamma(x)
        assert abs(gamma(x) - expected) <= 1e-11 * abs(expected)


def test_gamma_poles():
    for x in (0.0, -1.0, -7.0):
        with pytest.raises(GammaPoleError):
            gamma(x)


def test_gamma_non_finite():
    with pytest.raises(NonFiniteInputError):
        gamma(math.inf)
    with pytest.raises(NonFiniteInputError):
        gamma(math.nan)


# ----------------------------------------------------------- gl_weights

def test_gl_weights_half_order():
    # w_j = w_{j-1} (1 - 1.5/j) evaluated by hand
    npt.assert_allclose(gl_weights(0.5, 3), [1.0, -0.5, -0.125, -0.0625], rtol=0, atol=0)


def test_gl_weights_integer_orders_truncate():
    npt.assert_array_equal(gl_weights(1.0, 3), [1.0, -1.0, 0.0, 0.0])
    npt.assert_array_equal(gl_weights(2.0, 4), [1.0, -2.0, 1.0, 0.0, 0.0])


def test_gl_weights_match_signed_binomials():
    # exact, not just close: the recurrence would round 1 - 4/3 here
    order = 3.0
    expected = [(-1.0) ** j * math.comb(3, j) for j in range(4)] + [0.0, 0.0]
    npt.assert_array_equal(gl_weights(order, 5), expected)


def test_gl_weights_order_zero_is_identity():
    weights = gl_weights(0.0, 8)
    assert weights[0] == 1.0
    npt.assert_array_equal(weights[1:], np.zeros(8))


# Within d of an integer (but off it) the recurrence factor
# 1 - (order + 1) / j cancels and costs the weights eps / d relative
# precision; 0.01 keeps that below the test's bound.
_WELL_SEPARATED_ORDERS = st.floats(0.0, 3.0).filter(
    lambda x: x.is_integer() or 0.01 <= x % 1.0 <= 0.99
) | st.integers(0, 3).map(float)


@given(a=_WELL_SEPARATED_ORDERS, b=_WELL_SEPARATED_ORDERS, n=st.integers(0, 200))
def test_gl_weights_are_binomial_series_coefficients(a, b, n):
    # w_j are the coefficients of (1 - z)**order, so the product of two
    # series is the series of the summed order; exact for integer orders
    wa, wb = gl_weights(a, n), gl_weights(b, n)
    product = np.convolve(wa, wb)[: n + 1]
    expected = gl_weights(a + b, n)
    if a.is_integer() and b.is_integer():
        npt.assert_array_equal(product, expected)
    else:
        bound = 1e-12 * np.convolve(np.abs(wa), np.abs(wb))[: n + 1]
        assert np.all(np.abs(product - expected) <= bound)


def test_gl_weights_validation():
    with pytest.raises(ValueError):
        gl_weights(-0.5, 4)
    with pytest.raises(ValueError):
        gl_weights(0.5, -1)


# ------------------------------------------------------ FractionalOrder

def test_order_ceiling_convention():
    # ceiling n satisfies n - 1 <= value < n, so integers round up
    assert FractionalOrder(0.5).ceiling == 1
    assert FractionalOrder(1.0).ceiling == 2
    assert FractionalOrder(1.5).ceiling == 2
    assert FractionalOrder(2.0).ceiling == 3
    assert FractionalOrder(2.3).ceiling == 3


def test_order_is_integer():
    assert FractionalOrder(2.0).is_integer
    assert not FractionalOrder(1.9).is_integer


def test_order_validation():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            FractionalOrder(bad)


# ------------------------------------------------------------- TimeGrid

def test_grid_step_and_nodes():
    grid = TimeGrid(0.0, 2.0, 4)
    assert grid.step == 0.5
    npt.assert_allclose(grid.nodes(), [0.0, 0.5, 1.0, 1.5, 2.0], rtol=0, atol=0)


def test_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0.0, 4)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, 1)
    with pytest.raises(ValueError):
        TimeGrid(0.0, math.inf, 4)


# ------------------------------------------------------ SampledFunction

def test_sampled_function_shape_check():
    grid = TimeGrid(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        SampledFunction(grid, np.zeros(4))


def test_sampled_function_rejects_non_finite():
    grid = TimeGrid(0.0, 1.0, 4)
    with pytest.raises(NonFiniteInputError):
        SampledFunction(grid, [0.0, 1.0, math.nan, 3.0, 4.0])


def test_sampled_function_from_callable():
    grid = TimeGrid(0.0, 1.0, 10)
    f = SampledFunction.from_callable(grid, lambda x: x**2)
    npt.assert_allclose(f.values, grid.nodes() ** 2, rtol=0, atol=0)


def test_sampled_function_values_read_only():
    grid = TimeGrid(0.0, 1.0, 4)
    f = SampledFunction(grid, np.zeros(5))
    with pytest.raises(ValueError):
        f.values[0] = 1.0


def test_divergent_mask_flags_overflow():
    # huge finite samples overflow once scaled by step**(-order)
    grid = TimeGrid(0.0, 1.0, 8)
    f = SampledFunction(grid, np.full(9, 1e308))
    d = left_rl_derivative(f, FractionalOrder(0.5))
    assert d.divergent_mask.any()
    with pytest.raises(NonFiniteInputError):
        left_rl_derivative(d, FractionalOrder(0.5))


# -------------------------------------------------------- rl_power_rule

def test_power_rule_frozen_values():
    # gamma(2)/gamma(1.5) = 2/sqrt(pi)
    assert abs(rl_power_rule(1, FractionalOrder(0.5), 1.0) - 1.1283791670955126) < 1e-14
    # gamma(1)/gamma(0.5) = 1/sqrt(pi)
    assert abs(rl_power_rule(0, FractionalOrder(0.5), 1.0) - 0.5641895835477563) < 1e-14
    # k = order: constant value gamma(k + 1)
    assert abs(rl_power_rule(0.5, FractionalOrder(0.5), 1.0) - math.gamma(1.5)) < 1e-14
    # ordinary derivative of x**2 at offset 3
    assert abs(rl_power_rule(2, FractionalOrder(1.0), 3.0) - 6.0) < 1e-13


def test_power_rule_gamma_pole_annihilates():
    assert rl_power_rule(1, FractionalOrder(2.0), 5.0) == 0.0
    assert rl_power_rule(0, FractionalOrder(1.0), 0.3) == 0.0


def test_power_rule_offset_zero():
    # exponent below the order diverges at the endpoint, above it vanishes
    assert rl_power_rule(0, FractionalOrder(0.5), 0.0) == math.inf
    assert rl_power_rule(2, FractionalOrder(0.5), 0.0) == 0.0
    assert abs(rl_power_rule(0.5, FractionalOrder(0.5), 0.0) - math.gamma(1.5)) < 1e-14


def test_power_rule_validation():
    with pytest.raises(ValueError):
        rl_power_rule(-1, FractionalOrder(0.5), 1.0)
    with pytest.raises(ValueError):
        rl_power_rule(1, FractionalOrder(0.5), -0.1)


@given(
    exponent=st.integers(0, 3) | st.floats(0.0, 4.0),
    order=st.floats(0.05, 4.5) | st.integers(1, 4).map(float),
    offsets=st.lists(st.just(0.0) | st.floats(0.0, 10.0), min_size=1, max_size=16),
)
def test_power_rule_array_matches_scalar_calls(exponent, order, offsets):
    order = FractionalOrder(order)
    values = rl_power_rule(exponent, order, np.array(offsets))
    assert values.shape == (len(offsets),)
    npt.assert_array_equal(values, [rl_power_rule(exponent, order, x) for x in offsets])


def test_power_rule_array_edge_cases():
    offsets = np.array([0.0, 0.5, 2.0])
    # gamma(-0.5) < 0 makes the ratio negative; the endpoint stays +inf
    values = rl_power_rule(0, FractionalOrder(1.5), offsets)
    assert values[0] == math.inf
    assert np.all(values[1:] < 0.0)
    # pole orders annihilate every node, the endpoint included
    for exponent, order in ((0, 1.0), (1, 2.0), (1, 3.0), (2, 3.0)):
        npt.assert_array_equal(rl_power_rule(exponent, FractionalOrder(order), offsets), 0.0)
    assert isinstance(rl_power_rule(1, FractionalOrder(0.5), 0.25), float)
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError):
            rl_power_rule(1, FractionalOrder(0.5), np.array([0.0, bad, 1.0]))


# --------------------------------------------------- left_rl_derivative

def _power_samples(grid: TimeGrid, k: int) -> SampledFunction:
    return SampledFunction(grid, (grid.nodes() - grid.a) ** k)


def _interior_error(k: int, alpha: float, count: int) -> float:
    grid = TimeGrid(0.0, 1.0, count)
    order = FractionalOrder(alpha)
    numeric = left_rl_derivative(_power_samples(grid, k), order).values
    nodes = grid.nodes()
    oracle = np.array([rl_power_rule(k, order, x) for x in nodes])
    mask = interior_mask(grid)
    return float(np.max(np.abs(numeric[mask] - oracle[mask])))


def test_left_derivative_linear_half_order():
    assert _interior_error(1, 0.5, 1024) < 1e-3


def test_left_derivative_above_one():
    assert _interior_error(2, 1.5, 1024) < 3e-3


def test_left_derivative_order_one_is_backward_difference():
    grid = TimeGrid(0.0, 1.0, 256)
    numeric = left_rl_derivative(_power_samples(grid, 1), FractionalOrder(1.0)).values
    npt.assert_allclose(numeric[1:], np.ones(256), rtol=0, atol=1e-12)


def test_left_derivative_order_two_exact_on_parabola():
    # shifted stencil reduces to the central second difference, which
    # is exact for x**2 away from the first node
    grid = TimeGrid(0.0, 1.0, 128)
    numeric = left_rl_derivative(_power_samples(grid, 2), FractionalOrder(2.0)).values
    npt.assert_allclose(numeric[1:], np.full(128, 2.0), rtol=0, atol=1e-8)


def test_left_derivative_convergence_order():
    coarse = _interior_error(2, 0.75, 512)
    fine = _interior_error(2, 0.75, 2048)
    order = math.log(coarse / fine) / math.log(4.0)
    assert order >= 0.8


def test_left_derivative_linearity():
    rng = np.random.default_rng(42)
    grid = TimeGrid(0.0, 1.0, 256)
    f = SampledFunction(grid, rng.standard_normal(257))
    g = SampledFunction(grid, rng.standard_normal(257))
    combo = SampledFunction(grid, 2.5 * f.values + g.values)
    order = FractionalOrder(0.7)
    lhs = left_rl_derivative(combo, order).values
    rhs = 2.5 * left_rl_derivative(f, order).values + left_rl_derivative(g, order).values
    npt.assert_allclose(lhs, rhs, rtol=1e-11, atol=1e-9)


# -------------------------------------------------- right_rl_derivative

def test_right_is_mirror_of_left():
    rng = np.random.default_rng(7)
    order = FractionalOrder(1.3)
    for count in (200, 2048):
        grid = TimeGrid(0.0, 1.0, count)
        values = rng.standard_normal(count + 1)
        mirrored = left_rl_derivative(SampledFunction(grid, values[::-1]), order).values[::-1]
        direct = right_rl_derivative(SampledFunction(grid, values), order).values
        npt.assert_array_equal(direct, mirrored)


def test_right_derivative_of_linear():
    # the mirrored backward difference is exact for linear samples, so
    # every node except the clamped endpoint x = b gives exactly -1
    grid = TimeGrid(0.0, 1.0, 512)
    numeric = right_rl_derivative(SampledFunction(grid, grid.nodes()), FractionalOrder(1.0)).values
    npt.assert_allclose(numeric[:-1], -np.ones(512), rtol=0, atol=1e-12)


def test_right_derivative_of_constant_half_order():
    grid = TimeGrid(0.0, 1.0, 4096)
    numeric = right_rl_derivative(
        SampledFunction(grid, np.ones(4097)), FractionalOrder(0.5)
    ).values
    oracle = rl_power_rule(0, FractionalOrder(0.5), 1.0)
    assert abs(numeric[0] - oracle) < 1e-3
    # at x = b the true derivative diverges; the sample stays finite but large
    assert numeric[-1] > 10.0


# ------------------------------------------------- FFT against direct sum

def _direct_gl_sum(values, order, step):
    # the plain O(N**2) Grunwald-Letnikov sum, independent of the kernel
    # code: the reference the FFT product is held to
    top = len(values) - 1
    shift = 1 if order > 1.0 else 0
    full = np.convolve(gl_weights(order, top + shift), values)
    result = full[shift : top + 1 + shift].copy()
    result[top] = full[top]  # the clamped endpoint drops the shift
    return result * step**-order


@settings(max_examples=30, deadline=None)
@given(
    order=st.floats(0.01, 1.99).filter(lambda a: not a.is_integer()),
    side=st.sampled_from(["left", "right"]),
    count=st.sampled_from([1024, 4096, 8192]) | st.integers(2, 8192),
    exponent=st.sampled_from([1, 2, 3]),
)
def test_fft_sum_matches_direct_sum(order, side, count, exponent):
    # The FFT product must stay within 1e-2 of the kernel's
    # discretization error, on the verify grids too, so no verify
    # record moves by more.  Where the discretization error sinks to
    # roundoff (orders near 1 for x, near 2 for every power) the direct
    # sum's own rounding sets the difference, measured at up to 8.4x
    # the floor over 7,600 draws; there the bound is 16x the floor.
    grid = TimeGrid(0.0, 1.0, count)
    order = FractionalOrder(order)
    fast, oracle, _ = power_kernel_check(grid, exponent, order, side)
    if side == "left":
        direct = _direct_gl_sum((grid.nodes() - grid.a) ** exponent, order.value, grid.step)
    else:
        samples = (grid.b - grid.nodes()) ** exponent
        direct = _direct_gl_sum(samples[::-1], order.value, grid.step)[::-1]
    # every node: a short FFT length would alias the endpoint region
    difference = np.max(np.abs(fast - direct))
    discretization = np.max(np.abs(direct - oracle)[interior_mask(grid)])
    floor = roundoff_floor(order, grid, 1.0)
    assert difference <= max(1e-2 * discretization, 16.0 * floor)


@settings(max_examples=20, deadline=None)
@given(
    order=st.sampled_from([1, 2, 3]),
    side=st.sampled_from(["left", "right"]),
    count=st.integers(1024, 3072),
    seed=st.integers(0, 2**32 - 1),
)
def test_integer_orders_keep_exact_direct_sum(order, side, count, seed):
    # Integer samples on a unit step: every partial sum of the binomial
    # stencil is an exact integer, so the result must equal the integer
    # convolution bit for bit.  An FFT would spread roundoff over every
    # node; dropping a nonzero weight would show too.
    grid = TimeGrid(0.0, float(count), count)
    samples = np.random.default_rng(seed).integers(-(2**20), 2**20, count + 1)
    shift = 1 if order > 1 else 0
    row = [(-1) ** j * math.comb(order, j) for j in range(order + 1)]
    full = np.convolve(row, samples if side == "left" else samples[::-1])
    expected = full[shift : count + 1 + shift].astype(float)
    expected[count] = full[count]  # the clamped endpoint drops the shift
    if side == "right":
        expected = expected[::-1]
    derivative = left_rl_derivative if side == "left" else right_rl_derivative
    numeric = derivative(SampledFunction(grid, samples.astype(float)), FractionalOrder(order))
    npt.assert_array_equal(numeric.values, expected)


def test_observed_order_gates_errors_above_twice_the_floor():
    coarse, fine = TimeGrid(0.0, 1.0, 64), TimeGrid(0.0, 1.0, 256)
    order = FractionalOrder(0.5)
    floor = roundoff_floor(order, fine, 1.0)
    # errors far above the floor that barely shrink: a gated FAIL
    record = observed_order_record("order", 1, order, (coarse, 1e-3), (fine, 9e-4), 0.2)
    assert record.tolerance == 0.2 and not record.passed
    # just above twice the floor the ratio still gates
    record = observed_order_record("order", 1, order, (coarse, 1e-3), (fine, 2.01 * floor), 0.2)
    assert record.tolerance == 0.2
    # at twice the floor the fine error may be half rounding: no order
    record = observed_order_record("order", 1, order, (coarse, 1e-3), (fine, 2.0 * floor), 0.2)
    assert math.isnan(record.numeric) and record.passed


# -------------------------------------------------------- interior_mask

def test_interior_mask_margins():
    # dyadic grid so the margin comparisons are exact
    grid = TimeGrid(0.0, 1.0, 8)
    mask = interior_mask(grid)
    npt.assert_array_equal(mask, [False] + [True] * 7 + [False])

