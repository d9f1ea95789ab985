import math
import re
from fractions import Fraction
from itertools import product

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracwkb.errors import NonFiniteInputError
from fracwkb.fracops import (
    _fft_length,
    _gl_sums,
    FractionalOrder,
    TimeGrid,
    gl_weights,
    interior,
    left_rl_derivative,
    right_rl_derivative,
    rl_derivative,
    rl_power_rule,
    roundoff_floor,
)
from fracwkb.reporting import RecordBatch
from fracwkb.verification import observed_order_record, power_kernel_check


# ----------------------------------------------------------- gl_weights

def test_gl_weights_half_order():
    # w_j = w_{j-1} (j - 1.5) / j evaluated by hand
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


# Orders anywhere in [0, 3], integers, and orders within 1e-15 ... 1e-2
# of an integer, where a factor 1 - (order + 1) / j would cancel and
# cost the weights eps / d relative precision.  All lie on a grid of
# 2**-50, so a + b is exact: near an integer, rounding the sum would by
# itself move the weights of order a + b by eps / d.
_SERIES_ORDERS = (
    st.floats(0.0, 3.0)
    | st.integers(0, 3).map(float)
    | st.builds(
        lambda n, d, sign: abs(n + sign * d),
        st.integers(0, 3),
        st.floats(1e-15, 1e-2),
        st.sampled_from([-1.0, 1.0]),
    )
).map(lambda x: math.ldexp(round(math.ldexp(x, 50)), -50))


@given(a=_SERIES_ORDERS, b=_SERIES_ORDERS, n=st.integers(0, 200))
@example(a=3.78e-13, b=0.0, n=200)
@example(a=2.0 - 1e-15, b=1.0 + 1e-15, n=200)
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
    # a width that underflows to a zero step, and one that overflows to inf
    with pytest.raises(ValueError, match="step"):
        TimeGrid(0.0, 1e-320, 100000)
    with pytest.raises(ValueError, match="step"):
        TimeGrid(-1e308, 1e308, 4)
    # a quarter of a float spacing per step: nodes round onto each other
    with pytest.raises(ValueError, match=r"with step 0\.5 and a float spacing of 2\.0 "):
        TimeGrid(1e16, 1.0000000000000004e16, 8)
    # one spacing per step keeps every node
    TimeGrid(1.0, 1.0000000000000004, 2)
    # subnormal steps round to whole spacings: 2024 / 500 spacings to 4,
    # ending 6 steps short of b, and 2024 / 1500 to 1, ending 524 short
    with pytest.raises(ValueError, match=(
        r"^grid nodes must end at b=1e-320, but with step 2e-323 the last node"
        r" a \+ count \* step is 9\.88e-321, more than half a step from b$"
    )):
        TimeGrid(0.0, 1e-320, 500)
    with pytest.raises(ValueError, match=r"step 5e-324 the last node .* is 7\.41e-321,"):
        TimeGrid(0.0, 1e-320, 1500)


@settings(max_examples=300, deadline=None)
@given(
    a=st.floats(-1e3, 1e3),
    width=st.floats(1e-3, 1e3),
    count=st.integers(2, 5000),
)
@example(a=0.0, width=1.8, count=7)  # a + step * count rounds past b
def test_grid_nodes_lie_in_the_interval(a, width, count):
    grid = TimeGrid(a, a + width, count)
    nodes = grid.nodes()
    assert nodes[0] == grid.a and nodes[-1] <= grid.b
    assert np.all(np.diff(nodes) >= 0.0)


def _spacings_above(x, units):
    for _ in range(units):
        x = math.nextafter(x, math.inf)
    return x


@settings(max_examples=300, deadline=None)
@given(
    a=st.one_of(st.floats(-1e300, 1e300), st.floats(-1e-300, 1e-300)),
    count=st.integers(2, 64),
    # float spacings per step: nodes collapse below one, and the last
    # ones can far above it when the step is subnormal
    per_step=st.one_of(st.floats(0.25, 2.0), st.floats(2.0, 32.0)),
)
@example(a=1e16, count=8, per_step=0.25)  # deriv's refinement of a 2-spacing grid
@example(a=-1.0000000000000004e16, count=8, per_step=0.25)
@example(a=0.0, count=7, per_step=1.5)  # a subnormal width
@example(a=-5e-324, count=3, per_step=0.5)
@example(a=0.0, count=45, per_step=16.625)  # the step rounds up from 16.6 to 17 spacings
def test_accepted_grids_have_strictly_increasing_nodes(a, count, per_step):
    b = _spacings_above(a, max(1, round(per_step * count)))
    try:
        grid = TimeGrid(a, b, count)
    except ValueError:
        return
    nodes = grid.nodes()
    assert np.all(np.diff(nodes) > 0.0)
    assert 2.0 * (grid.b - nodes[-1]) <= grid.step


# ------------------------------------------- the operators' sample checks

@pytest.mark.parametrize(
    "derivative", [left_rl_derivative, right_rl_derivative], ids=["left", "right"]
)
def test_operators_check_sample_shape(derivative):
    grid = TimeGrid(0.0, 1.0, 4)
    with pytest.raises(ValueError, match="^need one or more rows of 5 samples each$"):
        derivative(grid, np.zeros(4), FractionalOrder(0.5))


@pytest.mark.parametrize(
    "derivative", [left_rl_derivative, right_rl_derivative], ids=["left", "right"]
)
def test_operators_reject_non_finite(derivative):
    grid = TimeGrid(0.0, 1.0, 4)
    with pytest.raises(NonFiniteInputError, match="^samples contain NaN or infinity$"):
        derivative(grid, [0.0, 1.0, math.nan, 3.0, 4.0], FractionalOrder(0.5))


def test_divergent_mask_flags_overflow():
    # huge finite samples overflow once scaled by step**(-order)
    grid = TimeGrid(0.0, 1.0, 8)
    d = left_rl_derivative(grid, np.full(9, 1e308), FractionalOrder(0.5))
    assert (~np.isfinite(d)).any()
    with pytest.raises(NonFiniteInputError):
        left_rl_derivative(grid, d, FractionalOrder(0.5))


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

def _power_samples(grid: TimeGrid, k: int) -> np.ndarray:
    return (grid.nodes() - grid.a) ** k


def _interior_error(k: int, alpha: float, count: int) -> float:
    grid = TimeGrid(0.0, 1.0, count)
    order = FractionalOrder(alpha)
    numeric = left_rl_derivative(grid, _power_samples(grid, k), order)
    nodes = grid.nodes()
    oracle = np.array([rl_power_rule(k, order, x) for x in nodes])
    inner = interior(grid)
    return float(np.max(np.abs(numeric[inner] - oracle[inner])))


def test_left_derivative_linear_half_order():
    assert _interior_error(1, 0.5, 1024) < 1e-3


def test_left_derivative_above_one():
    assert _interior_error(2, 1.5, 1024) < 3e-3


def test_left_derivative_order_one_is_backward_difference():
    grid = TimeGrid(0.0, 1.0, 256)
    numeric = left_rl_derivative(grid, _power_samples(grid, 1), FractionalOrder(1.0))
    npt.assert_allclose(numeric[1:], np.ones(256), rtol=0, atol=1e-12)


def test_left_derivative_order_two_exact_on_parabola():
    # shifted stencil reduces to the central second difference, which
    # is exact for x**2 away from the first node
    grid = TimeGrid(0.0, 1.0, 128)
    numeric = left_rl_derivative(grid, _power_samples(grid, 2), FractionalOrder(2.0))
    npt.assert_allclose(numeric[1:], np.full(128, 2.0), rtol=0, atol=1e-8)


def test_left_derivative_convergence_order():
    coarse = _interior_error(2, 0.75, 512)
    fine = _interior_error(2, 0.75, 2048)
    order = math.log(coarse / fine) / math.log(4.0)
    assert order >= 0.8


def test_left_derivative_linearity():
    rng = np.random.default_rng(42)
    grid = TimeGrid(0.0, 1.0, 256)
    f = rng.standard_normal(257)
    g = rng.standard_normal(257)
    order = FractionalOrder(0.7)
    lhs = left_rl_derivative(grid, 2.5 * f + g, order)
    rhs = 2.5 * left_rl_derivative(grid, f, order) + left_rl_derivative(grid, g, order)
    npt.assert_allclose(lhs, rhs, rtol=1e-11, atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(
    order=st.floats(0.1, 1.95).filter(lambda a: not a.is_integer()) | st.integers(1, 3),
    side=st.sampled_from(["left", "right"]),
    count=st.integers(2, 2048),
    scale=st.floats(-1e3, 1e3, allow_subnormal=False),
    exponents=st.tuples(st.integers(-100, 100), st.integers(-100, 100)),
    seed=st.integers(0, 2**32 - 1),
)
def test_derivatives_are_linear(order, side, count, scale, exponents, seed):
    # D(a f + g) = a D f + D g to within rounding: 8x the roundoff floor
    # of samples bounded by |a| max|f| + max|g|, where 3,000 seeded draws
    # measured at most 2.0x
    grid = TimeGrid(0.0, 1.0, count)
    rng = np.random.default_rng(seed)
    f, g = (10.0**e * rng.standard_normal(count + 1) for e in exponents)
    order = FractionalOrder(float(order))
    derivative = left_rl_derivative if side == "left" else right_rl_derivative

    def d(values):
        return derivative(grid, values, order)

    difference = np.max(np.abs(d(scale * f + g) - (scale * d(f) + d(g))))
    magnitude = abs(scale) * np.max(np.abs(f)) + np.max(np.abs(g))
    assert difference <= 8.0 * roundoff_floor(order, grid, magnitude)


# -------------------------------------------------- right_rl_derivative

def test_right_is_mirror_of_left():
    rng = np.random.default_rng(7)
    order = FractionalOrder(1.3)
    for count in (200, 2048):
        grid = TimeGrid(0.0, 1.0, count)
        values = rng.standard_normal(count + 1)
        mirrored = left_rl_derivative(grid, values[::-1], order)[::-1]
        direct = right_rl_derivative(grid, values, order)
        npt.assert_array_equal(direct, mirrored)


def test_right_derivative_of_linear():
    # the mirrored backward difference is exact for linear samples, so
    # every node except the clamped endpoint x = b gives exactly -1
    grid = TimeGrid(0.0, 1.0, 512)
    numeric = right_rl_derivative(grid, grid.nodes(), FractionalOrder(1.0))
    npt.assert_allclose(numeric[:-1], -np.ones(512), rtol=0, atol=1e-12)


def test_right_derivative_of_constant_half_order():
    grid = TimeGrid(0.0, 1.0, 4096)
    numeric = right_rl_derivative(grid, np.ones(4097), FractionalOrder(0.5))
    oracle = rl_power_rule(0, FractionalOrder(0.5), 1.0)
    assert abs(numeric[0] - oracle) < 1e-3
    # at x = b the true derivative diverges; the sample stays finite but large
    assert numeric[-1] > 10.0


# ------------------------------------------------- FFT against direct sum

def _plain_sums(grid, samples, orders, side):
    # the plain Grunwald-Letnikov sum without the endpoint term: the
    # kernel's left-side core, on the mirror image for the right side
    block = np.array(samples, dtype=float)
    zeros = np.zeros(len(block))
    if side == "left":
        return _gl_sums(grid, block, orders, zeros)
    return _gl_sums(grid, block[:, ::-1], orders, zeros)[..., ::-1]


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
    fast, oracle, _ = (a[0, 0] for a in power_kernel_check(grid, [exponent], [order], side))
    if side == "left":
        direct = _direct_gl_sum((grid.nodes() - grid.a) ** exponent, order.value, grid.step)
    else:
        samples = (grid.b - grid.nodes()) ** exponent
        direct = _direct_gl_sum(samples[::-1], order.value, grid.step)[::-1]
    # every node: a short FFT length would alias the endpoint region
    difference = np.max(np.abs(fast - direct))
    discretization = np.max(np.abs(direct - oracle)[interior(grid)])
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
    numeric = derivative(grid, samples.astype(float), FractionalOrder(order))
    npt.assert_array_equal(numeric, expected)


@settings(max_examples=40, deadline=None)
@given(
    order=st.sampled_from([2000.0, 1e9, 1e20, 1e200, 300.5]),
    side=st.sampled_from(["left", "right"]),
    count=st.integers(2, 600),
    kind=st.sampled_from(["power", "negative", "signed", "alternating", "signed_zeros"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_huge_orders_raise_before_any_sum(order, side, count, kind, seed):
    # At a step of 1/16, step**-order overflows at every one of these
    # orders, and the binomial rows of the three largest overflow once
    # they hold a few dozen weights: the kernel raises, naming the order
    # and the step, before it convolves or transforms a row, so a huge
    # integer order costs O(N) to reject whatever the samples.  The order
    # comes last in a block after a finite integer and a finite
    # non-integer order, whose sums must not run either
    grid = TimeGrid(0.0, count / 16.0, count)
    rng = np.random.default_rng(seed)
    nodes = np.arange(count + 1.0)
    samples = {
        "power": nodes ** rng.integers(0, 4),
        "negative": -rng.random(count + 1),
        "signed": rng.standard_normal(count + 1),
        "alternating": (-1.0) ** nodes,
        "signed_zeros": np.where(rng.random(count + 1) < 0.3, -0.0, -rng.random(count + 1)),
    }[kind]
    orders = [FractionalOrder(1.0), FractionalOrder(0.5), FractionalOrder(order)]
    sums = []
    with pytest.MonkeyPatch.context() as patch:
        for module, name in ((np, "convolve"), (np.fft, "rfft")):
            original = getattr(module, name)
            patch.setattr(module, name, lambda *a, f=original, **k: sums.append(a) or f(*a, **k))
        message = f"^order {re.escape(repr(order))} at step 0\\.0625 overflows a float$"
        with pytest.raises(OverflowError, match=message):
            rl_derivative(grid, [samples], orders, side)
    assert not sums


def test_kernel_rejects_overflowing_weights_or_scale():
    # at a unit step only the weights can overflow: order 1e9's binomial
    # row does; order 300.5's does not, and its sums of samples up to
    # 6.4e301, which start at 0, turn non-finite without an error
    grid, ones = TimeGrid(0.0, 64.0, 64), np.ones(65)
    with pytest.raises(OverflowError, match="^order 1000000000.0 at step 1.0 overflows a float$"):
        rl_derivative(grid, [ones], [FractionalOrder(1e9)])
    values = rl_derivative(grid, [grid.nodes() * 1e300], [FractionalOrder(300.5)])[0, 0]
    assert not np.any(np.isfinite(values))
    with pytest.raises(OverflowError, match="^order 300.5 at step 0.015625 overflows a float$"):
        rl_derivative(TimeGrid(0.0, 1.0, 64), [ones], [FractionalOrder(300.5)])


@settings(max_examples=30, deadline=None)
@given(
    order=st.floats(1.0, 2.0, exclude_min=True, exclude_max=True),
    side=st.sampled_from(["left", "right"]),
    count=st.integers(2, 3000).filter(lambda n: n & (n - 1)),
    exponent=st.sampled_from([1, 2, 3]),
)
def test_shifted_stencil_is_meerschaert_tadjeran(order, side, count, exponent):
    # The shifted Grunwald formula of Meerschaert and Tadjeran (J.
    # Comput. Appl. Math. 2004) for orders in (1, 2), written out as its
    # own O(N**2) sum: left, h**-a sum_{k=0}^{i+1} g_k f(x_{i+1-k}); right,
    # h**-a sum_{k=0}^{N-i+1} g_k f(x_{i-1+k}), with g_k = (-1)**k C(a, k).
    # The node whose shifted sum would reach past the grid keeps the
    # unshifted one.  Held to the bound of test_fft_sum_matches_direct_sum.
    grid = TimeGrid(0.0, 1.0, count)
    order = FractionalOrder(order)
    fast, oracle, _ = (a[0, 0] for a in power_kernel_check(grid, [exponent], [order], side))
    f = ((grid.nodes() - grid.a) if side == "left" else (grid.b - grid.nodes())) ** exponent
    g = [1.0]
    for k in range(1, count + 2):
        g.append(g[-1] * (k - 1 - order.value) / k)
    g = np.array(g)
    shifted = np.empty(count + 1)
    for i in range(count + 1):
        if side == "left":
            taps = f[: i + 2][::-1] if i < count else f[::-1]
        else:
            taps = f[i - 1 :] if i > 0 else f
        shifted[i] = np.dot(g[: taps.size], taps)
    shifted *= grid.step**-order.value
    difference = np.max(np.abs(fast - shifted))
    discretization = np.max(np.abs(shifted - oracle)[interior(grid)])
    floor = roundoff_floor(order, grid, 1.0)
    assert difference <= max(1e-2 * discretization, 16.0 * floor)


def _five_smooth_at_least(n):
    # brute force: the first length from n up with no prime factor above 5
    size = n
    while True:
        rest = size
        for prime in (2, 3, 5):
            while rest % prime == 0:
                rest //= prime
        if rest == 1:
            return size
        size += 1


def test_fft_length_is_smallest_5_smooth():
    for n in range(1, 5001):
        assert _fft_length(n) == _five_smooth_at_least(n)
    # 2N + 1 on the power-of-two grids of verify and deriv, N 1024 ... 65536
    lengths = {1024: 2160, 2048: 4320, 4096: 8640, 8192: 16875, 16384: 32805, 65536: 131220}
    for count, size in lengths.items():
        assert _fft_length(2 * count + 1) == _five_smooth_at_least(2 * count + 1) == size


# The weights of order a are the coefficients of (1 - z)**a, so
# (1 - z)**a (1 - z)**b = (1 - z)**(a + b) makes the discrete operators
# compose exactly: D**a (D**b f) = D**(a + b) f, where the stencil shifts
# add up, [a > 1] + [b > 1] = [a + b > 1].  Orders on a 2**-20 lattice
# make a + b exact, so the rounding of the sum plays no part.
_LATTICE = 2**20


@st.composite
def _composable_orders(draw):
    """(a, b) on the lattice: both at most 1 with a sum at most 1, or one above 1."""
    if draw(st.booleans()):
        total = draw(st.integers(2, _LATTICE))
        a = draw(st.integers(1, total - 1))
        b = total - a
    else:
        a = draw(st.integers(1, _LATTICE))
        b = draw(st.integers(_LATTICE + 1, 3 * _LATTICE - 1))
    pair = (a / _LATTICE, b / _LATTICE)
    return pair[::-1] if draw(st.booleans()) else pair


@settings(max_examples=30, deadline=None)
@given(
    orders=_composable_orders(),
    side=st.sampled_from(["left", "right"]),
    count=st.integers(2, 4096),
)
@example(orders=(0.25, 0.5), side="left", count=65536)
@example(orders=(0.75, 1.25), side="right", count=65536)
@example(orders=(2.0**-20, 2.0**-20), side="left", count=65536)
def test_fft_kernel_composes_orders(orders, side, count):
    # The FFT path at every size deriv runs, 65,536 intervals included,
    # held to an identity that needs no O(N**2) reference.  f = x**k
    # (k = 1-3) vanishes at the endpoint the side starts from, so the
    # identity holds at every node but the one whose stencil drops its
    # shift; that includes the endpoint a short FFT length would alias.
    # Measured at up to 5.5x the floor (both orders near 0, where the
    # floor is about eps and the FFT's own rounding sets the difference)
    # over 2,000 draws at N up to 100,000; the bound is 8x the floor.
    a, b = orders
    grid = TimeGrid(0.0, 1.0, count)
    offsets = grid.nodes() - grid.a if side == "left" else grid.b - grid.nodes()
    samples = [offsets**k for k in (1, 2, 3)]
    inner = _plain_sums(grid, samples, [FractionalOrder(b)], side)[0]
    composed = _plain_sums(grid, inner, [FractionalOrder(a)], side)[0]
    direct = _plain_sums(grid, samples, [FractionalOrder(a + b)], side)[0]
    nodes = slice(0, -1) if side == "left" else slice(1, None)
    difference = np.max(np.abs(composed - direct)[:, nodes])
    assert difference <= 8.0 * roundoff_floor(FractionalOrder(a + b), grid, 1.0)


@settings(max_examples=30, deadline=None)
@given(orders=_composable_orders(), count=st.integers(1, 4096))
@example(orders=(2.0 - 2.0**-20, 2.0**-20), count=64)  # cancels unless taken as j - 1 - a
def test_weights_compose_orders(orders, count):
    # the weights-level identity behind test_fft_kernel_composes_orders.
    # Each weight row is a product of j rounded factors, so its weight j
    # carries a relative error of up to about j eps: measured at up to
    # 0.54x eps (j + 1) times the convolution of the absolute weights over
    # 600 draws; the bound is 2x.
    a, b = orders
    w_a, w_b = gl_weights(a, count), gl_weights(b, count)
    product = np.convolve(w_a, w_b)[: count + 1]
    scale = np.convolve(np.abs(w_a), np.abs(w_b))[: count + 1] * np.arange(1, count + 2)
    difference = np.abs(product - gl_weights(a + b, count))
    assert np.all(difference <= 2.0 * np.finfo(float).eps * scale)


# The right operator is the left one's adjoint: R's rows are L's columns
# on both stencils, and the rows that each clamps at its far endpoint
# meet only samples that are zero there (Agrawal, J. Math. Anal. Appl.
# 2002, for the continuous identity behind the fractional Euler-Lagrange
# equations).  So for f and u that vanish at both ends, <f, L u> =
# <R f, u> in exact arithmetic, at every order and grid size.
@settings(max_examples=60, deadline=None)
@given(
    order=st.floats(0.0, 3.0, exclude_min=True) | st.sampled_from([1.0, 2.0, 3.0]),
    count=st.integers(2, 4096),
    exponents=st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    seed=st.integers(0, 2**32 - 1),
)
@example(order=0.5, count=65536, exponents=(0, 0), seed=0)
@example(order=1.5, count=65536, exponents=(2, -2), seed=1)
@example(order=2.75, count=65536, exponents=(0, 3), seed=2)
@example(order=1.0, count=65536, exponents=(0, 0), seed=3)
@example(order=3.0, count=16384, exponents=(1, 0), seed=4)
def test_right_operator_is_the_left_ones_adjoint(order, count, exponents, seed):
    # Each inner product rounds like eps sum|f| max|L u|, about one floor
    # of u times sum|f|; 15,000 seeded draws (orders in (0, 3] with
    # integers and near-integers, N 2-65,536) measured at most 0.56 of
    # that, and the bound is 2
    grid = TimeGrid(0.0, 1.0, count)
    rng = np.random.default_rng(seed)
    f, u = (10.0**e * rng.standard_normal(count + 1) for e in exponents)
    f[[0, -1]] = u[[0, -1]] = 0.0
    order = FractionalOrder(order)
    left_u = _plain_sums(grid, [u], [order], "left")[0, 0]
    right_f = _plain_sums(grid, [f], [order], "right")[0, 0]
    difference = abs(np.dot(f, left_u) - np.dot(right_f, u))
    bound = 2.0 * np.sum(np.abs(f)) * roundoff_floor(order, grid, np.max(np.abs(u)))
    assert difference <= bound


def _exact_plain_sums(order, count, k):
    # the plain left sums of (j / count)**k at each node, unscaled, in
    # exact arithmetic: order is a Fraction, so every weight is rational,
    # and the sums run in integers over the weights' common denominator
    shift = 1 if order > 1 else 0
    n = count + shift
    weights = [Fraction(1)]
    for j in range(1, n + 1):
        weights.append(weights[-1] * (j - 1 - order) / j)
    common = order.denominator**n * math.factorial(n)
    integers = [int(weight * common) for weight in weights]
    samples = [j**k for j in range(count + 1)]
    full = [
        sum(integers[j] * samples[i - j] for j in range(max(0, i - count), i + 1))
        for i in range(n + 1)
    ]
    # the last node keeps the unshifted sum
    return [Fraction(full[i], common * count**k) for i in [*range(shift, count + shift), count]]


# On [0, 1] with N a power of two, and orders on a 2**-10 lattice, every
# node, sample and weight is exact, so the plain sum has an exact value:
# a reference with no rounding of its own, unlike _direct_gl_sum.
@settings(max_examples=30, deadline=None)
@given(
    numerator=st.integers(1, 3 * 1024),
    count=st.sampled_from([2**n for n in range(1, 8)]),
    k=st.integers(1, 3),
    side=st.sampled_from(["left", "right"]),
)
@example(numerator=512, count=256, k=1, side="left")
@example(numerator=1536, count=256, k=3, side="right")
@example(numerator=1, count=256, k=2, side="left")
@example(numerator=2048, count=256, k=3, side="right")
def test_plain_sums_hold_to_the_exact_sum(numerator, count, k, side):
    # The FFT path measured at most 2.38 floors over every non-integer
    # lattice order at N 2-64 (k 1-3, both sides), 12,000 seeded draws at
    # N up to 128 and orders n/1024, n <= 16, at N 256; the worst were at
    # orders near 0, and the bound is 3.  The integer orders' direct path
    # was exact, and must stay so.  The scale is the kernel's own float
    # step**-order, so only the sum's rounding is counted.
    exact_order = Fraction(numerator, 1024)
    order = FractionalOrder(float(exact_order))
    grid = TimeGrid(0.0, 1.0, count)
    offsets = grid.nodes() - grid.a if side == "left" else grid.b - grid.nodes()
    numeric = _plain_sums(grid, [offsets**k], [order], side)[0, 0]
    if side == "right":
        numeric = numeric[::-1]
    scale = Fraction(np.float64(grid.step) ** -order.value)
    exact = _exact_plain_sums(exact_order, count, k)
    error = max(abs(Fraction(x) - sum_ * scale) for x, sum_ in zip(numeric.tolist(), exact))
    integer = exact_order.denominator == 1
    assert error <= (0.0 if integer else 3.0 * roundoff_floor(order, grid, 1.0))


# ------------------------------------------------------ block of rows

def _one_row_sum(values, order, step):
    # the one-row sum, transformed at the smallest 5-smooth length that
    # holds the linear convolution of the unshifted stencil
    top = len(values) - 1
    shift = 1 if order > 1.0 else 0
    with np.errstate(over="ignore", invalid="ignore"):
        if float(order).is_integer():
            full = np.convolve(gl_weights(order, min(int(order), top + shift)), values)
        else:
            size = _five_smooth_at_least(2 * top + 1)
            spectrum = np.fft.rfft(gl_weights(order, top + shift), size)
            spectrum *= np.fft.rfft(values, size)
            full = np.fft.irfft(spectrum, size)
        result = full[shift : top + 1 + shift]
        result[top] = full[top]
        return result * np.float64(step) ** -order


_POWERS_OF_TWO = [2**n for n in range(1, 14)]


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(1, 4),
    orders=st.lists(
        st.integers(1, 3) | st.floats(0.01, 1.99).filter(lambda a: not a.is_integer()),
        min_size=1,
        max_size=4,
    ),
    count=st.sampled_from(_POWERS_OF_TWO) | st.integers(2, 8192),
    side=st.sampled_from(["left", "right"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(rows=3, orders=[0.25, 0.5, 0.75, 1.5], count=8192, side="left", seed=0)
@example(rows=1, orders=[1, 0.5, 2, 1.5, 3], count=4096, side="right", seed=1)
# an integer order whose binomials overflow, between FFT orders in one
# multi-row block: the block raises, as each one-row call at that order does
@example(rows=3, orders=[0.5, 2000, 1.5], count=4096, side="right", seed=2)
def test_block_rows_equal_one_row_derivatives(rows, orders, count, side, seed):
    # every (order, row) slice of the plain sums of a block is, bit for
    # bit, the one-row sum the operators ran before they were batched; and
    # every slice of one rl_derivative call, which adds the endpoint term
    # to the plain sums, is the one-function, one-order operator
    grid = TimeGrid(0.0, 1.0, count)
    rng = np.random.default_rng(seed)
    functions = [
        rng.standard_normal(count + 1) * 10.0 ** rng.integers(-3, 4) for _ in range(rows)
    ]
    orders = [FractionalOrder(float(order)) for order in orders]
    derivative = left_rl_derivative if side == "left" else right_rl_derivative
    if FractionalOrder(2000.0) in orders:
        message = re.escape(f"order 2000.0 at step {grid.step!r} overflows a float")
        for call in (
            lambda: _plain_sums(grid, functions, orders, side),
            lambda: rl_derivative(grid, functions, orders, side),
            *(lambda f=f: derivative(grid, f, FractionalOrder(2000.0)) for f in functions),
        ):
            with pytest.raises(OverflowError, match=f"^{message}$"):
                call()
        return
    block = _plain_sums(grid, functions, orders, side)
    corrected = rl_derivative(grid, functions, orders, side)
    assert block.shape == corrected.shape == (len(orders), rows, count + 1)
    for i, order in enumerate(orders):
        for r, f in enumerate(functions):
            single = derivative(grid, f, order)
            assert isinstance(single, np.ndarray)
            values = f if side == "left" else f[::-1]
            reference = _one_row_sum(values, order.value, grid.step)
            if side == "right":
                reference = reference[::-1]
            assert np.array_equal(block[i, r].view(np.int64), reference.view(np.int64))
            assert np.array_equal(corrected[i, r].view(np.int64), single.view(np.int64))


def test_block_rejects_bad_rows_and_sides():
    grid, order = TimeGrid(0.0, 1.0, 8), FractionalOrder(0.5)
    with pytest.raises(ValueError, match="rows of 9 samples"):
        rl_derivative(grid, [np.ones(9), np.ones(8)], [order])
    with pytest.raises(ValueError, match="rows of 9 samples"):
        rl_derivative(grid, np.ones(9), [order])
    with pytest.raises(ValueError, match="rows of 9 samples"):
        rl_derivative(grid, [], [order])
    with pytest.raises(NonFiniteInputError, match="^samples contain NaN or infinity$"):
        rl_derivative(grid, [np.ones(9), np.append(np.ones(8), math.inf)], [order])
    with pytest.raises(ValueError, match="side"):
        rl_derivative(grid, [np.ones(9)], [order], "up")


@pytest.mark.parametrize("side", ["left", "right"])
def test_no_orders_give_an_empty_block(side):
    # rows that start at 0 and away from it: neither order class is summed
    grid = TimeGrid(0.0, 1.0, 8)
    rows = [np.zeros(9), np.ones(9)]
    assert rl_derivative(grid, rows, [], side).shape == (0, 2, 9)


# -------------------------------------------------------- rl_derivative

@pytest.mark.parametrize("side", ["left", "right"])
def test_constants_are_exact_at_non_integer_orders(side):
    # f - f(a) of a constant is 0, so the endpoint term is its whole
    # derivative: the interior error is rounding of the offsets at most
    for count, order in product([1024, 4096], [0.5, 1.3, 1.5, 1.9]):
        grid, order = TimeGrid(0.0, 1.0, count), FractionalOrder(order)
        error = power_kernel_check(grid, [0], [order], side)[2][0, 0]
        assert error <= roundoff_floor(order, grid, 1.0)


@pytest.mark.parametrize("side", ["left", "right"])
def test_endpoint_term_keeps_first_order_from_a_nonzero_start(side):
    # (1 + x)**2 at order 1.5: the plain sum's error falls as h too, but
    # is about 27x larger (9.22e-2 against 3.45e-3 at N 1024, 5.90e-3
    # against 2.18e-4 at N 16384); with the term it falls about 4x per 4x
    # refinement
    order = FractionalOrder(1.5)
    derivative = left_rl_derivative if side == "left" else right_rl_derivative
    plain, corrected = [], []
    for count in (1024, 4096, 16384):
        grid = TimeGrid(0.0, 1.0, count)
        offsets = grid.nodes() - grid.a if side == "left" else grid.b - grid.nodes()
        samples = (1.0 + offsets) ** 2
        # (1 + y)**2 = 1 + 2 y + y**2
        oracle = sum(c * rl_power_rule(k, order, offsets) for k, c in enumerate((1.0, 2.0, 1.0)))
        inner = interior(grid)
        for errors, numeric in (
            (plain, _plain_sums(grid, [samples], [order], side)[0, 0]),
            (corrected, derivative(grid, samples, order)),
        ):
            errors.append(np.max(np.abs(numeric[inner] - oracle[inner])))
    assert all(3.6 <= coarse / fine <= 4.4 for coarse, fine in zip(corrected, corrected[1:]))
    assert all(fixed < error / 20.0 for error, fixed in zip(plain, corrected))


@pytest.mark.parametrize("side", ["left", "right"])
def test_endpoint_term_leaves_the_plain_sum(side):
    # bit for bit the plain sum: rows that start at 0 or -0, integer
    # orders, and a row whose f - f(a) overflows.  At the starting node,
    # where the closed form is infinite, D[f - f(a)] + f(a) D[1] is the
    # plain sum in exact arithmetic, and within one floor in floats.
    grid = TimeGrid(0.0, 1.0, 64)
    rows = np.random.default_rng(3).standard_normal((4, 65))
    rows[0, [0, -1]] = 0.0
    rows[1, [0, -1]] = -0.0
    rows[3] = np.where(np.arange(65) % 3, 1e308, -1e308)
    orders = [FractionalOrder(order) for order in (0.5, 1.0, 1.5, 2.0, 2.5)]
    plain = _plain_sums(grid, rows, orders, side)
    corrected = rl_derivative(grid, rows, orders, side)
    bits, plain_bits = corrected.view(np.int64), plain.view(np.int64)
    npt.assert_array_equal(bits[:, [0, 1, 3]], plain_bits[:, [0, 1, 3]])
    npt.assert_array_equal(bits[[1, 3]], plain_bits[[1, 3]])
    start, others = (0, slice(1, None)) if side == "left" else (-1, slice(0, -1))
    for i in (0, 2, 4):
        floor = roundoff_floor(orders[i], grid, np.max(np.abs(rows[2])))
        assert abs(corrected[i, 2, start] - plain[i, 2, start]) <= floor
        # the one row the term applies to moves at every other node
        assert np.all(bits[i, 2, others] != plain_bits[i, 2, others])


def _passes(record) -> bool:
    return bool(RecordBatch.from_records([record]).passed[0])


def test_observed_order_gates_errors_above_twice_the_floor():
    coarse, fine = TimeGrid(0.0, 1.0, 64), TimeGrid(0.0, 1.0, 256)
    order = FractionalOrder(0.5)
    # x on [0, 1]: samples up to 1, plus offsets rounded at nodes up to 1
    floor = roundoff_floor(order, fine, 2.0)
    # errors far above the floor that barely shrink: a gated FAIL
    record = observed_order_record("order", 1, order, (coarse, 1e-3), (fine, 9e-4), 0.2)
    assert record.tolerance == 0.2 and not _passes(record)
    # just above twice the floor the ratio still gates
    record = observed_order_record("order", 1, order, (coarse, 1e-3), (fine, 2.01 * floor), 0.2)
    assert record.tolerance == 0.2
    # at twice the floor the fine error may be half rounding: no order
    record = observed_order_record("order", 1, order, (coarse, 1e-3), (fine, 2.0 * floor), 0.2)
    assert math.isnan(record.numeric) and _passes(record)
    # an exact coarse result against a fine error above the floor: the
    # error grew without bound, an order of -inf that fails
    record = observed_order_record("order", 1, order, (coarse, 0.0), (fine, 1e-3), 0.2)
    assert record.numeric == -math.inf and not _passes(record)


# exact stencils: order 1 on x, and every integer order at or above the
# power, whose differences of x and x**2 vanish or are constant.  From
# 16 intervals on, every interior node holds the whole order-3 stencil.
# (power, order) pairs
_EXACT_STENCILS = [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3)]


@settings(max_examples=200, deadline=None)
@given(
    stencil=st.sampled_from(_EXACT_STENCILS),
    side=st.sampled_from(["left", "right"]),
    a=st.floats(-100.0, 100.0),
    width=st.floats(1e-3, 100.0),
    count=st.integers(16, 512),
)
@example(  # an observed order of -inf under a floor blind to the offsets' rounding
    stencil=(1, 2), side="right", a=-40.663770820033605, width=0.9776684189620966, count=14
)
def test_exact_stencils_never_fail_observed_order_on_shifted_grids(stencil, side, a, width, count):
    # off [0, 1] the offsets carry the nodes' rounding, eps * max(|a|, |b|);
    # an exact stencil's fine error is that rounding, so the order is
    # informational or measured, never a FAIL
    exponent, order = stencil
    grid = TimeGrid(a, a + width, count)
    fine = TimeGrid(grid.a, grid.b, 4 * count)
    order = FractionalOrder(float(order))
    error, fine_error = (
        power_kernel_check(g, [exponent], [order], side)[2][0, 0] for g in (grid, fine)
    )
    record = observed_order_record("order", exponent, order, (grid, error), (fine, fine_error), 0.2)
    assert _passes(record), (error, fine_error, record.numeric)


# -------------------------------------------------------- interior

def test_interior_margins():
    # nodes 1..7 of 0..8 are at least 1/10 of the width from both ends
    assert interior(TimeGrid(0.0, 1.0, 8)) == slice(1, 8)
    assert interior(TimeGrid(0.0, 1.0, 70)) == slice(7, 64)


def test_interior_is_one_nonempty_run():
    # exactly the nodes j with count <= 10 j <= 9 count: the interior
    # reads only the count, so every count the kernel checks is covered
    for count in range(2, 5001):
        nodes = interior(TimeGrid(0.0, 1.0, count))
        start, stop = nodes.start, nodes.stop
        assert nodes.step is None and 0 < start < stop <= count
        assert 10 * start >= count and 10 * (stop - 1) <= 9 * count
        assert 10 * (start - 1) < count and 10 * stop > 9 * count
