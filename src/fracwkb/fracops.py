"""Left and right Riemann-Liouville derivatives on uniform grids.

The discrete kernel is the Grunwald-Letnikov expansion: binomial weights
with alternating sign, applied as a one-sided convolution and scaled by
step**(-order).  For orders above one the stencil is shifted by one node
toward the interior, which keeps the scheme first-order accurate up to
the boundary instead of losing order there.  The closed-form power rule,
on the standard library's gamma, is included so every kernel result can
be checked against an analytic value; roundoff_floor bounds what
rounding alone adds, and interior(grid) gives the nodes, at least a
tenth of the width from both endpoints, over which errors are measured.

The order alone picks the sum.  An integer order n convolves with its
n + 1 signed binomial weights (np.convolve, O(N)): the weights past
them are exact zeros, the sum is exact wherever an exact result exists,
and an FFT would spread roundoff over every node.  Any other order is a
real FFT product in O(N log N), the convolution quadrature of Lubich
(SIAM J. Math. Anal. 1986), zero-padded to the smallest 5-smooth length
(2**a * 3**b * 5**c) of at least 2N + 1, about half the next power of
two on power-of-two grids; against a long-double sum its error on power
functions measured below roundoff_floor.  An order whose weights or
step**-order overflow raises OverflowError before its block sums any
order, in O(N); finite weights whose sums overflow give +-inf or nan.

rl_derivative is the one function every kernel call goes through.  It
takes a grid, a block of sample rows on it and several orders, checks
the samples once (each row must hold count + 1 finite values, else it
raises ValueError or NonFiniteInputError) and works the right side as
the mirror image of the left.  It makes one pass over the whole block
per order: an integer order stacks every row's binomial sums, and any
other order multiplies its weights' spectrum by the block's, taken
once, and takes the inverse transform one row at a time, so only one
row's product and sums are alive beside the block's spectrum; then it
adds Lubich's endpoint term for rows where f(a) != 0, whose singular
part the plain sum resolves badly.  left_rl_derivative and
right_rl_derivative are its one-row, one-order case: they take a grid
and its count + 1 samples and return count + 1 values, non-finite
where the derivative diverges.
"""

from __future__ import annotations

import functools
import math
from math import gamma
from typing import NamedTuple, Sequence

import numpy as np

from .errors import NonFiniteInputError

__all__ = [
    "FractionalOrder",
    "TimeGrid",
    "gl_weights",
    "left_rl_derivative",
    "right_rl_derivative",
    "rl_derivative",
    "rl_power_rule",
    "roundoff_floor",
    "interior",
]

class FractionalOrder(NamedTuple("FractionalOrder", [("value", float)])):
    """A finite, positive derivative order."""

    __slots__ = ()

    def __new__(cls, value: float) -> FractionalOrder:
        if not math.isfinite(value) or value <= 0.0:
            raise ValueError(f"order must be finite and positive, got {value!r}")
        return super().__new__(cls, value)


class TimeGrid(NamedTuple("TimeGrid", [("a", float), ("b", float), ("count", int)])):
    """Uniform grid of count + 1 nodes x_j = a + j * step on [a, b].

    The nodes must be strictly increasing: a grid whose step is so small
    against the float spacing at its endpoints that two nodes round onto
    each other is rejected.  They must also end at b: a grid whose last
    node a + count * step, before it is clamped to b, misses b by more
    than half a step is rejected.  Over normal floats that node misses b
    by about two float spacings at most, so a step of 4 or more spacings
    passes; a subnormal step rounds to whole spacings and can miss by
    many steps.  A step (b - a) / count that underflows to 0 or
    overflows to inf is rejected first.  So TimeGrid(1e16,
    1.0000000000000004e16, 8), a quarter of a spacing per step, is
    rejected, as is TimeGrid(0.0, 1e-320, 500), which steps 4 spacings
    and ends 6 steps short.  deriv builds its 4N refinement grid too, so
    `deriv --grid=1e16,1.0000000000000004e16,2` exits 2.
    """

    __slots__ = ()

    def __new__(cls, a: float, b: float, count: int) -> TimeGrid:
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError("grid endpoints must be finite")
        if not a < b:
            raise ValueError(f"need a < b, got a={a!r}, b={b!r}")
        if int(count) != count or count < 2:
            raise ValueError(f"count must be an integer >= 2, got {count!r}")
        self = super().__new__(cls, a, b, int(count))
        # b - a can overflow to inf, and a tiny width over count underflow to 0
        if not 0.0 < self.step < math.inf:
            raise ValueError(
                f"grid step (b - a) / count must be positive and finite, got {self.step!r}"
            )
        nodes = self.nodes()
        if not np.all(nodes[1:] > nodes[:-1]):
            raise ValueError(
                f"grid nodes must be strictly increasing, but with step {self.step!r}"
                f" and a float spacing of {math.ulp(max(abs(a), abs(b)))!r} at the"
                " endpoints some round onto each other"
            )
        last = a + self.step * self.count
        if 2.0 * abs(last - b) > self.step:
            raise ValueError(
                f"grid nodes must end at b={b!r}, but with step {self.step!r} the last"
                f" node a + count * step is {last!r}, more than half a step from b"
            )
        return self

    @property
    def step(self) -> float:
        return (self.b - self.a) / self.count

    def nodes(self) -> np.ndarray:
        # a + step * j can round past b at j = count; clamp it back
        return np.minimum(self.a + self.step * np.arange(self.count + 1), self.b)


def gl_weights(order: float, count: int) -> np.ndarray:
    """First count + 1 Grunwald-Letnikov weights for the given order.

    w_0 = 1 and w_j = w_{j-1} * (j - 1 - order) / j, which is the
    alternating binomial sequence (-1)^j C(order, j); past j = 2 (order
    + 1) the factor is evaluated as 1 - (order + 1) / j.  Order zero gives
    the identity stencil.  An integer order n gets the exact binomial
    row followed by zeros; the recurrence would round from n = 3 on.
    A binomial beyond the float range becomes a signed infinity.
    """
    if not math.isfinite(order) or order < 0.0:
        raise ValueError(f"order must be finite and >= 0, got {order!r}")
    if int(count) != count or count < 0:
        raise ValueError(f"count must be an integer >= 0, got {count!r}")
    count = int(count)
    weights = np.zeros(count + 1)
    weights[0] = 1.0
    if float(order).is_integer():
        n = int(order)
        # C(n, j) rises up to j = n // 2 and mirrors back after it
        half, last = min(n // 2, count), min(n, count)
        binomial = 1
        for j in range(1, half + 1):
            binomial = binomial * (n + 1 - j) // j
            try:
                weights[j] = binomial
            except OverflowError:
                weights[j : half + 1] = math.inf
                break
        weights[half + 1 : last + 1] = weights[n - last : n - half][::-1]
        weights[1 : last + 1 : 2] *= -1.0
    elif count:
        j = np.arange(1.0, count + 1.0)
        # below j = 2 (order + 1), 1 - (order + 1) / j cancels near an
        # integer order while j - 1 - order does not; past it, j - 1 - order
        # would round order's low bits alike for every j of a binade, a
        # bias the product piles up, and 1 - (order + 1) / j does not
        near = j < 2.0 * (order + 1.0)
        weights[1:] = np.cumprod(np.where(near, (j - 1.0 - order) / j, 1.0 - (order + 1.0) / j))
    return weights


def _fft_length(n: int) -> int:
    # the smallest 2**a * 3**b * 5**c >= n, a length pocketfft is fast on
    best = 1 << (n - 1).bit_length()
    power5 = 1
    while power5 < best:
        odd = power5
        while odd < best:
            # the least power of two that lifts odd to n or above
            best = min(best, odd << (-(-n // odd) - 1).bit_length())
            odd *= 3
        power5 *= 5
    return best


def _gl_sums(
    grid: TimeGrid, block: np.ndarray, orders: Sequence[FractionalOrder], start: np.ndarray
) -> np.ndarray:
    # the left-side derivatives of a checked block, of shape (len(orders),
    # rows, count + 1), one whole-block pass per order: an integer order
    # sums the block, any other order sums block - start and adds start's
    # endpoint term (see rl_derivative).  Shift the stencil one node inward
    # for orders above one; the last node, past which the shift would
    # index, keeps the unshifted sum.
    top = grid.count
    out = np.empty((len(orders), *block.shape))
    # every order's weights and scale, checked before any sum; an integer
    # order leaves out the exact zeros past its binomial row: O(N), not O(N**2)
    stencils = []
    for order in orders:
        shift, integer = (1 if order.value > 1.0 else 0), float(order.value).is_integer()
        count = min(int(order.value), top + shift) if integer else top + shift
        with np.errstate(over="ignore", invalid="ignore"):
            weights, scale = gl_weights(order.value, count), np.float64(grid.step) ** -order.value
        if not (np.all(np.isfinite(weights)) and np.isfinite(scale)):
            raise OverflowError(f"order {order.value!r} at step {grid.step!r} overflows a float")
        stencils.append((order, integer, shift, weights, scale))
    rows, shifted = np.flatnonzero(start), block
    if rows.size:
        with np.errstate(over="ignore"):
            difference = block[rows] - start[rows, None]
        finite = np.all(np.isfinite(difference), axis=1)
        rows, shifted, offsets = rows[finite], block.copy(), grid.nodes() - grid.a
        shifted[rows] = difference[finite]
    # a 5-smooth length >= 2 * top + 1: the circular product equals the
    # linear convolution on every index read.  The shifted stencil's last
    # index, 2 * top + 1, wraps onto index 0, which it never reads.
    size = _fft_length(2 * top + 1)
    spectrum = None
    with np.errstate(over="ignore", invalid="ignore"):
        for result, (order, integer, shift, weights, scale) in zip(out, stencils):
            if integer:
                sums = np.array([np.convolve(weights, row)[: top + 2] for row in block])
                result[:, :top] = sums[:, shift : top + shift]
                result[:, top] = sums[:, top]
            else:
                if spectrum is None:
                    spectrum = np.fft.rfft(shifted, size)
                weights_spectrum = np.fft.rfft(weights, size)
                # one forward transform for the block; the product and the
                # inverse transform go one row at a time, straight into its
                # row, so only one row's of each is alive beside the
                # spectrum.  A lone row's product overwrites the weights'
                # spectrum, which nothing reads after it
                product = weights_spectrum if len(block) == 1 else np.empty_like(weights_spectrum)
                for line, row_spectrum in zip(result, spectrum):
                    np.multiply(weights_spectrum, row_spectrum, out=product)
                    sums = np.fft.irfft(product, size)
                    line[:top] = sums[shift : top + shift]
                    line[top] = sums[top]
            result *= scale
            if rows.size and not integer:
                term = rl_power_rule(0, order, offsets)
                # at the starting node, the sum of 1 on this order's stencil
                term[0] = weights[: shift + 1].sum() * scale
                result[rows] += start[rows, None] * term
    return out


def rl_derivative(
    grid: TimeGrid, samples: Sequence[np.ndarray] | np.ndarray,
    orders: Sequence[FractionalOrder], side: str = "left",
) -> np.ndarray:
    """Derivatives of several sample rows on one grid, for several orders.

    samples holds rows of grid.count + 1 finite values.  Returns an
    array of shape (len(orders), rows, count + 1) whose [i, r] row is
    the side's derivative of row r at order orders[i]: the
    Grunwald-Letnikov sum plus the endpoint term of rows where f(a) != 0,
    one pass over the whole block per order.  If any order's weights or
    step**-order overflow, it raises OverflowError before any sum.

    The left derivative of f holds f(a) (x - a)**-order / gamma(1 - order),
    which the Grunwald-Letnikov sum resolves badly far into the interior
    (Lubich, SIAM J. Math. Anal. 1986).  So at a non-integer order a row
    with f(a) != 0 is summed as f - f(a), and f(a) times the closed form
    rl_power_rule(0, order, offsets) is added back: a constant is exact,
    and the sum is first order again.  At the starting node, where the
    closed form is infinite, f(a) times the sum's own value for 1 is
    added instead, so the node keeps the plain sum up to its rounding.
    The right side is the mirror image, with f(b), so the two sides
    agree exactly under reflection.  Integer orders, rows with f(a) = 0
    and rows whose f - f(a) overflows keep the plain sum bit for bit.
    """
    values = [np.asarray(row, dtype=float) for row in samples]
    if not values or any(row.shape != (grid.count + 1,) for row in values):
        raise ValueError(f"need one or more rows of {grid.count + 1} samples each")
    block = np.array(values)
    if not np.all(np.isfinite(block)):
        raise NonFiniteInputError("samples contain NaN or infinity")
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if side == "right":
        # the mirror image of the left derivative
        block = block[:, ::-1]
    out = _gl_sums(grid, block, orders, block[:, 0])
    return out if side == "left" else out[..., ::-1]


def left_rl_derivative(grid: TimeGrid, values: np.ndarray, order: FractionalOrder) -> np.ndarray:
    """Derivative from the left endpoint: count + 1 values, one per node.

    Non-finite where the derivative diverges.  First-order accurate away
    from the left endpoint; near it the true derivative of a generic
    function diverges, so interior(grid) leaves it out when measuring error.
    """
    return rl_derivative(grid, [values], [order], "left")[0, 0]


def right_rl_derivative(grid: TimeGrid, values: np.ndarray, order: FractionalOrder) -> np.ndarray:
    """Derivative from the right endpoint: count + 1 values, one per node.

    The mirror image of the left operator, so the two sides agree
    exactly under reflection of the samples.
    """
    return rl_derivative(grid, [values], [order], "right")[0, 0]


def rl_power_rule(
    exponent: float, order: FractionalOrder, offset: float | np.ndarray
) -> float | np.ndarray:
    """Closed-form derivative of a power function, for kernel checks.

    For the left side this is the derivative of (x - a)**exponent at
    x = a + offset; for the right side, of (b - x)**exponent at
    x = b - offset.  Both sides share one formula:

        gamma(exponent + 1) / gamma(exponent + 1 - order) * offset**(exponent - order)

    When exponent + 1 - order is zero or a negative integer the gamma
    pole annihilates the term and the derivative is identically zero.
    Where offset is zero and the power is negative the value is +inf,
    whatever the sign of the gamma ratio.  offset may be a float or an
    array of offsets; the result is a float or an array of that shape.
    """
    if not math.isfinite(exponent) or exponent < 0.0:
        raise ValueError(f"exponent must be finite and >= 0, got {exponent!r}")
    offsets = np.asarray(offset, dtype=float)
    valid = np.isfinite(offsets) & (offsets >= 0.0)
    if not np.all(valid):
        bad = float(offsets[~valid].flat[0])
        raise ValueError(f"offset must be finite and >= 0, got {bad!r}")
    pole = exponent + 1.0 - order.value
    if pole <= 0.0 and pole == math.floor(pole):
        values = np.zeros_like(offsets)
    else:
        power = exponent - order.value
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            values = np.float64(gamma(exponent + 1.0)) / gamma(pole) * offsets**power
        if power < 0.0:
            values = np.where(offsets == 0.0, math.inf, values)
    return values if offsets.ndim else float(values)


def roundoff_floor(order: FractionalOrder, grid: TimeGrid, magnitude: float) -> float:
    """Interior error the kernel can pick up from rounding alone.

    eps * magnitude * sum|weights| * step**(-order) for samples bounded
    by magnitude in absolute value.  The weights sum runs over count + 2
    weights, the most the stencil shift in _gl_sums reads, so the floor
    covers either stencil.  An error at or below it means the kernel is
    exact to working precision.
    """
    weight_sum = _abs_weight_sum(order.value, grid.count + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.float64(grid.step) ** -order.value
        return float(np.finfo(float).eps * magnitude * weight_sum * scale)


@functools.lru_cache(maxsize=64)
def _abs_weight_sum(order: float, count: int) -> np.float64:
    # shared by every floor of one (order, grid), whatever the magnitude
    with np.errstate(over="ignore", invalid="ignore"):
        return np.abs(gl_weights(order, count)).sum()


def interior(grid: TimeGrid) -> slice:
    """Nodes j with count / 10 <= j <= 9 * count / 10, as a slice.

    That is every node at least 0.1 * (b - a) from both endpoints, in
    exact arithmetic.  Used when measuring kernel error: the analytic
    derivative of a generic function is unbounded at the originating
    endpoint, so pointwise comparisons there are meaningless.
    """
    return slice(-(-grid.count // 10), 9 * grid.count // 10 + 1)
