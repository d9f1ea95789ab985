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
The floor's sum|weights| is a closed form in lgamma (see roundoff_floor),
finite at every order and within about 1e-10 relative of the direct sum.

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

rl_derivative_rows is the one path every kernel call goes through.  It
takes a grid, a block of sample rows on it and several orders, checks
the samples once (each row must hold count + 1 finite values, else it
raises ValueError or NonFiniteInputError) and works the right side as
the mirror image of the left.  It hands out one derivative row at a
time, every order in turn and each row within it, as a fresh array of
count + 1 values, as soon as that row is summed, so only one row's sums
are alive at once: an integer order convolves the row with its binomial
row, and any other order multiplies its weights' spectrum by the row's,
from the block's spectrum taken once by the first such order, and takes
the inverse transform.  Each buffer is freed once no later row reads it:
an order's weights once their spectrum is taken, the samples once the
block's spectrum is taken and no integer order is left, the weights'
spectrum after the order's last product, and the block's spectrum,
which the last order to read it multiplies into, after its last inverse
transform.  A caller that keeps what it reads of each row, as the
kernel checks do, holds no block of derivatives.
left_rl_derivative and right_rl_derivative read its one row for one
order: they take a grid and its count + 1 samples and return count + 1
values, non-finite where the derivative diverges.

The left derivative of f holds the term f(a) (x - a)**-order /
gamma(1 - order), whose singular part the plain sum resolves badly far
into the interior (Lubich).  So at a non-integer order a row with
f(a) != 0 is summed as f - f(a), and f(a) times that closed form is
added back; at the starting node, where the closed form is infinite,
f(a) times the sum's own value for 1 is added instead.  The right side
does the same with f(b).  f - f(a) is built only when the first
non-integer order reads it, so an integer-only block copies no row.
"""

from __future__ import annotations

import math
from itertools import starmap
from math import gamma, lgamma
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import NonFiniteInputError

__all__ = [
    "FractionalOrder",
    "TimeGrid",
    "gl_weights",
    "left_rl_derivative",
    "right_rl_derivative",
    "rl_derivative_rows",
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


def _corrected_spectrum(
    block: np.ndarray, start: np.ndarray, size: int
) -> tuple[np.ndarray, np.ndarray]:
    # a mask of the rows whose sums take Lubich's endpoint term, those
    # with f(a) != 0 whose f - f(a) is finite, and the spectrum of the
    # block with f(a) taken off those rows.  One copy of the block is
    # shifted in place, a row whose f - f(a) overflows restored from the
    # block, and freed once its spectrum is taken
    rows, corrected = np.flatnonzero(start), np.zeros(len(block), dtype=bool)
    shifted = block.copy() if rows.size else block
    for r in rows.tolist():
        with np.errstate(over="ignore"):
            shifted[r] -= start[r]
        if np.isfinite(shifted[r]).all():
            corrected[r] = True
        else:
            shifted[r] = block[r]
    return corrected, np.fft.rfft(shifted, size)


def _gl_sums(
    grid: TimeGrid, block: np.ndarray, orders: Sequence[FractionalOrder], start: np.ndarray
) -> Iterator[tuple[int, int, np.ndarray]]:
    # the left-side derivatives of a checked block, yielded as (order
    # index, row index, row) for every order in turn and every row of it,
    # each row a fresh array of count + 1 values: an integer order sums
    # the block row, any other order sums its row of block - start and
    # adds start's endpoint term (see rl_derivative_rows).  Shift the
    # stencil one node inward for orders above one; the last node, past
    # which the shift would index, keeps the unshifted sum.
    top, height = grid.count, len(start)
    # every order's weights and scale, checked before any sum; an integer
    # order leaves out the exact zeros past its binomial row: O(N), not O(N**2).
    # The last integer order is the last to read the block, and the last
    # other order the last to read its spectrum
    stencils, last_integer, last_spectral = [], -1, -1
    for i, order in enumerate(orders):
        shift, integer = (1 if order.value > 1.0 else 0), float(order.value).is_integer()
        count = min(int(order.value), top + shift) if integer else top + shift
        with np.errstate(over="ignore", invalid="ignore"):
            weights, scale = gl_weights(order.value, count), np.float64(grid.step) ** -order.value
        if not (np.all(np.isfinite(weights)) and np.isfinite(scale)):
            raise OverflowError(f"order {order.value!r} at step {grid.step!r} overflows a float")
        stencils.append((order, integer, shift, weights, scale))
        if integer:
            last_integer = i
        else:
            last_spectral = i
    # a 5-smooth length >= 2 * top + 1: the circular product equals the
    # linear convolution on every index read.  The shifted stencil's last
    # index, 2 * top + 1, wraps onto index 0, which it never reads.
    size = _fft_length(2 * top + 1)
    spectrum = None
    for i in range(len(stencils)):
        # each buffer goes once no later row reads it.  The list lets go of
        # this order's stencil, so its weights go with the name; enumerate
        # would hold the stencil it last handed out
        (order, integer, shift, weights, scale), stencils[i] = stencils[i], None
        if not integer:
            with np.errstate(over="ignore", invalid="ignore"):
                if spectrum is None:
                    # taken by the first order that reads it: an integer-only
                    # block shifts no row and takes no transform
                    corrected, spectrum = _corrected_spectrum(block, start, size)
                if i > last_integer:
                    block = None
                weights_spectrum = np.fft.rfft(weights, size)
                # at the starting node, the sum of 1 on this order's stencil;
                # the endpoint term is built once the weights are gone
                endpoint = weights[: shift + 1].sum() * scale
                weights = None
                if corrected.any():
                    term = rl_power_rule(0, order, grid.nodes() - grid.a)
                    term[0] = endpoint
                # one forward transform for the block; the product and the
                # inverse transform go one row at a time, so only one row's
                # of each is alive beside the spectrum.  The last order to
                # read the spectrum multiplies into its rows, which nothing
                # reads after it
                product = None if i == last_spectral else np.empty_like(weights_spectrum)
        for r in range(height):
            # outside errstate, which a suspended yield would leak into the
            # caller; the sums are made inside the call, so they never
            # outlive it
            with np.errstate(over="ignore", invalid="ignore"):
                if integer:
                    sums = np.convolve(weights, block[r])
                else:
                    row = spectrum[r]
                    row = np.multiply(weights_spectrum, row, out=row if product is None else product)
                    if r == height - 1:
                        # row keeps the product, which may sit in the
                        # block's spectrum, through the inverse transform
                        weights_spectrum = product = None
                        if i == last_spectral:
                            spectrum = None
                    sums = np.fft.irfft(row, size)
                    row = None
                line = _clamped(sums, shift, top)
                sums = None
                line *= scale
                if not integer and corrected[r]:
                    line += start[r] * term
            yield i, r, line
            # the caller holds the row now: the next one is summed without it
            del line


def _clamped(sums: np.ndarray, shift: int, top: int) -> np.ndarray:
    # a fresh row of count + 1 values, not a view into the sums: those of
    # the stencil shifted `shift` nodes inward, and at the last node the
    # unshifted sum
    line = np.empty(top + 1)
    line[:top] = sums[shift : top + shift]
    line[top] = sums[top]
    return line


def rl_derivative_rows(
    grid: TimeGrid, samples: Iterable[np.ndarray] | np.ndarray,
    orders: Sequence[FractionalOrder], side: str = "left",
) -> Iterator[tuple[int, int, np.ndarray]]:
    """Derivatives of several sample rows on one grid, one row at a time.

    samples holds rows of grid.count + 1 finite values; they are checked
    when this is called, and a bad row raises ValueError or
    NonFiniteInputError then.  Returns an iterator of (i, r, row), orders
    in turn and the rows of each: row is a fresh array of count + 1
    values, the side's derivative of samples row r at order orders[i],
    handed out as soon as it is summed.  At a yield, beside that row, only
    buffers a later row uses are alive: the block's one spectrum, the
    order's weights' spectrum, product and endpoint term, the later
    orders' weights, and the samples while an integer order is left.  So
    a caller that keeps what it reads of each row holds no block of
    derivatives.  If any order's weights or step**-order overflow, the
    first next() raises OverflowError before any sum.

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
    # the right derivative is the mirror image of the left
    block = block if side == "left" else block[:, ::-1]
    rows = _gl_sums(grid, block, orders, block[:, 0].copy())
    # starmap binds no row, so none outlives the next one's sums here
    return rows if side == "left" else starmap(lambda i, r, row: (i, r, row[::-1]), rows)


def left_rl_derivative(grid: TimeGrid, values: np.ndarray, order: FractionalOrder) -> np.ndarray:
    """Derivative from the left endpoint: count + 1 values, one per node.

    Non-finite where the derivative diverges.  First-order accurate away
    from the left endpoint; near it the true derivative of a generic
    function diverges, so interior(grid) leaves it out when measuring error.
    """
    ((_, _, row),) = rl_derivative_rows(grid, [values], [order], "left")
    return row


def right_rl_derivative(grid: TimeGrid, values: np.ndarray, order: FractionalOrder) -> np.ndarray:
    """Derivative from the right endpoint: count + 1 values, one per node.

    The mirror image of the left operator, so the two sides agree
    exactly under reflection of the samples.
    """
    ((_, _, row),) = rl_derivative_rows(grid, [values], [order], "right")
    return row


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
    by magnitude, over the count + 2 weights the shifted stencil in
    _gl_sums reads at most; an error at or below it is exact to working
    precision.  The weights past w_m, m = floor(order), share one sign,
    so with n = count + 1 and P(k) = w_0 + ... + w_k = (-1)**k C(order - 1, k),
    sum|weights| = sum_{j <= min(m, n)} C(order, j) + max(|P(m)| - |P(n)|, 0),
    taken in log space through lgamma in O(min(m, n)): finite or inf,
    never nan, and within about 1e-10 relative of the direct sum.
    """
    alpha, m, n = order.value, math.floor(order.value), grid.count + 1
    j = np.arange(1.0, min(m, n) + 1.0)
    # log C(alpha, j) for j = 0 ... min(m, n), by the weights' recurrence
    logs = np.cumsum(np.log(np.append(1.0, (alpha + 1.0 - j) / j)))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if m < n and m != alpha:
            ratio = lgamma(n + 1 - alpha) - lgamma(n + 1) - lgamma(m + 1 - alpha) + lgamma(m + 1)
            log_p = lgamma(alpha) - lgamma(alpha - m) - lgamma(m + 1)
            logs = np.append(logs, log_p + np.log(-np.expm1(min(ratio, 0.0))))
        log_floor = np.log(np.finfo(float).eps) + np.log(magnitude) + np.logaddexp.reduce(logs)
        return float(np.exp(log_floor - alpha * np.log(grid.step))) if magnitude else 0.0


def interior(grid: TimeGrid) -> slice:
    """Nodes j with count / 10 <= j <= 9 * count / 10, as a slice.

    That is every node at least 0.1 * (b - a) from both endpoints, in
    exact arithmetic.  Used when measuring kernel error: the analytic
    derivative of a generic function is unbounded at the originating
    endpoint, so pointwise comparisons there are meaningless.
    """
    return slice(-(-grid.count // 10), 9 * grid.count // 10 + 1)
