"""Left and right Riemann-Liouville derivatives on uniform grids.

The discrete kernel is the Grunwald-Letnikov expansion: binomial weights
with alternating sign, applied as a one-sided convolution and scaled by
step**(-order).  For orders above one the stencil is shifted by one node
toward the interior, which keeps the scheme first-order accurate up to
the boundary instead of losing order there.  The closed-form power rule,
on the standard library's gamma, is included so every kernel result can
be checked against an analytic value.

The order alone picks the sum.  An integer order n convolves with its
n + 1 signed binomial weights (np.convolve, O(N)): the weights past
them are exact zeros, the sum is exact wherever an exact result exists,
and an FFT would spread roundoff over every node.  Any other order is a
zero-padded real FFT product in O(N log N), the convolution quadrature
of Lubich (SIAM J. Math. Anal. 1986); against a long-double sum its
error on power functions measured below roundoff_floor.  Overflow, for
huge samples or orders, gives non-finite values rather than an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import GammaPoleError, NonFiniteInputError

__all__ = [
    "FractionalOrder",
    "TimeGrid",
    "SampledFunction",
    "gamma",
    "gl_weights",
    "left_rl_derivative",
    "right_rl_derivative",
    "rl_power_rule",
    "roundoff_floor",
    "interior_mask",
]

@dataclass(frozen=True)
class FractionalOrder:
    """A derivative order together with its integer ceiling.

    The ceiling n satisfies n - 1 <= value < n, so an exactly integer
    order k gets ceiling k + 1.
    """

    value: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.value) or self.value <= 0.0:
            raise ValueError(f"order must be finite and positive, got {self.value!r}")

    @property
    def ceiling(self) -> int:
        return math.floor(self.value) + 1

    @property
    def is_integer(self) -> bool:
        return self.value == int(self.value)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid of count + 1 nodes x_j = a + j * step on [a, b]."""

    a: float
    b: float
    count: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("grid endpoints must be finite")
        if not self.a < self.b:
            raise ValueError(f"need a < b, got a={self.a!r}, b={self.b!r}")
        if int(self.count) != self.count or self.count < 2:
            raise ValueError(f"count must be an integer >= 2, got {self.count!r}")
        object.__setattr__(self, "count", int(self.count))

    @property
    def step(self) -> float:
        return (self.b - self.a) / self.count

    def nodes(self) -> np.ndarray:
        return self.a + self.step * np.arange(self.count + 1)


@dataclass(frozen=True, eq=False)
class SampledFunction:
    """Function samples aligned with a TimeGrid.

    Inputs to the derivative operators must be finite everywhere.
    Operator outputs may carry non-finite entries where the true
    derivative diverges (for example at an endpoint); those are built
    with allow_nonfinite=True and flagged by divergent_mask rather than
    silently clipped.
    """

    grid: TimeGrid
    values: np.ndarray
    allow_nonfinite: bool = field(default=False, repr=False)

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.count + 1,):
            raise ValueError(
                f"expected {self.grid.count + 1} samples, got shape {values.shape}"
            )
        if not self.allow_nonfinite and not np.all(np.isfinite(values)):
            raise NonFiniteInputError("samples contain NaN or infinity")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_callable(cls, grid: TimeGrid, fn: Callable[[np.ndarray], np.ndarray]) -> "SampledFunction":
        return cls(grid, np.asarray(fn(grid.nodes()), dtype=float))

    @property
    def divergent_mask(self) -> np.ndarray:
        return ~np.isfinite(self.values)


def gamma(x: float) -> float:
    """Gamma function for real arguments away from the poles.

    Raises GammaPoleError at zero and the negative integers.
    """
    x = float(x)
    if not math.isfinite(x):
        raise NonFiniteInputError(f"gamma argument must be finite, got {x!r}")
    if x <= 0.0 and x == math.floor(x):
        raise GammaPoleError(f"gamma has a pole at {x!r}")
    return math.gamma(x)


def gl_weights(order: float, count: int) -> np.ndarray:
    """First count + 1 Grunwald-Letnikov weights for the given order.

    w_0 = 1 and w_j = w_{j-1} * (1 - (order + 1) / j), which is the
    alternating binomial sequence (-1)^j C(order, j).  Order zero gives
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
        weights[1:] = np.cumprod(1.0 - (order + 1.0) / j)
    return weights


def _gl_apply(values: np.ndarray, order: float, step: float) -> np.ndarray:
    # Shift the stencil one node inward for orders above one; the last
    # node, past which the shift would index, keeps the unshifted sum.
    top = len(values) - 1
    shift = 1 if order > 1.0 else 0
    with np.errstate(over="ignore", invalid="ignore"):
        if float(order).is_integer():
            # leave out the exact zeros past the binomial row: O(N), not O(N**2)
            full = np.convolve(gl_weights(order, min(int(order), top + shift)), values)
        else:
            # a power of two above 2 * top + shift, the last index of the
            # linear convolution, so the circular product equals it
            size = 1 << (2 * top + shift).bit_length()
            spectrum = np.fft.rfft(gl_weights(order, top + shift), size)
            spectrum *= np.fft.rfft(values, size)
            full = np.fft.irfft(spectrum, size)
        result = full[shift : top + 1 + shift]
        result[top] = full[top]
        return result * np.float64(step) ** -order


def left_rl_derivative(f: SampledFunction, order: FractionalOrder) -> SampledFunction:
    """Derivative taken from the left endpoint, evaluated at every node.

    First-order accurate away from the left endpoint; near that endpoint
    the true derivative of a generic function diverges, so the first few
    nodes are best excluded via interior_mask when measuring error.
    """
    if not np.all(np.isfinite(f.values)):
        raise NonFiniteInputError("derivative input contains NaN or infinity")
    out = _gl_apply(f.values, order.value, f.grid.step)
    return SampledFunction(f.grid, out, allow_nonfinite=True)


def right_rl_derivative(f: SampledFunction, order: FractionalOrder) -> SampledFunction:
    """Derivative taken from the right endpoint, evaluated at every node.

    Implemented as the mirror image of the left operator, so the two
    sides agree exactly under reflection of the samples.
    """
    if not np.all(np.isfinite(f.values)):
        raise NonFiniteInputError("derivative input contains NaN or infinity")
    out = _gl_apply(f.values[::-1], order.value, f.grid.step)
    return SampledFunction(f.grid, out[::-1], allow_nonfinite=True)


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
    by magnitude in absolute value.  The weights sum runs over one more
    weight than the unshifted stencil uses, so the floor covers both
    stencils.  An error at or below it means the kernel is exact to
    working precision.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        weight_sum = np.abs(gl_weights(order.value, grid.count + 1)).sum()
        scale = np.float64(grid.step) ** -order.value
        return float(np.finfo(float).eps * magnitude * weight_sum * scale)


def interior_mask(grid: TimeGrid) -> np.ndarray:
    """Mask of nodes at least 0.1 * (b - a) away from both endpoints.

    Used when measuring kernel error: the analytic derivative of a
    generic function is unbounded at the originating endpoint, so
    pointwise comparisons there are meaningless.
    """
    nodes = grid.nodes()
    pad = 0.1 * (grid.b - grid.a)
    return (nodes >= grid.a + pad) & (nodes <= grid.b - pad)
