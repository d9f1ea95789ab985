"""Tour of the fractional-derivative kernel.

Builds a uniform grid, applies the left and right derivatives of a few
monomials, and compares every interior node against the closed-form
power rule.  Also shows the two features that surprise people coming
from ordinary calculus: constants have a nonzero half-order derivative,
and that derivative diverges at the interval endpoint.

Run:  python3 demos/01_fractional_derivatives.py
"""

import numpy as np

from fracwkb import (
    FractionalOrder,
    SampledFunction,
    TimeGrid,
    gl_weights,
    interior,
    left_rl_derivative,
    right_rl_derivative,
    rl_power_rule,
)

grid = TimeGrid(0.0, 1.0, 1024)
order = FractionalOrder(0.5)

print("== weight recursion ==")
print("first six order-0.5 kernel weights:", gl_weights(0.5, 5))
print("order-0 weights are the identity:  ", gl_weights(0.0, 5))
print()

print("== power rule vs kernel ==")
nodes = grid.nodes()
inner = interior(grid)
for k in (1, 2, 3):
    f = SampledFunction(grid, nodes**k)
    numeric = left_rl_derivative(f, order)
    oracle = rl_power_rule(k, order, nodes)
    err = np.abs(numeric[inner] - oracle[inner]).max()
    print(f"f(x) = x^{k}: max interior error = {err:.3e}")
print()

print("== constants are not annihilated ==")
const = SampledFunction(grid, np.ones(grid.count + 1))
d_const = left_rl_derivative(const, order)
print(f"D^0.5[1] at x=1:   {d_const[-1]:.12f}")
print(f"closed form 1/sqrt(pi x):  {rl_power_rule(0, order, 1.0):.12f}")
print(f"analytic value at x=0: {rl_power_rule(0, order, 0.0)}")
for count in (1024, 4096):
    g = TimeGrid(0.0, 1.0, count)
    d = left_rl_derivative(SampledFunction(g, np.ones(count + 1)), order)
    print(f"numeric at x=0 with count {count}: {d[0]:8.3f}  (grows as step^-0.5)")
print()

print("== mirror symmetry ==")
# the right derivative of f equals the left derivative of the mirrored
# function, read off at the mirrored node; the match is bit-exact
f = SampledFunction(grid, nodes**2)
right = right_rl_derivative(f, order)
mirrored = SampledFunction(grid, ((grid.a + grid.b) - nodes) ** 2)
left_of_mirror = left_rl_derivative(mirrored, order)[::-1]
print(f"max |right - mirrored left| = {np.abs(right - left_of_mirror).max():.1e}")
print()

print("== first-order convergence ==")
errors = {}
for count in (512, 1024, 2048, 4096):
    g = TimeGrid(0.0, 1.0, count)
    x = g.nodes()
    numeric = left_rl_derivative(SampledFunction(g, x**2), FractionalOrder(1.5))
    oracle = rl_power_rule(2, FractionalOrder(1.5), x)
    inner = interior(g)
    errors[count] = np.abs(numeric[inner] - oracle[inner]).max()
    print(f"count = {count:5d}: max interior error = {errors[count]:.3e}")
rate = np.log(errors[512] / errors[4096]) / np.log(8.0)
print(f"observed convergence order: {rate:.3f} (kernel is first-order)")
