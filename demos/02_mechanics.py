"""Canonical structure of the quadratic-plus-linear Lagrangian family.

Shows how the two built-in models map kinematic states to canonical
momenta, how the Legendre transform assembles the Hamiltonian, and how
a sampled trajectory's fractional velocity feeds the momentum map.

Run:  python3 demos/02_mechanics.py
"""

from fracwkb import (
    FractionalOrder,
    KinematicState,
    Momenta,
    TimeGrid,
    canonical_momenta,
    example1,
    example2,
    hamilton_rhs,
    left_rl_derivative,
    legendre_transform,
    rl_power_rule,
)

print("== the two built-in models ==")
for name, spec in (("example1", example1()), ("example2", example2())):
    print(
        f"{name}: c_alpha={spec.c_alpha} c_beta={spec.c_beta} "
        f"l_alpha={spec.l_alpha} l_beta={spec.l_beta} v={spec.v} "
        f"orders=({spec.alpha.value}, {spec.beta.value})"
    )
print()

print("== momenta and Hamiltonian at a state ==")
state = KinematicState(q=1.0, d_alpha_q=2.0, d_beta_q=0.5)
for name, spec in (("example1", example1()), ("example2", example2())):
    p = canonical_momenta(spec, state)
    h = legendre_transform(spec, p, state.q)
    lag = spec.lagrangian(state)
    print(
        f"{name}: p_alpha={p.p_alpha:.3f} p_beta={p.p_beta:.3f} "
        f"H={h:.3f} L={lag:.3f} p.v-L={p.p_alpha * 2.0 + p.p_beta * 0.5 - lag:.3f}"
    )
print()

print("== Hamilton equations ==")
p = Momenta(3.0, 1.0)
rhs = hamilton_rhs(example2(), p, q=2.0)
print(f"dH/dp_alpha = {rhs.d_p_alpha}  (recovers the alpha velocity)")
print(f"dH/dp_beta  = {rhs.d_p_beta}   (recovers the beta velocity)")
print(f"dH/dq       = {rhs.d_q}  (= -v q)")
print()

print("== feeding a sampled trajectory through the momentum map ==")
# q(t) = t^2 on [0, 1]; the alpha-velocity comes from the kernel and
# the closed-form power rule provides the oracle
grid = TimeGrid(0.0, 1.0, 2048)
order = FractionalOrder(1.25)
t = grid.nodes()
velocity = left_rl_derivative(grid, t**2, order)
node = 1536  # t = 0.75
state = KinematicState(t[node] ** 2, velocity[node], 0.0)
p = canonical_momenta(example2(1.25, 1.25), state)
oracle = rl_power_rule(2, order, t[node]) + 1.0
print(f"p_alpha at t={t[node]}: kernel route {p.p_alpha:.6f}, closed form {oracle:.6f}")
print(f"difference: {abs(p.p_alpha - oracle):.2e} (kernel discretization error)")
