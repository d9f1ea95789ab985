"""Separating the Hamilton-Jacobi equation in transformed coordinates.

The principal function splits as S = W1(u1) + W2(u2) - (E1+E2) t with
linear W parts, so its slopes are the canonical momenta.  This script
builds the separated solution for both models, checks the residual of
the stationary equation H(q, dS) = E, and shows the conserved
constants and the classically forbidden region.

Run:  python3 demos/03_separation.py
"""

import numpy as np

from fracwkb import (
    EnergyPartition,
    ForbiddenRegionError,
    FractionalOrder,
    LagrangianSpec,
    PrincipalFunction,
    TransformedPoint,
    evaluate_S,
    example1,
    example2,
    hj_residual,
    lambda_constants,
    momenta_from_S,
)

energies = EnergyPartition(2.0, 0.5)
print(f"partition: E1={energies.e1} E2={energies.e2} total={energies.total}")
print()

print("== slopes are momenta ==")
for name, spec in (("example1", example1()), ("example2", example2())):
    pf = PrincipalFunction(spec, energies)
    for q in (0.0, 1.0):
        p = momenta_from_S(pf, TransformedPoint(0.0, 0.0, 0.0, q))
        print(f"{name} q={q}: p_alpha={p.p_alpha:.6f} p_beta={p.p_beta:.6f}")
print()

print("== S along a ray ==")
pf = PrincipalFunction(example2(), EnergyPartition(2.0, 0.5))
for s in (0.0, 0.5, 1.0):
    point = TransformedPoint(u1=s, u2=s, t=s, q=1.0)
    print(f"s={s:3.1f}: S={evaluate_S(pf, point):+.6f}")
print()

print("== the separated solution solves the stationary equation ==")
rng = np.random.default_rng(5)
worst = 0.0
for _ in range(200):
    spec = LagrangianSpec(
        c_alpha=rng.uniform(0.2, 5.0),
        c_beta=rng.uniform(0.2, 5.0),
        l_alpha=rng.uniform(-2.0, 2.0),
        l_beta=rng.uniform(-2.0, 2.0),
        v=rng.uniform(0.0, 2.0),
        alpha=FractionalOrder(rng.uniform(1.0, 2.0)),
        beta=FractionalOrder(rng.uniform(1.0, 2.0)),
    )
    part = EnergyPartition(rng.uniform(0.0, 4.0), rng.uniform(0.0, 4.0))
    point = TransformedPoint(
        rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0), rng.uniform(-2.0, 2.0),
        rng.uniform(-2.0, 2.0),
    )
    worst = max(worst, abs(hj_residual(PrincipalFunction(spec, part), point)))
print(f"max |H(q, dS) - E| over 200 random members: {worst:.2e}")
print()

print("== conserved constants ==")
pf = PrincipalFunction(example1(), EnergyPartition(2.0, 2.0))
lam1, lam2 = lambda_constants(pf, TransformedPoint(2.0, 6.0, 0.0))
print(f"lambda1 = dW1/dE1 = {lam1}")
print(f"lambda2 = dW2/dE2 = {lam2}")
print()

print("== forbidden region ==")
# attractive potential, low energy: the radicand under W1' goes negative
spec = LagrangianSpec(1.0, 1.0, 0.0, 0.0, -1.0, FractionalOrder(1.5), FractionalOrder(1.5))
pf = PrincipalFunction(spec, EnergyPartition(0.1, 1.0))
print(f"w1_slope at q=0: {pf.w1_slope(0.0):.6f}")
try:
    pf.w1_slope(2.0)
except ForbiddenRegionError as exc:
    print(f"w1_slope at q=2 raises ForbiddenRegionError: {exc}")
