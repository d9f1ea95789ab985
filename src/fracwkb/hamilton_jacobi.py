"""Additive separation of the Hamilton-Jacobi equation.

In the transformed coordinates (u1, u2) conjugate to the two fractional
velocities the principal function separates as

    S = W1(q; e1) * u1 + W2(e2) * u2 - (e1 + e2) * t

with slopes

    W1' = l_alpha + sqrt(c_alpha * (v * q**2 + 2 e1))
    W2' = l_beta + sqrt(2 c_beta * e2)

The slopes are exactly the canonical momenta, so substituting them into
the Hamiltonian returns e1 + e2 identically; hj_residual measures how
far floating point falls from that identity.  Differentiating S with
respect to each energy share gives the separation constants lambda1 and
lambda2, the coordinates conjugate to the partition.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ForbiddenRegionError, ZeroEnergyError
from .mechanics import LagrangianSpec, Momenta, legendre_transform

__all__ = [
    "EnergyPartition",
    "TransformedPoint",
    "PrincipalFunction",
    "separate",
    "evaluate_S",
    "momenta_from_S",
    "lambda_constants",
    "hj_residual",
]


class EnergyPartition(NamedTuple("EnergyPartition", [("e1", float), ("e2", float)])):
    """Split of the conserved energy between the two separated sectors."""

    __slots__ = ()

    def __new__(cls, e1: float, e2: float) -> EnergyPartition:
        if not (math.isfinite(e1) and math.isfinite(e2)):
            raise ValueError("energy shares must be finite")
        if e1 < 0.0 or e2 < 0.0:
            raise ValueError(f"energy shares must be >= 0, got {e1!r}, {e2!r}")
        return super().__new__(cls, e1, e2)

    @property
    def total(self) -> float:
        return self.e1 + self.e2


class PointColumns(NamedTuple):
    """Points of many members: TransformedPoint's unchecked batch counterpart."""

    u1: np.ndarray
    u2: np.ndarray
    t: np.ndarray
    q: np.ndarray


class TransformedPoint(PointColumns):
    """Evaluation point (u1, u2, t) plus the coordinate q entering W1."""

    __slots__ = ()

    def __new__(cls, u1: float, u2: float, t: float, q: float = 0.0) -> TransformedPoint:
        for name, value in zip(cls._fields, (u1, u2, t, q)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        return super().__new__(cls, u1, u2, t, q)


class PrincipalFunction(NamedTuple):
    """Separated principal function for one spec and energy partition."""

    spec: LagrangianSpec
    energies: EnergyPartition

    def w1_radicand(self, q: float) -> float:
        return self.spec.c_alpha * (self.spec.v * q * q + 2.0 * self.energies.e1)

    def w1_slope(self, q: float) -> float:
        radicand = self.w1_radicand(q)
        if radicand < 0.0:
            raise ForbiddenRegionError(
                f"W1 slope imaginary at q={q!r}: radicand {radicand!r} < 0"
            )
        spec, e1 = self.spec, self.energies.e1
        slope = spec.l_alpha + math.sqrt(radicand)
        if not math.isfinite(slope):
            raise ValueError(
                f"W1 slope must be finite, got {slope!r} at c_alpha = {spec.c_alpha!r},"
                f" l_alpha = {spec.l_alpha!r}, v = {spec.v!r}, q = {q!r}, e1 = {e1!r}"
            )
        return slope

    @property
    def w2_slope(self) -> float:
        spec, e2 = self.spec, self.energies.e2
        slope = spec.l_beta + math.sqrt(2.0 * spec.c_beta * e2)
        if not math.isfinite(slope):
            raise ValueError(
                f"W2 slope must be finite, got {slope!r} at c_beta = {spec.c_beta!r},"
                f" l_beta = {spec.l_beta!r}, e2 = {e2!r}"
            )
        return slope


def separate(spec: LagrangianSpec, energies: EnergyPartition) -> PrincipalFunction:
    """Build the separated principal function for this spec and partition.

    Always succeeds for valid inputs; a negative W1 radicand (possible
    when v < 0) is reported at evaluation time, per point.
    """
    return PrincipalFunction(spec, energies)


def evaluate_S(pf: PrincipalFunction, point: TransformedPoint) -> float:
    """Value of S at the point: slope terms minus total energy times t."""
    return (
        pf.w1_slope(point.q) * point.u1
        + pf.w2_slope * point.u2
        - pf.energies.total * point.t
    )


def momenta_from_S(pf: PrincipalFunction, point: TransformedPoint) -> Momenta:
    """Momenta dS/du1, dS/du2: by construction these are the W slopes."""
    return Momenta(pf.w1_slope(point.q), pf.w2_slope)


def lambda_constants(pf: PrincipalFunction, point: TransformedPoint) -> tuple[float, float]:
    """Separation constants: energy derivatives of the W parts of S.

    lambda1 differentiates W1(q; e1) * u1 with respect to e1, lambda2
    differentiates W2(e2) * u2 with respect to e2.  Both require
    strictly positive radicands; a zero energy share would put a zero
    under the square-root derivative, so it raises ZeroEnergyError
    instead of returning infinity.
    """
    if pf.energies.e1 <= 0.0 or pf.energies.e2 <= 0.0:
        raise ZeroEnergyError("lambda constants need e1 > 0 and e2 > 0")
    pf.w1_slope(point.q)  # raises on a negative radicand
    radicand1 = pf.w1_radicand(point.q)
    if radicand1 == 0.0:
        raise ZeroEnergyError("lambda1 undefined where the W1 radicand vanishes")
    lambda1 = pf.spec.c_alpha * point.u1 / math.sqrt(radicand1)
    lambda2 = pf.spec.c_beta * point.u2 / math.sqrt(2.0 * pf.spec.c_beta * pf.energies.e2)
    return lambda1, lambda2


def hj_residual(pf: PrincipalFunction, point: TransformedPoint) -> float:
    """H(dS/du, q) + dS/dt, which vanishes for an exact solution.

    Routed through the mechanics Legendre transform rather than a local
    re-derivation, so the identity is checked across module boundaries.
    """
    momenta = momenta_from_S(pf, point)
    return legendre_transform(pf.spec, momenta, point.q) - pf.energies.total
