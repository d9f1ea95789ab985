"""Quadratic Lagrangian family with two fractional velocities.

The family is

    L = c_alpha/2 * d_alpha_q**2 + c_beta/2 * d_beta_q**2
      + l_alpha * d_alpha_q + l_beta * d_beta_q + v/2 * q**2

where d_alpha_q is the left derivative of order alpha and d_beta_q the
right derivative of order beta.  Both kinetic coefficients must be
positive so the Legendre transform is well defined.  The Hamiltonian it
produces is

    H = (p_alpha - l_alpha)**2 / (2 c_alpha)
      + (p_beta - l_beta)**2 / (2 c_beta) - v/2 * q**2

Note the sign of the potential term: the q**2 contribution enters the
Hamiltonian with the opposite sign to the Lagrangian because q is not a
velocity and the transform only touches the velocity slots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .fracops import FractionalOrder

__all__ = [
    "LagrangianSpec",
    "KinematicState",
    "Momenta",
    "HamiltonRHS",
    "example1",
    "example2",
    "canonical_momenta",
    "legendre_transform",
    "hamilton_rhs",
]


def _require_finite(**named: float) -> None:
    for name, value in named.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class LagrangianSpec:
    """Coefficients of one member of the Lagrangian family.

    c_alpha and c_beta multiply the squared fractional velocities,
    l_alpha and l_beta are the linear drive terms, and v scales the
    q**2 potential.  Orders must be at least one so the classical limit
    alpha = beta = 1 sits inside the family.
    """

    c_alpha: float
    c_beta: float
    l_alpha: float
    l_beta: float
    v: float
    alpha: FractionalOrder
    beta: FractionalOrder

    def __post_init__(self) -> None:
        _require_finite(
            c_alpha=self.c_alpha,
            c_beta=self.c_beta,
            l_alpha=self.l_alpha,
            l_beta=self.l_beta,
            v=self.v,
        )
        if self.c_alpha <= 0.0 or self.c_beta <= 0.0:
            raise ValueError("kinetic coefficients c_alpha, c_beta must be positive")
        if self.alpha.value < 1.0 or self.beta.value < 1.0:
            raise ValueError("orders must be at least 1")

    def lagrangian(self, state: "KinematicState") -> float:
        return (
            0.5 * self.c_alpha * state.d_alpha_q**2
            + 0.5 * self.c_beta * state.d_beta_q**2
            + self.l_alpha * state.d_alpha_q
            + self.l_beta * state.d_beta_q
            + 0.5 * self.v * state.q**2
        )


@dataclass(frozen=True)
class KinematicState:
    """Coordinate plus the two fractional velocities at one instant."""

    q: float
    d_alpha_q: float
    d_beta_q: float

    def __post_init__(self) -> None:
        _require_finite(q=self.q, d_alpha_q=self.d_alpha_q, d_beta_q=self.d_beta_q)


@dataclass(frozen=True)
class Momenta:
    """Canonical momenta conjugate to the two fractional velocities."""

    p_alpha: float
    p_beta: float

    def __post_init__(self) -> None:
        _require_finite(p_alpha=self.p_alpha, p_beta=self.p_beta)


class HamiltonRHS(NamedTuple):
    """Gradient of H: velocities recovered from momenta, plus the force slot."""

    d_p_alpha: float
    d_p_beta: float
    d_q: float


def example1(alpha: float = 1.5, beta: float = 1.5) -> LagrangianSpec:
    """Free model: unit kinetic terms, no drive, no potential."""
    return LagrangianSpec(1.0, 1.0, 0.0, 0.0, 0.0, FractionalOrder(alpha), FractionalOrder(beta))


def example2(alpha: float = 1.5, beta: float = 1.5) -> LagrangianSpec:
    """Driven model: every coefficient equal to one."""
    return LagrangianSpec(1.0, 1.0, 1.0, 1.0, 1.0, FractionalOrder(alpha), FractionalOrder(beta))


def canonical_momenta(spec: LagrangianSpec, state: KinematicState) -> Momenta:
    """Momenta dL/d(velocity): p = c * velocity + l on each slot."""
    return Momenta(
        spec.c_alpha * state.d_alpha_q + spec.l_alpha,
        spec.c_beta * state.d_beta_q + spec.l_beta,
    )


def legendre_transform(spec: LagrangianSpec, momenta: Momenta, q: float) -> float:
    """Hamiltonian value at the given momenta and coordinate."""
    _require_finite(q=q)
    try:
        q_squared = q**2
    except OverflowError:
        raise ValueError(f"q**2 overflows a float at q = {q!r}") from None
    return (
        (momenta.p_alpha - spec.l_alpha) ** 2 / (2.0 * spec.c_alpha)
        + (momenta.p_beta - spec.l_beta) ** 2 / (2.0 * spec.c_beta)
        - 0.5 * spec.v * q_squared
    )


def hamilton_rhs(spec: LagrangianSpec, momenta: Momenta, q: float) -> HamiltonRHS:
    """Partial derivatives of H with respect to p_alpha, p_beta and q.

    The momentum slots recover the fractional velocities; the q slot is
    the algebraic partial -v * q.  How that slot pairs with an equation
    of motion is left to the caller, since the two velocities evolve
    under different one-sided operators.
    """
    _require_finite(q=q)
    return HamiltonRHS(
        (momenta.p_alpha - spec.l_alpha) / spec.c_alpha,
        (momenta.p_beta - spec.l_beta) / spec.c_beta,
        -spec.v * q,
    )
