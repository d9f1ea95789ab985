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
from typing import NamedTuple

import numpy as np

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


def _named_square(name: str, value: float) -> float:
    square = value * value
    if math.isinf(square):
        raise ValueError(f"{name}**2 overflows a float at {name} = {value!r}")
    return square


class FamilyColumns(NamedTuple):
    """Coefficients and orders of many family members, one array (or float) each.

    The unchecked batch counterpart of LagrangianSpec, which subclasses
    it; the orders are plain floats here.  No model quantity reads the
    orders: batch code only checks them.
    """

    c_alpha: np.ndarray
    c_beta: np.ndarray
    l_alpha: np.ndarray
    l_beta: np.ndarray
    v: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray


class MomentumColumns(NamedTuple):
    """Canonical momenta of many members: Momenta's unchecked batch counterpart."""

    p_alpha: np.ndarray
    p_beta: np.ndarray


class LagrangianSpec(FamilyColumns):
    """Coefficients of one member of the Lagrangian family.

    c_alpha and c_beta multiply the squared fractional velocities,
    l_alpha and l_beta are the linear drive terms, and v scales the
    q**2 potential.  Orders must be at least one so the classical limit
    alpha = beta = 1 sits inside the family.
    """

    __slots__ = ()

    def __new__(
        cls, c_alpha: float, c_beta: float, l_alpha: float, l_beta: float, v: float,
        alpha: FractionalOrder, beta: FractionalOrder,
    ) -> LagrangianSpec:
        _require_finite(c_alpha=c_alpha, c_beta=c_beta, l_alpha=l_alpha, l_beta=l_beta, v=v)
        if c_alpha <= 0.0 or c_beta <= 0.0:
            raise ValueError("kinetic coefficients c_alpha, c_beta must be positive")
        if alpha.value < 1.0 or beta.value < 1.0:
            raise ValueError(
                f"orders alpha and beta must be at least 1, got {alpha.value!r},"
                f" {beta.value!r}"
            )
        return super().__new__(cls, c_alpha, c_beta, l_alpha, l_beta, v, alpha, beta)

    def lagrangian(self, state: "KinematicState") -> float:
        return (
            0.5 * self.c_alpha * _named_square("d_alpha_q", state.d_alpha_q)
            + 0.5 * self.c_beta * _named_square("d_beta_q", state.d_beta_q)
            + self.l_alpha * state.d_alpha_q
            + self.l_beta * state.d_beta_q
            + 0.5 * self.v * _named_square("q", state.q)
        )


class KinematicState(
    NamedTuple("KinematicState", [("q", float), ("d_alpha_q", float), ("d_beta_q", float)])
):
    """Coordinate plus the two fractional velocities at one instant."""

    __slots__ = ()

    def __new__(cls, q: float, d_alpha_q: float, d_beta_q: float) -> KinematicState:
        _require_finite(q=q, d_alpha_q=d_alpha_q, d_beta_q=d_beta_q)
        return super().__new__(cls, q, d_alpha_q, d_beta_q)


class Momenta(MomentumColumns):
    """Canonical momenta conjugate to the two fractional velocities."""

    __slots__ = ()

    def __new__(cls, p_alpha: float, p_beta: float) -> Momenta:
        _require_finite(p_alpha=p_alpha, p_beta=p_beta)
        return super().__new__(cls, p_alpha, p_beta)


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


def legendre_transform(
    spec: LagrangianSpec | FamilyColumns,
    momenta: Momenta | MomentumColumns,
    q: float | np.ndarray,
) -> float | np.ndarray:
    """Hamiltonian value at the given momenta and coordinate.

    With an array q (and FamilyColumns, MomentumColumns whose fields
    broadcast against it) the value is computed element by element.
    Arrays do not raise: where a float call raises (q not finite, q * q
    overflowing) the element is not finite.  Every square is a product,
    so an element equals the float call's value bit for bit.
    """
    if not np.ndim(q):
        _require_finite(q=q)
    with np.errstate(over="ignore", invalid="ignore"):
        q_squared = q * q if np.ndim(q) else _named_square("q", q)
        kinetic_alpha = momenta.p_alpha - spec.l_alpha
        kinetic_beta = momenta.p_beta - spec.l_beta
        return (
            kinetic_alpha * kinetic_alpha / (2.0 * spec.c_alpha)
            + kinetic_beta * kinetic_beta / (2.0 * spec.c_beta)
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
