"""Point transformation between deformed and standard Schrodinger form.

The transformation simultaneously changes the variable x = x(y) and
rescales the solution so the first-derivative term disappears, leaving
a conventional equation with an induced potential.  Coordinate changes
carry analytic derivatives up to third order, because the induced
potential needs x''' and numerical third derivatives would dominate
the error budget.

The maps of ``sqrt_map`` and ``exp_map``, ``induced_potential`` and
``energy_relation_residual`` take a float or an ndarray of y: floats
in, floats out.  An ndarray is evaluated as one grid (the mass and
potential must then accept it too), every entry equals the per-float
call bit for bit, and the guards are ``np.any`` tests, which reject the
grid, with the per-point message, if any point fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError
from .libm import exp, log, power
from .model import DunklParams, EnergyPotential, MassProfile, ParityFunction
from .numerics import parameter_derivative

COORD_SINGULARITY_GUARD = 1e-6


@dataclass(frozen=True)
class CoordinateChange:
    """Invertible map x(y) with analytic derivatives up to third order."""

    x_of_y: Callable[[float], float]
    d1: Callable[[float], float]
    d2: Callable[[float], float]
    d3: Callable[[float], float]
    y_of_x: Callable[[float], float]


@dataclass(frozen=True)
class SchrodingerForm:
    """Standard-form potential U(E, y) plus the constant spectral shift.

    ``epsilon_shift`` is the Dunkl-parameter constant that plays the
    role of the spectral parameter when the chain setting applies,
    else 0.
    """

    u_e: Callable[[float, float], float]
    epsilon_shift: float = 0.0


def _sqrt(y):
    # np.sqrt is correctly rounded like math.sqrt, but it turns a float
    # into an np.float64, whose ** is NumPy's power rather than libm's.
    return np.sqrt(y) if isinstance(y, np.ndarray) else math.sqrt(y)


def sqrt_map() -> CoordinateChange:
    """x = sqrt(y) on y > 0 (positive branch; parity extends to x < 0)."""
    return CoordinateChange(
        x_of_y=_sqrt,
        d1=lambda y: 0.5 * power(y, -0.5),
        d2=lambda y: -0.25 * power(y, -1.5),
        d3=lambda y: 0.375 * power(y, -2.5),
        y_of_x=lambda x: x * x,
    )


def exp_map() -> CoordinateChange:
    """x = exp(y) on the whole line, mapping onto x > 0."""
    return CoordinateChange(
        x_of_y=exp,
        d1=exp,
        d2=exp,
        d3=exp,
        y_of_x=log,
    )


def prefactor_exponent(params: DunklParams) -> float:
    """Exponent of x in the solution rescaling of the forward map."""
    nu, delta, mu = params.nu, params.delta, params.mu
    return nu - delta * nu / 2 + delta * nu / (2 * mu)


def forward_map(psi: ParityFunction, coord: CoordinateChange, mass: MassProfile,
                params: DunklParams, y: float) -> float:
    """Map a deformed-form solution to standard form: Phi(y)."""
    x = coord.x_of_y(y)
    if abs(x) < COORD_SINGULARITY_GUARD:
        raise DomainError("forward_map: too close to the coordinate singularity")
    radicand = 1.0 / (mass.m(x) * coord.d1(y))
    if radicand <= 0:
        raise DomainError("forward_map: transformation not real-valued here")
    return math.sqrt(radicand) * x ** prefactor_exponent(params) * psi.f(x)


def inverse_map(phi_hat: Callable[[float], float], coord: CoordinateChange,
                mass: MassProfile, params: DunklParams, x: float) -> float:
    """Algebraic inverse of the forward map: Psi(x) from Phi-hat."""
    if abs(x) < COORD_SINGULARITY_GUARD:
        raise DomainError("inverse_map: too close to the coordinate singularity")
    y = coord.y_of_x(x)
    radicand = mass.m(x) * coord.d1(y)
    if radicand <= 0:
        raise DomainError("inverse_map: transformation not real-valued here")
    return math.sqrt(radicand) * x ** (-prefactor_exponent(params)) * phi_hat(y)


def induced_potential(coord: CoordinateChange, mass: MassProfile,
                      potential: EnergyPotential, params: DunklParams,
                      E: float, y: float) -> float:
    """Induced standard-form potential U_E(y).

    This is the full potential condition of the transformation; every
    geometric and mass-gradient term is written out explicitly.
    """
    x = coord.x_of_y(y)
    if np.any(abs(x) < COORD_SINGULARITY_GUARD):
        raise DomainError("induced_potential: too close to the coordinate singularity")
    xp = coord.d1(y)
    if np.any(xp == 0):
        raise DomainError("induced_potential: coordinate change not invertible here")
    xpp = coord.d2(y)
    xppp = coord.d3(y)
    m = mass.m(x)
    m1 = mass.m1(x)
    m2 = mass.m2(x)
    nu, delta, mu = params.nu, params.delta, params.mu
    v = potential.v(E, x)
    xp2 = xp * xp
    x_sq = power(x, 2)
    with np.errstate(all="ignore"):     # overflow stays inf/NaN for the caller
        return (E
                - 2 * E * m * xp2
                + 2 * m * v * xp2
                - delta * nu * xp2 / (2 * x_sq)
                - delta * nu * xp2 / (2 * mu * x_sq)
                + nu**2 * xp2 / (2 * x_sq)
                + nu**2 * xp2 / (2 * mu * x_sq)
                - delta * nu * m1 * xp2 / (2 * m * x)
                - delta * nu * m1 * xp2 / (2 * mu * m * x)
                + 3 * power(m1, 2) * xp2 / (4 * m * m)
                - m2 * xp2 / (2 * m)
                + 3 * power(xpp, 2) / (4 * xp2)
                - xppp / (2 * xp))


def energy_relation_residual(coord: CoordinateChange, mass: MassProfile,
                             potential: EnergyPotential, params: DunklParams,
                             E: float, y: float) -> float:
    """Residual of the norm-preservation relation.

    For an energy-independent coordinate change,
    1 - dU/dE = 2 m(x(y)) x'(y)^2 (1 - dV/dE) must hold; the left-hand
    derivative is taken numerically through the induced potential.
    """
    du_dE = parameter_derivative(
        lambda e, yy: induced_potential(coord, mass, potential, params, e, yy), E, y)
    x = coord.x_of_y(y)
    rhs = 2 * mass.m(x) * power(coord.d1(y), 2) * (1.0 - potential.dv_dE(E, x))
    return (1.0 - du_dE) - rhs
