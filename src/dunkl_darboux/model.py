"""Dunkl-Schrodinger problem definition.

A system couples a reflection-deformed derivative (deformation nu,
solution parity delta, mass parity mu) with a position-dependent mass
and an energy-dependent potential.  The module provides the operator
action on parity eigenfunctions, the residual of the expanded governing
equation, the weight exponent of the underlying Hilbert space, and the
modified probability density / norm that account for the energy
dependence of the potential through the factor 1 - dV/dE.

Parity is carried as explicit metadata on functions: it is a modeling
assumption, not a detected property.  The domain is the punctured line;
evaluation at x = 0 is rejected rather than regularized.

``dunkl_residual`` and ``probability_density`` take a float or an
ndarray of x: floats in, floats out.  An ndarray is evaluated as one
grid, so the functions of the system and of psi must then accept it
too, and every entry equals the per-float call bit for bit (powers go
through ``libm.power``).  The guards are ``np.any`` tests, which reject
a grid, with the per-point message, if any of its points fails.
``sampled_parity_defect`` evaluates f on all its samples at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ContractError, DomainError
from .libm import power
from .numerics import QuadratureResult, derivative, integrate_real_line

ADMISSIBLE_OK = "ok"
ADMISSIBLE_CASE_BY_CASE = "requires_case_analysis"
ADMISSIBLE_REJECTED = "rejected"


@dataclass(frozen=True)
class DunklParams:
    """Deformation strength nu, solution parity delta, mass parity mu."""

    nu: float
    delta: int
    mu: int

    def __post_init__(self):
        if self.delta not in (-1, 1) or self.mu not in (-1, 1):
            raise DomainError("DunklParams: delta and mu must be +-1")
        if not math.isfinite(self.nu):
            raise DomainError("DunklParams: nu must be finite")


@dataclass(frozen=True)
class MassProfile:
    """Mass profile with first and second derivative and definite parity."""

    m: Callable[[float], float]
    m1: Callable[[float], float]
    m2: Callable[[float], float]
    parity: int

    def __post_init__(self):
        if self.parity not in (-1, 1):
            raise DomainError("MassProfile: parity must be +-1")


@dataclass(frozen=True)
class EnergyPotential:
    """Potential V(E, x) together with its energy derivative dV/dE."""

    v: Callable[[float, float], float]
    dv_dE: Callable[[float, float], float]


@dataclass(frozen=True)
class ParityFunction:
    """Function with definite parity; first derivative required, second optional."""

    f: Callable[[float], float]
    f1: Callable[[float], float]
    parity: int
    f2: Optional[Callable[[float], float]] = None

    def __post_init__(self):
        if self.parity not in (-1, 1):
            raise DomainError("ParityFunction: parity must be +-1")

    def second_derivative(self, x: float) -> float:
        if self.f2 is not None:
            return self.f2(x)
        return derivative(self.f1, x, 1)


@dataclass(frozen=True)
class DunklSystem:
    """Problem instance: parameters, mass, potential on the punctured line."""

    params: DunklParams
    mass: MassProfile
    potential: EnergyPotential

    def __post_init__(self):
        if self.mass.parity != self.params.mu:
            raise ContractError("DunklSystem: mass parity must equal params.mu")


def weight_exponent(params: DunklParams) -> float:
    """Exponent of |x| in the weight function of the Hilbert space."""
    nu, delta, mu = params.nu, params.delta, params.mu
    return 2 * nu - delta * nu + delta * nu / mu


def admissible(params: DunklParams, energy_dependent: bool) -> str:
    """Normalizability gate for the weight exponent.

    With an energy-independent potential the exponent must exceed -1;
    an energy-dependent potential can create or remove singularities,
    so admissibility must be settled per scenario.
    """
    if energy_dependent:
        return ADMISSIBLE_CASE_BY_CASE
    return ADMISSIBLE_OK if weight_exponent(params) > -1 else ADMISSIBLE_REJECTED


def dunkl_apply(f: ParityFunction, x: float, params: DunklParams) -> float:
    """Action of the deformed derivative on a parity eigenfunction.

    The reflection term is resolved through the parity eigenvalue:
    D f = f' + (nu/x) (1 - parity) f.
    """
    if x == 0:
        raise DomainError("dunkl_apply: x = 0 is outside the domain")
    return f.f1(x) + (params.nu / x) * (1 - f.parity) * f.f(x)


def _residual_terms(system: DunklSystem, psi: ParityFunction, E: float, x):
    """The three terms of the residual; non-finite grid entries stay silent.

    On a grid an overflowing or underflowing term gives inf or NaN (a
    squared mass that underflows to 0 divides by zero), which the
    residual reports; numpy's warnings for it are not emitted.
    """
    nu, delta, mu = system.params.nu, system.params.delta, system.params.mu
    m = system.mass.m(x)
    m1 = system.mass.m1(x)
    if np.any(m == 0):
        raise DomainError("dunkl_residual: mass vanishes at evaluation point")
    with np.errstate(all="ignore"):
        kin = psi.second_derivative(x) / (2 * m)
        m_sq = power(m, 2)
        x_sq = power(x, 2)
        coeff1 = (-m1 / (2 * m_sq) + nu / (m * x) - nu * delta / (2 * m * x)
                  + nu * delta / (2 * mu * m * x))
        coeff0 = (-nu / (2 * m * x_sq) - nu * m1 / (2 * m_sq * x)
                  + nu * delta / (2 * m * x_sq) + nu * delta * m1 / (2 * m_sq * x)
                  + nu**2 / (2 * m * x_sq) - nu**2 * delta / (2 * m * x_sq)
                  + nu**2 * delta / (2 * mu * m * x_sq) - nu**2 / (2 * mu * m * x_sq)
                  + E - system.potential.v(E, x))
        return kin, coeff1 * psi.f1(x), coeff0 * psi.f(x)


def dunkl_residual(system: DunklSystem, psi: ParityFunction, E: float, x,
                   relative: bool = False):
    """Residual of the expanded governing equation at x (zero on solutions).

    With ``relative=True`` the residual is divided by the local scale,
    the sum of the magnitudes of the three contributing terms (where
    that sum is positive).
    """
    if np.any(x == 0):
        raise DomainError("dunkl_residual: x = 0 is outside the domain")
    if psi.parity != system.params.delta:
        raise ContractError("dunkl_residual: solution parity must match delta")
    kin, t1, t0 = _residual_terms(system, psi, E, x)
    res = kin + t1 + t0
    if not relative:
        return res
    scale = abs(kin) + abs(t1) + abs(t0)
    if isinstance(res, np.ndarray):
        with np.errstate(all="ignore"):     # inf / inf is NaN: the check fails
            return np.divide(res, scale, out=res.copy(), where=scale > 0)
    return res / scale if scale > 0 else res


def probability_density(system: DunklSystem, psi: ParityFunction, E: float, x):
    """Modified probability density |psi|^2 |x|^w (1 - dV/dE).

    On an ndarray it is the integrand of ``modified_norm``, which calls
    it on all the nodes of a quadrature level at once.
    """
    grid = isinstance(x, np.ndarray)
    if np.any(x == 0) if grid else x == 0:
        raise DomainError("probability_density: x = 0 is outside the domain")
    w = weight_exponent(system.params)
    val = psi.f(x)
    amp2 = val * val
    # Far tail: the amplitude underflows before any growing factor of
    # the energy derivative can overflow; the density is zero there,
    # and dV/dE is evaluated only where the amplitude survives.
    if grid:
        live = amp2 != 0.0
        xs = x[live]
        density = np.zeros_like(amp2)
        density[live] = (amp2[live] * power(np.abs(xs), w)
                         * (1.0 - system.potential.dv_dE(E, xs)))
        return density
    if amp2 == 0.0:
        return 0.0
    return amp2 * power(abs(x), w) * (1.0 - system.potential.dv_dE(E, x))


def modified_norm(system: DunklSystem, psi: ParityFunction, E: float) -> QuadratureResult:
    """Norm integral of the modified density over the real line."""
    return integrate_real_line(lambda x: probability_density(system, psi, E, x))


def sampled_parity_defect(f: ParityFunction, xs) -> float:
    """Max |f(-x) - parity * f(x)| over the sampled x > 0 (0.0 if none).

    ``verify`` reports it as the parity_defect check.  f is evaluated
    once on the positive samples and once on their reflections, so it
    must accept an ndarray; a NaN defect is returned as NaN.
    """
    xs = np.asarray(xs, dtype=float)
    xs = xs[xs > 0]
    if not xs.size:
        return 0.0
    return float(np.max(np.abs(f.f(-xs) - f.parity * f.f(xs))))
