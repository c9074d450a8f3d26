"""Dunkl-Schrodinger problem definition.

A system couples a reflection-deformed derivative (deformation nu,
solution parity delta, mass parity mu) with a position-dependent mass
and an energy-dependent potential.  The module provides the residual
of the expanded governing equation, the weight exponent of the
underlying Hilbert space, and the modified probability density / norm
that account for the energy dependence of the potential through the
factor 1 - dV/dE.

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
from .libm import memo_scope, power
from .numerics import QuadratureResult, integrate_real_line

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
    """Function with definite parity; first derivative required, second optional.

    ``dunkl_residual`` needs the second derivative f2; the density and the
    parity check read only f.
    """

    f: Callable[[float], float]
    f1: Callable[[float], float]
    parity: int
    f2: Optional[Callable[[float], float]] = None

    def __post_init__(self):
        if self.parity not in (-1, 1):
            raise DomainError("ParityFunction: parity must be +-1")


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


def dunkl_residual(system: DunklSystem, psi: ParityFunction, E: float, x,
                   relative: bool = False):
    """Residual of the expanded governing equation at x (zero on solutions).

    With ``relative=True`` the residual is divided by the local scale,
    the sum of the magnitudes of the three contributing terms (where
    that sum is positive).  On a grid an overflowing or underflowing
    term gives inf or NaN (a squared mass that underflows to 0 divides
    by zero), and so does inf - inf or inf / inf; the residual reports
    it, and numpy's warnings for it are not emitted.
    """
    if np.any(x == 0):
        raise DomainError("dunkl_residual: x = 0 is outside the domain")
    if psi.parity != system.params.delta:
        raise ContractError("dunkl_residual: solution parity must match delta")
    if psi.f2 is None:
        raise ContractError("dunkl_residual: psi needs its second derivative f2")
    nu, delta, mu = system.params.nu, system.params.delta, system.params.mu
    m = system.mass.m(x)
    m1 = system.mass.m1(x)
    if np.any(m == 0):
        raise DomainError("dunkl_residual: mass vanishes at evaluation point")
    with memo_scope(), np.errstate(all="ignore"):     # f, f1 and f2 share their factors
        kin = psi.f2(x) / (2 * m)
        m_sq = power(m, 2)
        x_sq = power(x, 2)
        coeff1 = (-m1 / (2 * m_sq) + nu / (m * x) - nu * delta / (2 * m * x)
                  + nu * delta / (2 * mu * m * x))
        coeff0 = (-nu / (2 * m * x_sq) - nu * m1 / (2 * m_sq * x)
                  + nu * delta / (2 * m * x_sq) + nu * delta * m1 / (2 * m_sq * x)
                  + nu**2 / (2 * m * x_sq) - nu**2 * delta / (2 * m * x_sq)
                  + nu**2 * delta / (2 * mu * m * x_sq) - nu**2 / (2 * mu * m * x_sq)
                  + E - system.potential.v(E, x))
        t1, t0 = coeff1 * psi.f1(x), coeff0 * psi.f(x)
        res = kin + t1 + t0
        if not relative:
            return res
        scale = abs(kin) + abs(t1) + abs(t0)
        if isinstance(res, np.ndarray):
            return np.divide(res, scale, out=res.copy(), where=scale > 0)
        return res / scale if scale > 0 else res


def _weighted_amplitude(val, ax, w: float):
    """val^2 ax^w (ax > 0), elementwise; (|val| ax^(w/2))^2 where ax^w alone overflows.

    Only those change form (gaussian-mass from nu = 119.8), so the others
    keep their bits.  Where ax^(w/2) overflows too, ax^w's DomainError is raised.
    """
    try:
        return val * val * power(ax, w)
    except DomainError as exc:
        overflow = exc
    out = []
    for v, a in zip(np.atleast_1d(val).tolist(), np.atleast_1d(ax).tolist()):
        try:
            out.append(v * v * a ** w)
        except OverflowError:
            try:
                half = abs(v) * a ** (0.5 * w)
            except OverflowError:
                raise overflow from None
            out.append(half * half)
    return np.array(out) if isinstance(ax, np.ndarray) else out[0]


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
    # Far tail: the amplitude underflows before any growing factor of
    # the energy derivative can overflow; the density is zero there,
    # and dV/dE is evaluated only where the amplitude survives.
    if grid:
        with np.errstate(all="ignore"):     # an overflow stays inf for the caller
            live = val * val != 0.0
            xs = x[live]
            density = np.zeros_like(val)
            density[live] = (_weighted_amplitude(val[live], np.abs(xs), w)
                             * (1.0 - system.potential.dv_dE(E, xs)))
        return density
    if val * val == 0.0:
        return 0.0
    return _weighted_amplitude(val, abs(x), w) * (1.0 - system.potential.dv_dE(E, x))


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
