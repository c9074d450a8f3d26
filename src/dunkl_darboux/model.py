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

A state and a mass profile are read as jets: one call at x gives the
value and the derivatives the caller needs.  ``dunkl_residual`` takes a
float or an ndarray of x: a float in, a float out.  An ndarray is
evaluated as one grid, and every entry equals the per-float call bit for
bit (powers go through ``libm.power``).  The residual reads the mass,
the state and its own x^2 on one ``libm.Grid``, so a factor they share
is evaluated once.  ``probability_density`` takes an ndarray of x, a
grid or a level of quadrature nodes.  The guards are ``np.any`` tests,
which reject a grid, with the per-point message, if any of its points
fails.  ``state_checks`` reads psi once for both of ``verify``'s checks
of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .errors import ContractError, DomainError
from .libm import Grid, power
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
    """Mass profile with definite parity: jet(x) gives (m, m', m''), m a view of it."""

    jet: Callable[[float], Tuple[float, float, float]]
    parity: int

    def __post_init__(self):
        if self.parity not in (-1, 1):
            raise DomainError("MassProfile: parity must be +-1")

    def m(self, x):
        return self.jet(x)[0]


@dataclass(frozen=True)
class EnergyPotential:
    """Potential V(E, x) together with its energy derivative dV/dE."""

    v: Callable[[float, float], float]
    dv_dE: Callable[[float, float], float]


@dataclass(frozen=True)
class ParityFunction:
    """Function with definite parity, read as its jet.

    jet(x, k) gives (f, f', ..., f^(k)) at x for k up to 2, with the
    factors they share computed once and the others not at all (the
    density and the parity check read only f, its view ``f``).
    """

    jet: Callable[[float, int], tuple]
    parity: int

    def __post_init__(self):
        if self.parity not in (-1, 1):
            raise DomainError("ParityFunction: parity must be +-1")

    def f(self, x):
        return self.jet(x, 0)[0]


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


def _mass_at(system: DunklSystem, psi: ParityFunction, x):
    """(m, m') at x, after the refusals of ``dunkl_residual`` that come before psi is read."""
    if np.any(x == 0):
        raise DomainError("dunkl_residual: x = 0 is outside the domain")
    if psi.parity != system.params.delta:
        raise ContractError("dunkl_residual: solution parity must match delta")
    m, m1, _ = system.mass.jet(x)
    if np.any(m == 0):
        raise DomainError("dunkl_residual: mass vanishes at evaluation point")
    return m, m1


def _residual(system: DunklSystem, E: float, x, m, m1, jet, relative: bool):
    """The residual of ``dunkl_residual`` at x from (m, m') and psi's jet (f, f', f'') there."""
    nu, delta, mu = system.params.nu, system.params.delta, system.params.mu
    f, f1, f2 = jet
    with np.errstate(all="ignore"):
        kin = f2 / (2 * m)
        m_sq = power(m, 2)
        x_sq = power(x, 2)
        coeff1 = (-m1 / (2 * m_sq) + nu / (m * x) - nu * delta / (2 * m * x)
                  + nu * delta / (2 * mu * m * x))
        coeff0 = (-nu / (2 * m * x_sq) - nu * m1 / (2 * m_sq * x)
                  + nu * delta / (2 * m * x_sq) + nu * delta * m1 / (2 * m_sq * x)
                  + nu**2 / (2 * m * x_sq) - nu**2 * delta / (2 * m * x_sq)
                  + nu**2 * delta / (2 * mu * m * x_sq) - nu**2 / (2 * mu * m * x_sq)
                  + E - system.potential.v(E, x))
        t1, t0 = coeff1 * f1, coeff0 * f
        res = kin + t1 + t0
        if not relative:
            return res
        scale = abs(kin) + abs(t1) + abs(t0)
        if isinstance(res, np.ndarray):
            return np.divide(res, scale, out=res.copy(), where=scale > 0)
        return res / scale if scale > 0 else res


def dunkl_residual(system: DunklSystem, psi: ParityFunction, E: float, x,
                   relative: bool = False):
    """Residual of the expanded governing equation at x (zero on solutions).

    With ``relative=True`` the residual is divided by the local scale,
    the sum of the magnitudes of the three contributing terms (where
    that sum is positive).  On a grid an overflowing or underflowing
    term gives inf or NaN (a squared mass that underflows to 0 divides
    by zero), and so does inf - inf or inf / inf; the residual reports
    it, and numpy's warnings for it are not emitted.  psi is read once,
    as its jet of order 2.
    """
    x = Grid(x) if isinstance(x, np.ndarray) else x
    m, m1 = _mass_at(system, psi, x)
    with np.errstate(all="ignore"):     # an overflow stays inf or NaN, which the residual reports
        jet = psi.jet(x, 2)
    return _residual(system, E, x, m, m1, jet, relative)


def state_checks(system: DunklSystem, psi: ParityFunction, E: float, grid: np.ndarray):
    """``verify``'s checks of psi on grid: (relative ``dunkl_residual``, parity defect).

    The parity defect is max |f(-x) - parity f(x)| over the grid's points
    x > 0 (0.0 if none; NaN if a value is NaN).  psi is read once, at the
    grid and at the reflections of those points (``Grid.reflected``), and
    the mass, psi and the residual share the grid's factors.
    """
    grid = Grid(grid)
    m, m1 = _mass_at(system, psi, grid)
    n = grid.size
    with np.errstate(all="ignore"):     # as in dunkl_residual
        f, f1, f2 = psi.jet(grid.reflected(), 2)
    res = _residual(system, E, grid, m, m1, (f[:n], f1[:n], f2[:n]), True)
    pos = grid > 0
    if not pos.any():
        return res, 0.0
    return res, float(np.max(np.abs(f[n:] - psi.parity * f[:n][pos])))


def _weighted_amplitude(val: np.ndarray, ax: np.ndarray, w: float) -> np.ndarray:
    """val^2 ax^w (ax > 0), elementwise; (|val| ax^(w/2))^2 where ax^w alone overflows.

    Only those change form (gaussian-mass from nu = 119.8), so the others
    keep their bits.  Where ax^(w/2) overflows too, ax^w's DomainError is raised.
    """
    try:
        return val * val * power(ax, w)
    except DomainError as exc:
        overflow = exc
    out = []
    for v, a in zip(val.tolist(), ax.tolist()):
        try:
            out.append(v * v * a ** w)
        except OverflowError:
            try:
                half = abs(v) * a ** (0.5 * w)
            except OverflowError:
                raise overflow from None
            out.append(half * half)
    return np.array(out)


def probability_density(system: DunklSystem, psi: ParityFunction, E: float,
                        x: np.ndarray) -> np.ndarray:
    """Modified probability density |psi|^2 |x|^w (1 - dV/dE) at the points x, an ndarray.

    It is the integrand of ``modified_norm``, which calls it on all the
    nodes of a quadrature level at once; psi, |x|^w and dV/dE read x as
    one ``libm.Grid`` where the amplitude survives everywhere.
    """
    if np.any(x == 0):
        raise DomainError("probability_density: x = 0 is outside the domain")
    w = weight_exponent(system.params)
    x = Grid(x)
    val = psi.f(x)
    # Far tail: the amplitude underflows before any growing factor of
    # the energy derivative can overflow; the density is zero there,
    # and dV/dE is evaluated only where the amplitude survives.
    with np.errstate(all="ignore"):     # an overflow stays inf for the caller
        live = val * val != 0.0
        xs = x if live.all() else x[live]
        density = np.zeros_like(val)
        density[live] = (_weighted_amplitude(val[live], xs.absolute()[0], w)
                         * (1.0 - system.potential.dv_dE(E, xs)))
    return density


def modified_norm(system: DunklSystem, psi: ParityFunction, E: float) -> QuadratureResult:
    """Norm integral of the modified density over the real line."""
    return integrate_real_line(lambda x: probability_density(system, psi, E, x))
