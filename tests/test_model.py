"""Governing-equation residuals, weight exponent, densities and norms.

The residual of the general expanded equation is cross-checked against
independently coded specializations: odd mass parity, even mass parity,
and constant mass m = 1/2.  Those forms are written out here from
scratch so an error in the library's coefficient bookkeeping cannot
cancel against itself.
"""

import math

import numpy as np
import pytest

from dunkl_darboux.errors import ContractError, DomainError
from dunkl_darboux.libm import exp
from dunkl_darboux.model import (DunklParams, DunklSystem, EnergyPotential,
                                 MassProfile, ParityFunction, dunkl_residual,
                                 modified_norm, probability_density,
                                 sampled_parity_defect, weight_exponent)


def _odd_mass_residual(m, m1, v, nu, delta, E, psi, x):
    """Independent coding of the mu = -1 specialization."""
    c1 = -m1(x) / (2 * m(x) ** 2) + nu / (m(x) * x) - nu * delta / (m(x) * x)
    c0 = (-nu / (2 * m(x) * x**2) - nu * m1(x) / (2 * m(x) ** 2 * x)
          + nu * delta / (2 * m(x) * x**2) + nu * delta * m1(x) / (2 * m(x) ** 2 * x)
          + nu**2 / (m(x) * x**2) - nu**2 * delta / (m(x) * x**2)
          + E - v(E, x))
    return psi.f2(x) / (2 * m(x)) + c1 * psi.f1(x) + c0 * psi.f(x)


def _even_mass_residual(m, m1, v, nu, delta, E, psi, x):
    """Independent coding of the mu = +1 specialization."""
    c1 = -m1(x) / (2 * m(x) ** 2) + nu / (m(x) * x)
    c0 = (-nu / (2 * m(x) * x**2) - nu * m1(x) / (2 * m(x) ** 2 * x)
          + nu * delta / (2 * m(x) * x**2) + nu * delta * m1(x) / (2 * m(x) ** 2 * x)
          + E - v(E, x))
    return psi.f2(x) / (2 * m(x)) + c1 * psi.f1(x) + c0 * psi.f(x)


def _constant_mass_residual(v, nu, delta, E, psi, x):
    """Independent coding of the m = 1/2 specialization."""
    return (psi.f2(x) + (2 * nu / x) * psi.f1(x)
            + ((nu * delta - nu) / x**2 + E - v(E, x)) * psi.f(x))


def _smooth_state(delta):
    if delta == -1:
        return ParityFunction(
            f=lambda x: x * exp(-0.3 * x * x),
            f1=lambda x: (1 - 0.6 * x * x) * exp(-0.3 * x * x),
            f2=lambda x: (-1.8 * x + 0.36 * x**3) * exp(-0.3 * x * x),
            parity=-1)
    return ParityFunction(
        f=lambda x: exp(-0.3 * x * x),
        f1=lambda x: -0.6 * x * exp(-0.3 * x * x),
        f2=lambda x: (0.36 * x * x - 0.6) * exp(-0.3 * x * x),
        parity=1)


def test_params_validation():
    with pytest.raises(DomainError):
        DunklParams(nu=1.0, delta=0, mu=1)
    with pytest.raises(DomainError):
        DunklParams(nu=math.inf, delta=1, mu=1)


def test_weight_exponent():
    # 2 nu - delta nu + delta nu / mu
    assert weight_exponent(DunklParams(nu=1.0, delta=-1, mu=-1)) == pytest.approx(4.0)
    assert weight_exponent(DunklParams(nu=0.5, delta=-1, mu=1)) == pytest.approx(1.0)
    assert weight_exponent(DunklParams(nu=0.5, delta=1, mu=1)) == pytest.approx(1.0)


def test_residual_specialization_odd_mass():
    nu, delta, E = 0.8, -1, 1.3
    m = lambda x: x * (1.0 + 0.1 * x * x)
    m1 = lambda x: 1.0 + 0.3 * x * x
    m2 = lambda x: 0.6 * x
    v = lambda e, x: 0.2 * x * x + 0.1 * e
    system = DunklSystem(
        params=DunklParams(nu=nu, delta=delta, mu=-1),
        mass=MassProfile(m=m, m1=m1, m2=m2, parity=-1),
        potential=EnergyPotential(v=v, dv_dE=lambda e, x: 0.1))
    psi = _smooth_state(delta)
    for x in (0.5, 1.2, 2.4):
        want = _odd_mass_residual(m, m1, v, nu, delta, E, psi, x)
        assert dunkl_residual(system, psi, E, x) == pytest.approx(want, rel=1e-10)


def test_residual_specialization_even_mass():
    nu, delta, E = 1.4, 1, 0.9
    m = lambda x: 1.0 + 0.2 * x * x
    m1 = lambda x: 0.4 * x
    m2 = lambda x: 0.4
    v = lambda e, x: 0.3 * x**4 - e * 0.05
    system = DunklSystem(
        params=DunklParams(nu=nu, delta=delta, mu=1),
        mass=MassProfile(m=m, m1=m1, m2=m2, parity=1),
        potential=EnergyPotential(v=v, dv_dE=lambda e, x: -0.05))
    psi = _smooth_state(delta)
    for x in (0.5, 1.2, 2.4):
        want = _even_mass_residual(m, m1, v, nu, delta, E, psi, x)
        assert dunkl_residual(system, psi, E, x) == pytest.approx(want, rel=1e-10)


def test_residual_specialization_constant_mass():
    nu, delta, E = 2.5, -1, 4.0
    v = lambda e, x: x * x / e
    system = DunklSystem(
        params=DunklParams(nu=nu, delta=delta, mu=1),
        mass=MassProfile(m=lambda x: 0.5, m1=lambda x: 0.0,
                         m2=lambda x: 0.0, parity=1),
        potential=EnergyPotential(v=v, dv_dE=lambda e, x: -x * x / e**2))
    psi = _smooth_state(delta)
    for x in (0.5, 1.2, 2.4):
        want = _constant_mass_residual(v, nu, delta, E, psi, x)
        assert dunkl_residual(system, psi, E, x) == pytest.approx(want, rel=1e-10)


def test_residual_contracts():
    system = DunklSystem(
        params=DunklParams(nu=0.5, delta=-1, mu=1),
        mass=MassProfile(m=lambda x: 1.0, m1=lambda x: 0.0,
                         m2=lambda x: 0.0, parity=1),
        potential=EnergyPotential(v=lambda e, x: 0.0, dv_dE=lambda e, x: 0.0))
    even = _smooth_state(1)
    with pytest.raises(ContractError):
        dunkl_residual(system, even, 1.0, 0.5)
    odd = _smooth_state(-1)
    with pytest.raises(DomainError):
        dunkl_residual(system, odd, 1.0, 0.0)


def test_residual_refuses_psi_without_f2():
    # the residual needs f2; without it, nothing is evaluated
    calls = []

    def record(name, value):
        def fn(x):
            calls.append(name)
            return value
        return fn

    system = DunklSystem(
        params=DunklParams(nu=0.5, delta=-1, mu=1),
        mass=MassProfile(m=record("m", 1.0), m1=record("m1", 0.0),
                         m2=record("m2", 0.0), parity=1),
        potential=EnergyPotential(v=lambda e, x: 0.0, dv_dE=lambda e, x: 0.0))
    psi = ParityFunction(f=record("f", 0.5), f1=record("f1", 1.0), parity=-1)
    with pytest.raises(ContractError, match="second derivative f2"):
        dunkl_residual(system, psi, 1.0, 0.5)
    with pytest.raises(ContractError, match="second derivative f2"):
        dunkl_residual(system, psi, 1.0, np.linspace(0.1, 2.0, 5), relative=True)
    assert calls == []


def test_system_mass_parity_contract():
    with pytest.raises(ContractError):
        DunklSystem(
            params=DunklParams(nu=0.5, delta=-1, mu=-1),
            mass=MassProfile(m=lambda x: 1.0, m1=lambda x: 0.0,
                             m2=lambda x: 0.0, parity=1),
            potential=EnergyPotential(v=lambda e, x: 0.0, dv_dE=lambda e, x: 0.0))


def test_probability_density_worked_value():
    # psi = x e^{-x^2}, nu = 1/2, delta = -1, mu = 1, gaussian-mass
    # energy factor: P(x) = 2 |x|^3 e^{-x^2}; at x = 1 this is 2/e
    from dunkl_darboux.scenarios import ScenarioGaussianMass
    params = DunklParams(nu=0.5, delta=-1, mu=1)
    system = ScenarioGaussianMass().system(params)
    psi = ParityFunction(
        f=lambda x: x * math.exp(-x * x),
        f1=lambda x: (1 - 2 * x * x) * math.exp(-x * x),
        parity=-1)
    E = 0.75
    got = probability_density(system, psi, E, 1.0)
    assert got == pytest.approx(2.0 * math.exp(-1.0), rel=1e-12)
    with pytest.raises(DomainError):
        probability_density(system, psi, E, 0.0)


def test_modified_norm_ground_state():
    # analytic value: 2 (weighted Gaussian moments)
    from dunkl_darboux.scenarios import (ScenarioGaussianMass,
                                         bound_state_energy,
                                         printed_bound_state)
    params = DunklParams(nu=0.5, delta=-1, mu=1)
    system = ScenarioGaussianMass().system(params)
    psi = printed_bound_state(0, -1)
    E = bound_state_energy(0, params, "ene0")
    res = modified_norm(system, psi, E)
    assert res.value == pytest.approx(2.0, abs=1e-8)


def test_sampled_parity_defect():
    odd = _smooth_state(-1)
    assert sampled_parity_defect(odd, np.linspace(0.1, 2.0, 10)) == 0.0
    broken = ParityFunction(f=lambda x: x + 0.001 * x * x,
                            f1=lambda x: 1 + 0.002 * x, parity=-1)
    assert sampled_parity_defect(broken, [1.0]) == pytest.approx(0.002, rel=1e-9)
