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
                                 modified_norm, probability_density, state_checks,
                                 weight_exponent)


def _mass(m, m1, m2, parity):
    """The MassProfile whose jet is (m, m1, m2)."""
    return MassProfile(jet=lambda x: (m(x), m1(x), m2(x)), parity=parity)


def _potential(v, dv_dE):
    """The EnergyPotential of v(E, x) and dv_dE(E, x)."""
    return EnergyPotential(v=v, dv_dE=dv_dE)


def _state(parity, *derivatives):
    """The ParityFunction whose jet is f and its given derivatives."""
    return ParityFunction(jet=lambda x, k: [d(x) for d in derivatives[:k + 1]],
                          parity=parity)


def _odd_mass_residual(m, m1, v, nu, delta, E, psi, x):
    """Independent coding of the mu = -1 specialization."""
    c1 = -m1(x) / (2 * m(x) ** 2) + nu / (m(x) * x) - nu * delta / (m(x) * x)
    c0 = (-nu / (2 * m(x) * x**2) - nu * m1(x) / (2 * m(x) ** 2 * x)
          + nu * delta / (2 * m(x) * x**2) + nu * delta * m1(x) / (2 * m(x) ** 2 * x)
          + nu**2 / (m(x) * x**2) - nu**2 * delta / (m(x) * x**2)
          + E - v(E, x))
    f, f1, f2 = psi.jet(x, 2)
    return f2 / (2 * m(x)) + c1 * f1 + c0 * f


def _even_mass_residual(m, m1, v, nu, delta, E, psi, x):
    """Independent coding of the mu = +1 specialization."""
    c1 = -m1(x) / (2 * m(x) ** 2) + nu / (m(x) * x)
    c0 = (-nu / (2 * m(x) * x**2) - nu * m1(x) / (2 * m(x) ** 2 * x)
          + nu * delta / (2 * m(x) * x**2) + nu * delta * m1(x) / (2 * m(x) ** 2 * x)
          + E - v(E, x))
    f, f1, f2 = psi.jet(x, 2)
    return f2 / (2 * m(x)) + c1 * f1 + c0 * f


def _constant_mass_residual(v, nu, delta, E, psi, x):
    """Independent coding of the m = 1/2 specialization."""
    f, f1, f2 = psi.jet(x, 2)
    return f2 + (2 * nu / x) * f1 + ((nu * delta - nu) / x**2 + E - v(E, x)) * f


def _smooth_state(delta):
    if delta == -1:
        return _state(-1, lambda x: x * exp(-0.3 * x * x),
                      lambda x: (1 - 0.6 * x * x) * exp(-0.3 * x * x),
                      lambda x: (-1.8 * x + 0.36 * x**3) * exp(-0.3 * x * x))
    return _state(1, lambda x: exp(-0.3 * x * x),
                  lambda x: -0.6 * x * exp(-0.3 * x * x),
                  lambda x: (0.36 * x * x - 0.6) * exp(-0.3 * x * x))


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
        mass=_mass(m, m1, m2, parity=-1),
        potential=_potential(v=v, dv_dE=lambda e, x: 0.1))
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
        mass=_mass(m, m1, m2, parity=1),
        potential=_potential(v=v, dv_dE=lambda e, x: -0.05))
    psi = _smooth_state(delta)
    for x in (0.5, 1.2, 2.4):
        want = _even_mass_residual(m, m1, v, nu, delta, E, psi, x)
        assert dunkl_residual(system, psi, E, x) == pytest.approx(want, rel=1e-10)


def test_residual_specialization_constant_mass():
    nu, delta, E = 2.5, -1, 4.0
    v = lambda e, x: x * x / e
    system = DunklSystem(
        params=DunklParams(nu=nu, delta=delta, mu=1),
        mass=_mass(lambda x: 0.5, lambda x: 0.0, lambda x: 0.0, parity=1),
        potential=_potential(v=v, dv_dE=lambda e, x: -x * x / e**2))
    psi = _smooth_state(delta)
    for x in (0.5, 1.2, 2.4):
        want = _constant_mass_residual(v, nu, delta, E, psi, x)
        assert dunkl_residual(system, psi, E, x) == pytest.approx(want, rel=1e-10)


def test_residual_contracts():
    system = DunklSystem(
        params=DunklParams(nu=0.5, delta=-1, mu=1),
        mass=_mass(lambda x: 1.0, lambda x: 0.0, lambda x: 0.0, parity=1),
        potential=_potential(v=lambda e, x: 0.0, dv_dE=lambda e, x: 0.0))
    even = _smooth_state(1)
    with pytest.raises(ContractError):
        dunkl_residual(system, even, 1.0, 0.5)
    odd = _smooth_state(-1)
    with pytest.raises(DomainError):
        dunkl_residual(system, odd, 1.0, 0.0)


def test_residual_refusals_come_before_psi_is_read():
    # x = 0 and a parity mismatch are refused before the mass or psi is
    # evaluated, and a vanishing mass before psi is
    calls = []

    def record(name, value):
        def fn(x):
            calls.append(name)
            return value
        return fn

    def system(m):
        return DunklSystem(
            params=DunklParams(nu=0.5, delta=-1, mu=1),
            mass=_mass(record("m", m), record("m1", 0.0), record("m2", 0.0), parity=1),
            potential=_potential(v=lambda e, x: 0.0, dv_dE=lambda e, x: 0.0))

    psi = _state(-1, record("f", 0.5), record("f1", 1.0), record("f2", 0.0))
    even = _state(1, record("f", 0.5), record("f1", 1.0), record("f2", 0.0))
    with pytest.raises(DomainError, match="x = 0"):
        dunkl_residual(system(1.0), psi, 1.0, 0.0)
    with pytest.raises(DomainError, match="x = 0"):
        dunkl_residual(system(1.0), psi, 1.0, np.array([0.5, 0.0]), relative=True)
    with pytest.raises(ContractError, match="parity"):
        dunkl_residual(system(1.0), even, 1.0, np.linspace(0.1, 2.0, 5), relative=True)
    assert calls == []
    with pytest.raises(DomainError, match="mass vanishes"):
        dunkl_residual(system(0.0), psi, 1.0, 0.5)
    assert calls == ["m", "m1", "m2"]


def test_system_mass_parity_contract():
    with pytest.raises(ContractError):
        DunklSystem(
            params=DunklParams(nu=0.5, delta=-1, mu=-1),
            mass=_mass(lambda x: 1.0, lambda x: 0.0, lambda x: 0.0, parity=1),
            potential=_potential(v=lambda e, x: 0.0, dv_dE=lambda e, x: 0.0))


def test_probability_density_worked_value():
    # psi = x e^{-x^2}, nu = 1/2, delta = -1, mu = 1, gaussian-mass
    # energy factor: P(x) = 2 |x|^3 e^{-x^2}; at x = 1 this is 2/e
    from dunkl_darboux.scenarios import ScenarioGaussianMass
    params = DunklParams(nu=0.5, delta=-1, mu=1)
    system = ScenarioGaussianMass().system(params)
    psi = _state(-1, lambda x: x * exp(-x * x), lambda x: (1 - 2 * x * x) * exp(-x * x))
    E = 0.75
    got = probability_density(system, psi, E, np.array([1.0]))
    assert got[0] == pytest.approx(2.0 * math.exp(-1.0), rel=1e-12)
    with pytest.raises(DomainError):
        probability_density(system, psi, E, np.array([0.0]))


def test_probability_density_of_an_overflowing_psi_warns_nothing():
    # at nu = 169 the harmonic-energy psi exceeds 1.3e154 on the grid, so
    # psi^2 overflows: the grid must give what the one-point calls give,
    # inf (NaN at 0 * inf), with no RuntimeWarning
    import warnings

    from dunkl_darboux.scenarios import ScenarioHarmonicEnergy, bound_state_energy
    params = DunklParams(nu=169.0, delta=1, mu=1)
    scenario = ScenarioHarmonicEnergy()
    E = bound_state_energy(0, params, "ene0")
    system, psi = scenario.system(params), scenario.solution(params, E)
    xs = np.linspace(0.1, 4.0, 9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = probability_density(system, psi, E, xs)
        points = [probability_density(system, psi, E, np.array([x]))[0] for x in xs]
    assert np.isinf(grid).sum() >= 1
    assert grid.view(np.uint64).tolist() == np.array(points).view(np.uint64).tolist()


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
    # state_checks' defect is max |f(-x) - parity f(x)| over the grid's x > 0
    system = DunklSystem(
        params=DunklParams(nu=0.5, delta=-1, mu=1),
        mass=_mass(lambda x: 1.0, lambda x: 0.0, lambda x: 0.0, parity=1),
        potential=_potential(v=lambda e, x: 0.0, dv_dE=lambda e, x: 0.0))
    odd = _smooth_state(-1)
    assert state_checks(system, odd, 1.0, np.linspace(0.1, 2.0, 10))[1] == 0.0
    broken = _state(-1, lambda x: x + 0.001 * x * x, lambda x: 1 + 0.002 * x,
                    lambda x: 0.002 + 0.0 * x)
    grid = np.array([-3.0, -1.0, 1.0])
    assert state_checks(system, broken, 1.0, grid)[1] == pytest.approx(0.002, rel=1e-9)
    assert state_checks(system, broken, 1.0, np.array([-1.0]))[1] == 0.0


def test_state_checks_read_psi_once():
    # one read of psi, at the grid and at the reflections of its points
    # x > 0; the residual is dunkl_residual's on the grid, bit for bit
    reads = []
    smooth = _smooth_state(-1)

    def jet(x, k):
        reads.append((x.copy(), k))
        return smooth.jet(x, k)

    psi = ParityFunction(jet=jet, parity=-1)
    system = DunklSystem(
        params=DunklParams(nu=0.5, delta=-1, mu=1),
        mass=_mass(lambda x: 1.0 + 0.0 * x, lambda x: 0.0 * x, lambda x: 0.0 * x, parity=1),
        potential=_potential(v=lambda e, x: 0.3 * x * x, dv_dE=lambda e, x: 0.0))
    grid = np.linspace(-1.0, 2.0, 6)
    residual, defect = state_checks(system, psi, 1.3, grid)
    [(points, k)] = reads
    assert k == 2 and points.tolist() == grid.tolist() + (-grid[grid > 0]).tolist()
    want = dunkl_residual(system, smooth, 1.3, grid, relative=True)
    assert residual.tobytes() == want.tobytes()
    assert defect == 0.0
