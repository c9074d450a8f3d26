"""Point transformation to standard Schrodinger form and back."""

import math

import numpy as np
import pytest

from dunkl_darboux.errors import DomainError
from dunkl_darboux.model import DunklParams
from dunkl_darboux.numerics import derivative
from dunkl_darboux.pointmap import (energy_relation_residual, exp_map,
                                    forward_map, induced_potential, inverse_map,
                                    prefactor_exponent, sqrt_map)
from dunkl_darboux.scenarios import (ScenarioGaussianMass,
                                     ScenarioHarmonicEnergy,
                                     bound_state_energy,
                                     gaussian_solution_function,
                                     harmonic_initial_solution_function)


def test_coordinate_change_derivative_consistency():
    for coord in (sqrt_map(), exp_map()):
        for y in (0.5, 1.3, 2.2):
            assert derivative(coord.x_of_y, y, 1) == pytest.approx(
                coord.d1(y), rel=1e-7)
            assert derivative(coord.d1, y, 1) == pytest.approx(
                coord.d2(y), rel=1e-6, abs=1e-9)
            assert derivative(coord.d2, y, 1) == pytest.approx(
                coord.d3(y), rel=1e-6, abs=1e-9)


def test_coordinate_round_trip():
    for coord in (sqrt_map(), exp_map()):
        for y in (0.2, 1.0, 2.7):
            assert coord.y_of_x(coord.x_of_y(y)) == pytest.approx(y, rel=1e-13)


def test_prefactor_exponent():
    # nu - delta nu / 2 + delta nu / (2 mu)
    assert prefactor_exponent(DunklParams(nu=0.5, delta=-1, mu=1)) == pytest.approx(0.5)
    assert prefactor_exponent(DunklParams(nu=2.5, delta=-1, mu=1)) == pytest.approx(2.5)
    assert prefactor_exponent(DunklParams(nu=1.0, delta=1, mu=-1)) == pytest.approx(0.0)


def test_induced_potential_spot_value():
    # gaussian-mass settings p=q=1, nu=1/2, delta=-1, E=3/4, y=2: the
    # induced potential collapses to E + 1/4 - (E + 1/4)/2 = 0.5
    scenario = ScenarioGaussianMass(p=1.0, q=1.0)
    params = DunklParams(nu=0.5, delta=-1, mu=1)
    got = induced_potential(scenario.coord(), scenario.mass(),
                            scenario.potential(), params, 0.75, 2.0)
    assert got == pytest.approx(0.5, abs=1e-12)


def test_induced_potential_matches_mapped_closed_form():
    # constant-mass harmonic scenario: U_E(y) up to the spectral shift
    scenario = ScenarioHarmonicEnergy()
    params = DunklParams(nu=2.5, delta=-1, mu=1)
    form = scenario.form()
    eps = params.delta * params.nu - params.nu**2      # the Dunkl constant
    E = 4.0
    for y in np.linspace(-1.5, 0.8, 7):
        # the library convention embeds E: Phi'' + (E - U_ind) Phi = 0,
        # while the closed form uses Phi'' + (eps - U) Phi = 0
        u_ind = induced_potential(scenario.coord(), scenario.mass(),
                                  scenario.potential(), params, E, float(y))
        want = form.u_e(E, float(y)) + E - eps
        assert u_ind == pytest.approx(want, rel=1e-12)


def test_forward_map_satisfies_standard_form():
    scenario = ScenarioGaussianMass()
    params = DunklParams(nu=0.5, delta=-1, mu=1)
    E = bound_state_energy(0, params, "ene0")
    psi = gaussian_solution_function(params, E)
    coord, mass = scenario.coord(), scenario.mass()

    def phi(y):
        return forward_map(psi, coord, mass, params, y)

    y = 1.7
    second = derivative(phi, y, 2, 1e-3)
    u = induced_potential(coord, mass, scenario.potential(), params, E, y)
    res = second + (E - u) * phi(y)
    scale = abs(second) + abs((E - u) * phi(y))
    assert abs(res) < 1e-8 * max(scale, 1.0)


def test_round_trip_identity():
    scenario = ScenarioHarmonicEnergy()
    params = DunklParams(nu=2.5, delta=-1, mu=1)
    E = 4.0
    psi = harmonic_initial_solution_function(params, E)
    coord, mass = scenario.coord(), scenario.mass()

    def phi(y):
        return forward_map(psi, coord, mass, params, y)

    x = 0.9
    back = inverse_map(phi, coord, mass, params, x)
    assert back == pytest.approx(psi.f(x), rel=1e-10)


def test_forward_map_domain_guards():
    scenario = ScenarioGaussianMass()
    params = DunklParams(nu=0.5, delta=-1, mu=1)
    psi = gaussian_solution_function(params, 0.75)
    with pytest.raises(DomainError):
        forward_map(psi, scenario.coord(), scenario.mass(), params, 1e-16)
    with pytest.raises(DomainError):
        inverse_map(lambda y: 1.0, scenario.coord(), scenario.mass(), params, 0.0)


def test_energy_relation_gaussian():
    scenario = ScenarioGaussianMass()
    params = DunklParams(nu=0.5, delta=-1, mu=1)
    got = energy_relation_residual(scenario.coord(), scenario.mass(),
                                   scenario.potential(), params, 0.75, 1.5)
    assert abs(got) < 1e-6


def test_energy_relation_harmonic():
    scenario = ScenarioHarmonicEnergy()
    params = DunklParams(nu=2.5, delta=-1, mu=1)
    got = energy_relation_residual(scenario.coord(), scenario.mass(),
                                   scenario.potential(), params, 4.0, 0.3)
    assert abs(got) < 1e-6
