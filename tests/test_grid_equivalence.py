"""Grid evaluation of the verify and density layers.

Every function below takes a float or an ndarray of points.  On an
ndarray it must equal its per-float calls bit for bit, which keeps the
``verify`` and ``density`` output byte-identical to point-by-point
evaluation, and it must reject the grid with the per-point message when
one of its points fails a guard (x = 0, the coordinate singularity, the
Kummer |z| range).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dunkl_darboux.errors import DomainError
from dunkl_darboux.model import DunklParams, dunkl_residual, probability_density
from dunkl_darboux.pointmap import (energy_relation_residual, exp_map,
                                    induced_potential, sqrt_map)
from dunkl_darboux.scenarios import (ScenarioGaussianMass,
                                     ScenarioHarmonicEnergy,
                                     ScenarioHarmonicEnergyPdm,
                                     bound_state_energy,
                                     gaussian_admissible,
                                     gaussian_solution_function,
                                     harmonic_initial_solution_function)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def _assert_grid_matches_points(fn, xs):
    """fn(ndarray) equals [fn(float) ...] bit for bit, or fails alike."""
    try:
        want = [fn(float(x)) for x in xs]
    except DomainError as exc:
        with pytest.raises(DomainError) as grid:
            fn(np.array(xs))
        assert str(grid.value) == str(exc)
        return
    got = fn(np.array(xs))
    assert isinstance(got, np.ndarray)
    assert all(type(w) is float for w in want)
    assert _bits(got) == _bits(want)


def _rarely(common, rare):
    """common, or in one example of ten the value ``rare``."""
    return st.integers(0, 9).flatmap(lambda k: st.just(rare) if k == 0 else common)


def _solvable(scenario, nu, delta, n, rule):
    """(scenario, params, E, psi) of a solvable scenario."""
    params = DunklParams(nu=nu, delta=delta, mu=1)
    E = bound_state_energy(n, params, rule)
    if scenario == "gaussian-mass":
        if not gaussian_admissible(params):
            params = DunklParams(nu=nu + 0.5, delta=delta, mu=1)
            E = bound_state_energy(n, params, rule)
        return (ScenarioGaussianMass(), params, E,
                gaussian_solution_function(params, E))
    return (ScenarioHarmonicEnergy(), params, E,
            harmonic_initial_solution_function(params, E))


_SOLVABLE = st.sampled_from(["gaussian-mass", "harmonic-energy"])
_NU = st.floats(0.0, 3.0)
_DELTA = st.sampled_from([-1, 1])
_N = st.integers(0, 2)
_RULE = st.sampled_from(["ene0", "ene1"])
# Points on both half lines, clear of x = 0; one example in ten adds
# x = 0 or a point past the Kummer range of a non-terminating series.
_XS = st.lists(st.one_of(st.floats(0.05, 4.0), st.floats(-4.0, -0.05)),
               min_size=1, max_size=20)
_EXTRA = _rarely(_rarely(st.just([]), [0.0]), [30.0])


@settings(max_examples=60, deadline=None)
@given(scenario=_SOLVABLE, nu=_NU, delta=_DELTA, n=_N, rule=_RULE,
       xs=_XS, extra=_rarely(st.just([]), [30.0]))
def test_solution_closures_grid_equals_points(scenario, nu, delta, n, rule, xs, extra):
    _, _, _, psi = _solvable(scenario, nu, delta, n, rule)
    # One closure, highest derivative first: f1 and f reuse the factors
    # f2 evaluated on the same grid, and must still match bit for bit
    for fn in (psi.f2, psi.f1, psi.f):
        _assert_grid_matches_points(fn, xs + extra)


@settings(max_examples=60, deadline=None)
@given(scenario=_SOLVABLE, nu=_NU, delta=_DELTA, n=_N, rule=_RULE,
       xs=_XS, extra=_EXTRA)
def test_dunkl_residual_grid_equals_points(scenario, nu, delta, n, rule, xs, extra):
    sc, params, E, psi = _solvable(scenario, nu, delta, n, rule)
    system = sc.system(params)
    for relative in (False, True):
        _assert_grid_matches_points(
            lambda x: dunkl_residual(system, psi, E, x, relative=relative), xs + extra)


@settings(max_examples=60, deadline=None)
@given(scenario=_SOLVABLE, nu=_NU, delta=_DELTA, n=_N, rule=_RULE,
       xs=_XS, extra=_EXTRA)
def test_probability_density_grid_equals_points(scenario, nu, delta, n, rule, xs, extra):
    sc, params, E, psi = _solvable(scenario, nu, delta, n, rule)
    system = sc.system(params)
    _assert_grid_matches_points(lambda x: probability_density(system, psi, E, x),
                                xs + extra)


@settings(max_examples=30, deadline=None)
@given(nu=st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.5, 3.0]), delta=_DELTA, n=_N,
       tail=st.lists(st.floats(20.0, 40.0), min_size=1, max_size=10))
def test_probability_density_far_tail_grid(nu, delta, n, tail):
    # At these nu, ene0 makes the Kummer factor an exact polynomial, so
    # there is no range guard; past x ~ 27 |psi|^2 underflows while
    # dV/dE would overflow
    sc, params, E, psi = _solvable("gaussian-mass", nu, delta, n, "ene0")
    system = sc.system(params)
    xs = [1.0] + tail + [-x for x in tail]
    _assert_grid_matches_points(lambda x: probability_density(system, psi, E, x), xs)
    assert probability_density(system, psi, E, np.array([30.0, 40.0])).tolist() == [0.0, 0.0]


_SCENARIOS = st.sampled_from([ScenarioGaussianMass(), ScenarioHarmonicEnergy(),
                              ScenarioHarmonicEnergyPdm()])
# (map, points of its y domain); one example in ten adds a y whose x lies
# inside the coordinate-singularity guard.
_MAPS = st.one_of(
    st.tuples(st.just(sqrt_map()),
              st.lists(st.floats(0.05, 4.0), min_size=1, max_size=12),
              _rarely(st.just([]), [1e-14])),
    st.tuples(st.just(exp_map()),
              st.lists(st.floats(-2.0, 1.5), min_size=1, max_size=12),
              _rarely(st.just([]), [-20.0])))


@settings(max_examples=60, deadline=None)
@given(scenario=_SCENARIOS, coord=_MAPS, nu=_NU, delta=_DELTA, n=_N, rule=_RULE)
def test_pointmap_grid_equals_points(scenario, coord, nu, delta, n, rule):
    coord, ys, extra = coord
    params = DunklParams(nu=nu, delta=delta, mu=1)
    E = bound_state_energy(n, params, rule)
    mass, potential = scenario.mass(), scenario.potential()
    for fn in (induced_potential, energy_relation_residual):
        _assert_grid_matches_points(
            lambda y: fn(coord, mass, potential, params, E, y), ys + extra)


def test_grid_guards_match_point_messages():
    sc, params, E, psi = _solvable("gaussian-mass", 0.5, -1, 0, "ene1")
    system = sc.system(params)
    grid = np.array([0.5, 0.0, 1.5])
    for fn in (lambda x: dunkl_residual(system, psi, E, x),
               lambda x: probability_density(system, psi, E, x)):
        with pytest.raises(DomainError) as point:
            fn(0.0)
        with pytest.raises(DomainError) as whole:
            fn(grid)
        assert str(whole.value) == str(point.value)
    with pytest.raises(DomainError, match="exceeds supported range"):
        psi.f(np.array([1.0, 30.0]))
    with pytest.raises(DomainError, match="coordinate singularity"):
        induced_potential(sqrt_map(), sc.mass(), sc.potential(), params, E,
                          np.array([1.0, 1e-14]))
