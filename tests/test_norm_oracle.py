"""Modified norms against an independent 30-digit mpmath oracle.

The oracle rebuilds each closed-form psi with mpmath's own hyp1f1 and
laguerre and integrates the modified density |psi|^2 |x|^w (1 - dV/dE)
with mpmath's quadrature, so it shares no code with the package.  The
cases are every norm that the verify-sweep benchmark computes
successfully (gaussian-mass under ene0, and the two harmonic-energy
ene1 states whose Laguerre degree is an integer) plus the three printed
states of figure 2.  Larger nu moves the density's peak out to
x ~ sqrt(nu) and narrows it in the quadrature variable, so the large-nu
cases reach the finer steps of the rule: gaussian-mass up to nu = 170,
the last nu whose norm is below the float range (from nu = 119.8,
x^(2 nu) overflows at nodes where psi has not yet underflowed, and the
density is taken in split form there), and harmonic-energy states up
to nu = 16.
"""

import pytest

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp

from dunkl_darboux.model import (DunklParams, modified_norm,  # noqa: E402
                                 probability_density)
from dunkl_darboux.numerics import _NODES, _WEIGHTS, QUAD_ROUNDING  # noqa: E402
from dunkl_darboux.scenarios import (ScenarioGaussianMass,  # noqa: E402
                                     ScenarioHarmonicEnergy,
                                     bound_state_energy, printed_bound_state)

GAUSSIAN_CASES = [(nu, delta, n) for nu in (0.5, 1.5, 2.5) for delta in (-1, 1)
                  for n in (0, 1)]
HARMONIC_CASES = [(0.5, -1, 0), (1.5, 1, 0)]
LARGE_NU_GAUSSIAN_CASES = [(nu, delta, 0) for nu in (10, 50, 100, 119) for delta in (-1, 1)] \
    + [(50, -1, 1), (100, 1, 1)]
# From nu = 119.8 x^(2 nu) overflows at nodes where psi survives.
SPLIT_WEIGHT_GAUSSIAN_CASES = [(120, -1, 0), (120, 1, 0), (120, 1, 1), (150, 1, 0)]
# The density's rounding grows with nu (e^{-x^2} at x^2 near 2 nu): at
# nu = 170 it is 2^-46.9 of sum|terms|, inside the quadrature's 2^-44
# allowance but not the factor 8 below it that the rounding test keeps,
# so this case is checked against mpmath only.
EDGE_GAUSSIAN_CASES = [(170, 1, 0)]
LARGE_NU_HARMONIC_CASES = [(11, -1, 2), (12, 1, 2), (15, -1, 0), (16, 1, 0)]


def _root(nu, delta):
    return mp.sqrt(1 - 4 * delta * nu + 4 * nu * nu)


def _half_line(density):
    """2 int_0^inf density: every density here is even in x."""
    return 2 * mp.quad(density, [0, 1, 2, 4, 6, 8, 10, 12, 16, 24, mp.inf])


def _gaussian_density(nu, delta, n):
    # psi = e^{-x^2} x^s M(a; b; x^2), 1 - dV/dE = 2 e^{x^2}, w = 2 nu
    nu = mp.mpf(nu)
    r = _root(nu, delta)
    s = mp.mpf(0.5) - nu + r / 2
    E = n + (1 + delta * nu) / 2 + r / 4
    a = mp.mpf(0.5) - E + delta * nu / 2 + r / 4
    b = 1 + r / 2
    return lambda x: (2 * x ** (2 * s + 2 * nu) * mp.exp(-x * x)
                      * mp.hyp1f1(a, b, x * x) ** 2)


def _harmonic_density(nu, delta, n):
    # psi = e^{-x^2/(2 sqrt E)} x^s L_d^alpha(x^2/sqrt E), 1 - dV/dE = 1 + x^2/E^2
    nu = mp.mpf(nu)
    r = _root(nu, delta)
    s = mp.mpf(0.5) - nu + r / 2
    E = (4 * n + 2 + r) ** (mp.mpf(2) / 3)
    degree = mp.mpf(-0.5) + E ** 1.5 / 4 - r / 4
    # These states are the quantized ones: the degree is n up to the
    # working precision, and the exact polynomial is the state.
    assert abs(degree - n) < mp.mpf(10) ** -25
    degree = n
    beta = 1 / mp.sqrt(E)
    return lambda x: (x ** (2 * s + 2 * nu) * mp.exp(-beta * x * x)
                      * mp.laguerre(degree, r / 2, beta * x * x) ** 2
                      * (1 + x * x / (E * E)))


def _printed_oracle(n):
    # figure 2: e^{-x^2} P_n(x) at nu = 1/2, delta = -1; w = 1, 1 - dV/dE = 2 e^{x^2}
    poly = {0: lambda x: x, 1: lambda x: x - x ** 3 / 2,
            2: lambda x: x - x ** 3 + x ** 5 / 6}[n]
    return _half_line(lambda x: 2 * x * mp.exp(-x * x) * poly(x) ** 2)


def _assert_matches(res, exact):
    error = abs(mp.mpf(res.value) - exact)
    assert error <= 1e-10 * abs(exact)
    assert res.est_abs_error >= error


@pytest.fixture(autouse=True)
def _thirty_digits():
    with mp.workdps(30):
        yield


@pytest.mark.parametrize("nu, delta, n", GAUSSIAN_CASES + LARGE_NU_GAUSSIAN_CASES
                         + SPLIT_WEIGHT_GAUSSIAN_CASES + EDGE_GAUSSIAN_CASES)
def test_gaussian_mass_norm_matches_mpmath(nu, delta, n):
    scenario = ScenarioGaussianMass()
    params = DunklParams(nu=nu, delta=delta, mu=1)
    E = bound_state_energy(n, params, "ene0")
    res = modified_norm(scenario.system(params), scenario.solution(params, E), E)
    _assert_matches(res, _half_line(_gaussian_density(nu, delta, n)))


@pytest.mark.parametrize("nu, delta, n", HARMONIC_CASES + LARGE_NU_HARMONIC_CASES)
def test_harmonic_energy_norm_matches_mpmath(nu, delta, n):
    scenario = ScenarioHarmonicEnergy()
    params = DunklParams(nu=nu, delta=delta, mu=1)
    E = bound_state_energy(n, params, "ene1")
    res = modified_norm(scenario.system(params), scenario.solution(params, E), E)
    _assert_matches(res, _half_line(_harmonic_density(nu, delta, n)))


@pytest.mark.parametrize("n", [0, 1, 2])
def test_figure_2_norms_match_mpmath(n):
    params = DunklParams(nu=0.5, delta=-1, mu=1)
    E = bound_state_energy(n, params, "ene0")
    res = modified_norm(ScenarioGaussianMass().system(params),
                        printed_bound_state(n, -1), E)
    _assert_matches(res, _printed_oracle(n))


@pytest.mark.parametrize("scenario, rule, exact, nu, delta, n",
                         [(ScenarioGaussianMass(), "ene0", _gaussian_density) + case
                          for case in LARGE_NU_GAUSSIAN_CASES]
                         + [(ScenarioHarmonicEnergy(), "ene1", _harmonic_density) + case
                            for case in HARMONIC_CASES + LARGE_NU_HARMONIC_CASES]
                         + [(ScenarioGaussianMass(), "ene0", _gaussian_density) + case
                            for case in SPLIT_WEIGHT_GAUSSIAN_CASES])
def test_density_rounding_is_within_the_quadrature_allowance(scenario, rule, exact,
                                                             nu, delta, n):
    # The quadrature's error estimate allows QUAD_ROUNDING sum|terms| for
    # the integrand's own rounding.  Measured on the step-1/64 nodes, the
    # rounding error of the weighted sum stays a factor 8 below it.
    params = DunklParams(nu=nu, delta=delta, mu=1)
    E = bound_state_energy(n, params, rule)
    got = probability_density(scenario.system(params), scenario.solution(params, E),
                              E, _NODES)
    ref = [exact(nu, delta, n)(mp.mpf(x)) for x in _NODES.tolist()]
    error = mp.fsum(w * abs(g - r) for w, g, r in zip(_WEIGHTS.tolist(), got.tolist(), ref))
    assert error <= QUAD_ROUNDING / 8 * mp.fsum(w * r for w, r in zip(_WEIGHTS.tolist(), ref))
