"""Worked solvable systems: closed forms, spectra, parity, equivalences."""

import gc
import math
import weakref

import numpy as np
import pytest

from dunkl_darboux import cli, scenarios
from dunkl_darboux.darboux import (DarbouxChain, chain_residuals,
                                   transformed_potential, transformed_solution)
from dunkl_darboux.errors import ContractError, DomainError
from dunkl_darboux.model import (DunklParams, ParityFunction, dunkl_residual,
                                 modified_norm)
from dunkl_darboux.numerics import derivative
from dunkl_darboux.scenarios import (DUNKL_GRID,
                                     ScenarioGaussianMass,
                                     ScenarioHarmonicEnergy,
                                     ScenarioHarmonicEnergyPdm,
                                     bound_state_energy,
                                     closed_form_hatpsi_E4, closed_form_hatv4,
                                     confluent_chain,
                                     discriminant_root,
                                     gaussian_solution,
                                     gaussian_solution_function, get_scenario,
                                     harmonic_initial_solution_function,
                                     mapped_initial_solution,
                                     monomial_exponent, parity_exponent,
                                     pdm_equivalence_nu, pipeline_hatpsi,
                                     pipeline_vhat, printed_bound_state,
                                     standard_chain_u12, standard_vhat_dE)
from dunkl_darboux.specfun import assoc_laguerre, kummer_m

NU_HALF_ODD = DunklParams(nu=0.5, delta=-1, mu=1)
NU_HALF_EVEN = DunklParams(nu=0.5, delta=1, mu=1)
TRANSFORM_PARAMS = DunklParams(nu=2.5, delta=-1, mu=1)
# The figures' y range in mapped coordinates.
MAPPED_GRID = np.linspace(-2.0, 1.0, 400)


def test_discriminant_root_and_exponent():
    # sqrt(1 - 4 delta nu + 4 nu^2): odd nu=1/2 gives 2, even gives 0
    assert discriminant_root(NU_HALF_ODD) == pytest.approx(2.0)
    assert discriminant_root(NU_HALF_EVEN) == pytest.approx(0.0)
    assert monomial_exponent(NU_HALF_ODD) == pytest.approx(1.0)
    assert monomial_exponent(NU_HALF_EVEN) == pytest.approx(0.0)


def test_energy_rule_ene0_rational():
    # nu = 1/2, delta = -1: E_n = n + 3/4 exactly
    for n in range(5):
        got = bound_state_energy(n, NU_HALF_ODD, "ene0")
        assert abs(got - (n + 0.75)) < 1e-14


def test_energy_rule_ene1_values():
    assert bound_state_energy(0, TRANSFORM_PARAMS, "ene1") == pytest.approx(
        4.0, abs=1e-12)
    assert bound_state_energy(1, TRANSFORM_PARAMS, "ene1") == pytest.approx(
        12.0 ** (2.0 / 3.0), rel=1e-13)
    assert bound_state_energy(2, TRANSFORM_PARAMS, "ene1") == pytest.approx(
        16.0 ** (2.0 / 3.0), rel=1e-13)


def test_energy_rule_errors():
    with pytest.raises(DomainError):
        bound_state_energy(-1, NU_HALF_ODD, "ene0")
    with pytest.raises(DomainError):
        bound_state_energy(0, NU_HALF_ODD, "other")


def test_printed_states_solve_equation():
    for delta, params in ((-1, NU_HALF_ODD), (1, NU_HALF_EVEN)):
        system = ScenarioGaussianMass().system(params)
        for n in range(3):
            psi = printed_bound_state(n, delta)
            E = bound_state_energy(n, params, "ene0")
            worst = max(abs(dunkl_residual(system, psi, E, float(x), relative=True))
                        for x in DUNKL_GRID)
            assert worst < 1e-10


def test_printed_state_unknown_index():
    with pytest.raises(DomainError):
        printed_bound_state(3, -1)


def test_gaussian_solution_matches_printed():
    # Kummer-built states are proportional to the printed polynomials
    xs = np.linspace(0.2, 2.5, 40)
    for delta, params in ((-1, NU_HALF_ODD), (1, NU_HALF_EVEN)):
        for n in range(3):
            E = bound_state_energy(n, params, "ene0")
            psi = gaussian_solution_function(params, E)
            printed = printed_bound_state(n, delta)
            ratios = np.array([psi.f(float(x)) / printed.f(float(x)) for x in xs])
            assert np.std(ratios) / abs(np.mean(ratios)) < 1e-9


def test_gaussian_two_forms_agree():
    rng = np.random.default_rng(3)
    xs = np.linspace(0.1, 3.0, 30)
    for _ in range(20):
        delta = int(rng.choice([-1, 1]))
        nu = rng.uniform(0.6, 3.0)
        E = rng.uniform(0.5, 4.0)
        params = DunklParams(nu=nu, delta=delta, mu=1)
        for x in xs[::7]:
            direct = gaussian_solution(params, E, float(x), form="direct")
            decaying = gaussian_solution(params, E, float(x), form="decaying")
            assert direct == pytest.approx(decaying, rel=1e-10, abs=1e-12)


def test_gaussian_admissibility_contract():
    with pytest.raises(ContractError):
        gaussian_solution_function(DunklParams(nu=0.2, delta=1, mu=1), 1.0)
    with pytest.raises(DomainError):
        gaussian_solution(NU_HALF_ODD, 1.0, 0.5, form="unknown")


def test_parity_classification_table():
    assert parity_exponent(NU_HALF_ODD).classification == "odd"
    assert parity_exponent(NU_HALF_ODD).exponent == pytest.approx(1.0)
    assert parity_exponent(NU_HALF_EVEN).classification == "even"
    assert parity_exponent(NU_HALF_EVEN).exponent == pytest.approx(0.0)
    low = DunklParams(nu=0.2, delta=1, mu=1)
    assert parity_exponent(low).classification == "no admissible parity"


def test_modified_norms_finite_positive():
    system = ScenarioGaussianMass().system(NU_HALF_ODD)
    for n in range(3):
        psi = printed_bound_state(n, -1)
        E = bound_state_energy(n, NU_HALF_ODD, "ene0")
        res = modified_norm(system, psi, E)
        assert math.isfinite(res.value) and res.value > 0


def test_harmonic_initial_solution_residual():
    params = TRANSFORM_PARAMS
    system = ScenarioHarmonicEnergy().system(params)
    for E in (4.0, 12.0 ** (2.0 / 3.0)):
        psi = harmonic_initial_solution_function(params, E)
        worst = max(abs(dunkl_residual(system, psi, E, float(x), relative=True))
                    for x in DUNKL_GRID)
        assert worst < 1e-8


def test_mapped_initial_solution_residual():
    params = TRANSFORM_PARAMS
    E = 4.0
    phi = mapped_initial_solution(params, E)
    assert phi.eps == pytest.approx(-8.75)
    form = ScenarioHarmonicEnergy.form()
    for y in MAPPED_GRID[::40]:
        second = derivative(phi.f1, float(y), 1, 1e-4)
        res = second + (phi.eps - form.u_e(E, float(y))) * phi.f(float(y))
        scale = abs(second) + abs((phi.eps - form.u_e(E, float(y))) * phi.f(float(y)))
        assert abs(res) < 1e-8 * max(scale, 1e-6)


def test_mapped_potential_form():
    # U_E(y) = 1/4 - E e^{2y} + e^{4y}/E
    u = ScenarioHarmonicEnergy.mapped_potential(4.0, 0.3)
    assert u == pytest.approx(0.25 - 4.0 * math.exp(0.6) + math.exp(1.2) / 4.0)


def test_standard_chain_members_solve_background():
    chain = standard_chain_u12(4.0)
    assert chain.eps == (0.25, -0.75)
    res = chain_residuals(chain, MAPPED_GRID[::16])
    assert np.all(res < 1e-8)


def test_confluent_chain_members():
    chain = confluent_chain(4.0)
    assert chain.eps == (-2.0,)
    res = chain_residuals(chain, MAPPED_GRID[::16])
    assert res[0] < 1e-8
    assert res[1] < 1e-5


def test_pdm_equivalence_nu_values():
    # nu_bar = 0: root is 3, nu = 3(delta + 1)/2
    assert pdm_equivalence_nu(0.0, 1, 1) == pytest.approx(3.0)
    assert pdm_equivalence_nu(0.0, -1, -1) == pytest.approx(0.0)
    # nu_bar = 5/2, delta_bar = -1: root = sqrt(9 + 10 + 25)
    want = -1.5 + 0.5 * math.sqrt(44.0)
    assert pdm_equivalence_nu(2.5, -1, -1) == pytest.approx(want, rel=1e-13)


def test_nu_formulas_reject_overflowing_nu():
    # 4 nu^2 overflows above |nu| ~ 6.7e153: a domain error, not OverflowError
    for nu in (1e300, -1e200, 7e153):
        with pytest.raises(DomainError, match="out of range"):
            discriminant_root(DunklParams(nu=nu, delta=1, mu=1))
        with pytest.raises(DomainError, match="out of range"):
            pdm_equivalence_nu(nu, -1, -1)
    # just below the limit both formulas still give today's finite values
    nu = 6.7e153
    assert discriminant_root(DunklParams(nu=nu, delta=1, mu=1)) == math.sqrt(
        1.0 - 4.0 * nu + 4.0 * nu**2)
    assert math.isfinite(pdm_equivalence_nu(nu, -1, -1))


def test_pdm_equivalence_constant_term():
    rng = np.random.default_rng(5)
    for _ in range(20):
        nu_bar = rng.uniform(-3.0, 3.0)
        delta_bar = int(rng.choice([-1, 1]))
        delta = int(rng.choice([-1, 1]))
        nu = pdm_equivalence_nu(nu_bar, delta_bar, delta)
        lhs = 3.0 * delta * nu - nu * nu
        rhs = delta_bar * nu_bar - nu_bar * nu_bar
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


def test_scenario_registry():
    assert isinstance(get_scenario("gaussian-mass"), ScenarioGaussianMass)
    assert isinstance(get_scenario("harmonic-energy"), ScenarioHarmonicEnergy)
    assert isinstance(get_scenario("harmonic-energy-pdm"), ScenarioHarmonicEnergyPdm)
    with pytest.raises(DomainError):
        get_scenario("missing")
    assert [get_scenario(name).default_rule for name in scenarios.SCENARIO_NAMES] \
        == ["ene0", "ene1", "ene1"]
    for name, nu in (("gaussian-mass", 0.5), ("harmonic-energy", 2.5)):
        for delta in (-1, 1):
            params = DunklParams(nu=nu, delta=delta, mu=1)
            scenario = get_scenario(name)
            E = bound_state_energy(0, params, scenario.default_rule)
            psi = scenario.solution(params, E)
            assert isinstance(psi, ParityFunction)
            assert psi.parity == delta
    assert get_scenario("harmonic-energy-pdm").solution is None


def test_closed_form_hatpsi_small_x_and_parity():
    # numerator -> x I0 -> x, denominator -> 24 I0 -> 24
    x = 1e-4
    assert closed_form_hatpsi_E4(x) == pytest.approx(x / 24.0, rel=1e-6)
    # odd under the delta = -1 parity extension of the x > 0 branch
    assert closed_form_hatpsi_E4(0.7) > 0


def test_closed_form_hatv4_limits():
    # x -> 0: numerator 9216 I0^2 over 4 * 24^2 I0^2 gives E = 4
    assert closed_form_hatv4(1e-5) == pytest.approx(4.0, rel=1e-8)
    with pytest.raises(DomainError):
        closed_form_hatv4(0.0)


def test_pipeline_matches_closed_forms():
    chain = standard_chain_u12(4.0, validate=False)
    xs = np.linspace(0.2, 3.0, 25)
    ratios = np.array([pipeline_hatpsi(TRANSFORM_PARAMS, 4.0, chain, float(x))
                       / closed_form_hatpsi_E4(float(x)) for x in xs])
    assert np.std(ratios) / abs(np.mean(ratios)) < 1e-10
    for x in (0.5, 1.0, 2.5):
        assert pipeline_vhat(4.0, chain, x) == pytest.approx(
            closed_form_hatv4(x), rel=1e-10)


def test_pipeline_vhat_of_the_empty_chain_round_trip():
    # the empty chain's U-hat is U itself: V-hat is the map's inverse of U
    E = 4.0
    form = ScenarioHarmonicEnergy.form()
    empty = DarbouxChain(kind="standard", funcs=(), eps=(), background=form, energy=E)
    x = 1.3
    got = pipeline_vhat(E, empty, x)
    # V(x) = E - 1/(4 x^2) + U(log x)/x^2, with U the mapped potential
    want = E - 1.0 / (4 * x * x) + form.u_e(E, math.log(x)) / (x * x)
    assert got == pytest.approx(want, rel=1e-13)
    with pytest.raises(DomainError, match="pipeline_vhat: x must be positive"):
        pipeline_vhat(E, empty, np.array([1.0, 0.0]))


def test_transformed_solution_solves_transformed_dunkl_equation():
    # full pipeline output solves the deformed equation with the
    # transformed potential (constant mass form)
    E = 4.0
    chain = standard_chain_u12(E, validate=False)
    nu, delta = TRANSFORM_PARAMS.nu, TRANSFORM_PARAMS.delta

    def psi_hat(x):
        return pipeline_hatpsi(TRANSFORM_PARAMS, E, chain, x)

    for x in (0.6, 1.1, 2.2):
        second = derivative(psi_hat, x, 2, 1e-3)
        first = derivative(psi_hat, x, 1, 1e-4)
        v = pipeline_vhat(E, chain, x)
        res = (second + (2 * nu / x) * first
               + ((delta * nu - nu) / (x * x) + E - v) * psi_hat(x))
        scale = abs(second) + abs(psi_hat(x)) * (abs(E - v) + abs(delta * nu - nu) / x**2)
        assert abs(res) < 1e-5 * max(scale, 1e-6)


def test_pipeline_grid_equals_pointwise_bit_for_bit():
    # an ndarray of x is one grid evaluation; it must reproduce the
    # per-float calls exactly, which keeps the CLI output byte-identical
    def bits(values):
        return np.asarray(values, dtype=float).view(np.uint64).tolist()

    xs = np.linspace(0.2, 3.0, 13)
    for E in (4.0, 12.0 ** (2.0 / 3.0)):
        std = standard_chain_u12(E, validate=False)
        con = confluent_chain(E)
        cases = [lambda x: pipeline_hatpsi(TRANSFORM_PARAMS, E, std, x),
                 lambda x: pipeline_hatpsi(TRANSFORM_PARAMS, E, con, x),
                 lambda x: pipeline_vhat(E, std, x),
                 lambda x: pipeline_vhat(E, con, x),
                 lambda x: standard_vhat_dE(E, x)]
        for fn in cases:
            grid = fn(xs)
            points = [fn(float(x)) for x in xs]
            assert isinstance(grid, np.ndarray)
            assert all(type(p) is float for p in points)
            assert bits(grid) == bits(points)


def _count_grid_calls(monkeypatch) -> list:
    """Record the parameters of every grid special-function call in scenarios."""
    calls = []
    for name in ("assoc_laguerre_grid", "kummer_m_grid"):
        def counted(*args, _real=getattr(scenarios, name), **kwargs):
            calls.append(args[:-1])
            return _real(*args, **kwargs)
        monkeypatch.setattr(scenarios, name, counted)
    return calls


def test_chain_members_share_their_laguerre_factors(monkeypatch):
    calls = _count_grid_calls(monkeypatch)
    chain = standard_chain_u12(4.0, validate=False)
    ys = np.linspace(-2.0, 1.0, 50)
    transformed_potential(chain, ys)
    # u1 and u1' share L_{c-1/2}^0 and L_{c-3/2}^1, evaluated as one pair;
    # u2 and u2' share the pair L_{c-1}^1, L_{c-2}^2
    assert len(calls) == 2
    transformed_solution(chain, mapped_initial_solution(TRANSFORM_PARAMS, 4.0), ys)
    assert len(calls) == 3     # only phi's pair of factors is new


def test_figure_4_kernel_calls_and_chain_builds(monkeypatch, capsys):
    # per energy: the chain's two Laguerre pairs and Phi's pair for
    # Psi-hat, and one call for the four rows of dV-hat/dE with their
    # degree derivatives; one chain build per energy
    calls = _count_grid_calls(monkeypatch)
    builds = []

    def counted(E, validate=True, _real=scenarios.standard_chain_u12):
        builds.append(E)
        return _real(E, validate)

    monkeypatch.setattr(cli, "standard_chain_u12", counted)
    assert cli.run(["figure", "4", "--grid-count", "50"]) == cli.EXIT_OK
    capsys.readouterr()
    assert len(calls) == 12
    assert len(builds) == 3


def test_confluent_darboux_and_figure_7_kernel_calls(monkeypatch, capsys):
    # The confluent chain's ten Laguerre rows are one group.  darboux:
    # the build reads it on the validation grid and on its stencil nodes,
    # the chain on y and on log(e^y) (V-hat), plus Phi's pair; at most 8
    # (the bound of exact-derivative work).  figure 7: three energies,
    # each a build and V-hat on its grid, at most 15.
    calls = _count_grid_calls(monkeypatch)
    assert cli.run(["darboux", "--kind", "confluent"]) == cli.EXIT_OK
    assert len(calls) == 5
    calls.clear()
    assert cli.run(["figure", "7", "--grid-count", "50"]) == cli.EXIT_OK
    capsys.readouterr()
    assert len(calls) == 9
    assert all(len(degrees) == 10 for degrees, _ in calls)


@pytest.mark.parametrize("E", [4.0, 12.0 ** (2.0 / 3.0)])
def test_standard_members_and_phi_are_the_mapped_family(E):
    # u1, u2 and u2' are the mapped family at r = 0 and 2 (eps = 1/4 and
    # -3/4), here built as one group, and Phi at (nu, delta) = (3/2, +1),
    # where delta nu - nu^2 = -3/4, is u2: all bit for bit, floats included
    (u1, _), (u2, u2p) = scenarios._standard_chain_functions(E)
    (f0, _), (f2, f2p) = scenarios._mapped_family(E, 0.0, 2.0)
    phi = mapped_initial_solution(DunklParams(nu=1.5, delta=1, mu=1), E)
    assert phi.eps == -0.75
    ys = np.linspace(-2.0, 1.0, 41)
    pairs = [(u1, f0), (u2, f2), (u2p, f2p), (phi.f, u2), (phi.f1, u2p)]
    for got, want in pairs:
        assert _bits(got(ys)) == _bits(want(ys))
        assert (_bits([got(float(y)) for y in ys[::8]])
                == _bits([want(float(y)) for y in ys[::8]]))


def test_confluent_build_evaluates_each_eps_once_on_its_grid(monkeypatch):
    # u1 reads the family at eps1 and u2 at four stencil eps; the scale
    # check and chain_residuals read all five members on the 25-point
    # validation grid, and chain_residuals their derivatives on the 100
    # stencil nodes: one call of all ten distinct rows per grid
    grids = []
    real = scenarios.assoc_laguerre_grid

    def counted(degree, alpha, z):
        grids.append((degree, alpha, z.size))
        return real(degree, alpha, z)

    monkeypatch.setattr(scenarios, "assoc_laguerre_grid", counted)
    confluent_chain(4.0)
    assert [size for _, _, size in grids] == [25, 100]
    for degree, alpha, _ in grids:
        assert len(set(zip(degree, alpha))) == 10


@pytest.mark.parametrize("E", [4.0, 12.0 ** (2.0 / 3.0)])
def test_grouped_members_equal_single_members(E):
    # one _mapped_family call for several indices (the confluent chain's
    # members) equals a call per index, bit for bit, floats included
    rs = [math.sqrt(1.0 - 4.0 * eps) for eps in (-2.0, -2.00004, -1.99996, 0.2, 0.24)]
    grouped = scenarios._mapped_family(E, *rs)
    ys = np.linspace(-2.0, 1.0, 41)
    for r, (phi, phi1) in zip(rs, grouped):
        (single, single1), = scenarios._mapped_family(E, r)
        for got, want in ((phi, single), (phi1, single1)):
            assert _bits(got(ys)) == _bits(want(ys))
            assert (_bits([got(float(y)) for y in ys[::8]])
                    == _bits([want(float(y)) for y in ys[::8]]))


def test_laguerre_pair_evaluates_both_rows_in_one_call(monkeypatch):
    calls = _count_grid_calls(monkeypatch)
    lag, lower = scenarios._laguerre_rows((1.7, 0.5), (0.7, 1.5))
    up = lambda z: -lower(z)                # dL_d^a/dz = -L_{d-1}^{a+1}
    z = np.linspace(0.0, 3.0, 9)
    values, slopes = lag(z), up(z)
    assert calls == [((1.7, 0.7), (0.5, 1.5))]
    assert lag(z.copy()) is values and _bits(up(z)) == _bits(slopes)
    assert len(calls) == 1                                   # both rows memoised
    assert _bits(values) == _bits([assoc_laguerre(1.7, 0.5, v).value for v in z])
    assert _bits(slopes) == _bits([-assoc_laguerre(0.7, 1.5, v).value for v in z])
    # a float is a one-point grid through the same memo: both rows at once
    assert lag(1.5) == assoc_laguerre(1.7, 0.5, 1.5).value and len(calls) == 2
    assert calls[1] == ((1.7, 0.7), (0.5, 1.5))
    assert up(1.5) == -assoc_laguerre(0.7, 1.5, 1.5).value and len(calls) == 2
    assert type(lag(1.5)) is float and len(calls) == 2


@pytest.mark.parametrize("first", ["lag", "up"])
def test_laguerre_pair_raises_each_row_error_when_read(monkeypatch, first):
    # L_601^0 is refused (polynomial degree above the limit), while its
    # partner L_600^1 is not: reading either row must behave as if the
    # rows were separate factors, in either order
    calls = _count_grid_calls(monkeypatch)
    lag, lower = scenarios._laguerre_rows((601.0, 0.0), (600.0, 1.0))
    up = lambda z: -lower(z)
    z = np.array([0.1, 0.2])
    want = [-assoc_laguerre(600.0, 1.0, v).value for v in z]
    if first == "up":
        assert _bits(up(z)) == _bits(want)
    with pytest.raises(DomainError, match="polynomial degree 601 exceeds"):
        lag(z)
    assert _bits(up(z)) == _bits(want)
    # a failed joint call stores nothing, so the grid is tried jointly
    # again until a row of it succeeds alone
    rows = [len(c[0]) for c in calls]
    assert rows == ([2, 1, 1] if first == "up" else [2, 1, 2, 1])


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


@pytest.mark.parametrize("scenario", [ScenarioHarmonicEnergy(), ScenarioGaussianMass()])
def test_relative_residual_evaluates_each_factor_once(monkeypatch, scenario):
    calls = _count_grid_calls(monkeypatch)
    if isinstance(scenario, ScenarioGaussianMass):
        E = bound_state_energy(1, NU_HALF_ODD, "ene0")
        system = scenario.system(NU_HALF_ODD)
        psi = gaussian_solution_function(NU_HALF_ODD, E)
    else:
        E = bound_state_energy(1, TRANSFORM_PARAMS, "ene1")
        system = scenario.system(TRANSFORM_PARAMS)
        psi = harmonic_initial_solution_function(TRANSFORM_PARAMS, E)
    dunkl_residual(system, psi, E, DUNKL_GRID, relative=True)
    # f, f1 and f2 use three factors between them, each on one grid
    assert len(calls) == 3
    assert len(set(calls)) == 3


@pytest.mark.parametrize("make, scalar", [
    (lambda: scenarios._laguerre_rows((0.7, 0.5))[0], lambda z: assoc_laguerre(0.7, 0.5, z).value),
    (lambda: scenarios._kummer(-0.3, 1.5), lambda z: kummer_m(-0.3, 1.5, z).value),
])
def test_factor_memo_keys_on_grid_bytes(monkeypatch, make, scalar):
    calls = _count_grid_calls(monkeypatch)
    factor = make()
    z = np.linspace(0.0, 3.0, 7)
    first = factor(z)
    assert factor(z.copy()) is first and len(calls) == 1
    with pytest.raises(ValueError):
        first[0] = 1.0                       # shared result is read-only
    z[3] = 5.0                               # the caller changes its grid in place
    fresh = factor(z)
    assert len(calls) == 2
    assert fresh[3] == scalar(5.0) and first[3] == scalar(1.5)
    factor(np.array([0.0]))
    factor(np.array([-0.0]))                 # a different key
    assert len(calls) == 4
    # a float is the one-point grid [z], keyed and memoised like any grid
    assert factor(1.5) == scalar(1.5) and len(calls) == 5
    assert type(factor(1.5)) is float and len(calls) == 5
    assert factor(np.array([1.5]))[0] == scalar(1.5) and len(calls) == 5
    assert factor(0.0) == scalar(0.0) and len(calls) == 6


@pytest.mark.parametrize("make", [lambda: scenarios._laguerre_rows((1.7, 0.5), (0.7, 1.5))[0],
                                  lambda: scenarios._kummer(-0.3, 1.5)])
def test_factor_memo_is_freed_with_its_closure(make):
    # refcounting alone must free a closure's memo: one kept in a
    # reference cycle waits for the cyclic collector, so the memos of
    # every chain built by a command would pile up in memory
    gc.disable()
    try:
        factor = make()
        assert factor(1.5) == factor(1.5)
        values = weakref.ref(factor(np.linspace(0.0, 3.0, 7)))
        assert values() is not None         # held by the memo
        del factor
        assert values() is None
    finally:
        gc.enable()
