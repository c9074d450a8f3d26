"""Darboux chains: Wronskians, Abel identities, intertwining."""

import math
import warnings

import numpy as np
import pytest

from dunkl_darboux import darboux, scenarios
from dunkl_darboux.darboux import (DarbouxChain, OdeSolution, chain_residuals,
                                   intertwining_residual, transform,
                                   require_residuals, transformed_pair,
                                   transformed_potential, transformed_solution,
                                   wronskian, wronskian_first_derivative)
from dunkl_darboux.errors import (CapabilityError, ConstructionError,
                                  DomainError, SingularityError)
from dunkl_darboux.model import DunklParams
from dunkl_darboux.numerics import derivative
from dunkl_darboux.pointmap import SchrodingerForm
from dunkl_darboux.scenarios import (ScenarioHarmonicEnergy, confluent_chain,
                                     mapped_initial_solution,
                                     standard_chain_order1, standard_chain_u12)

GRID = np.linspace(-2.0, 1.0, 25)


def _chain(kind, funcs, eps, background, energy=0.0):
    """The DarbouxChain whose jet reads the (u, u') pairs funcs."""
    return DarbouxChain(kind=kind, jet=lambda y: [(f(y), d(y)) for f, d in funcs],
                        order=len(funcs), eps=eps, background=background, energy=energy)


def _solution(f, f1, eps):
    """The OdeSolution whose jet is (f, f1)."""
    return OdeSolution(jet=lambda y: (f(y), f1(y)), eps=eps)


def _harmonic_oscillator_form():
    """U(y) = y^2 with eigenfunctions for an independent cross-check."""
    return SchrodingerForm(u_e=lambda E, y: y * y)


def _hermite_chain():
    # u'' + (eps - y^2) u = 0: u1 = e^{-y^2/2} at eps = 1,
    # u2 = y e^{-y^2/2} at eps = 3
    u1 = lambda y: math.exp(-0.5 * y * y)
    u1p = lambda y: -y * math.exp(-0.5 * y * y)
    u2 = lambda y: y * math.exp(-0.5 * y * y)
    u2p = lambda y: (1 - y * y) * math.exp(-0.5 * y * y)
    return _chain("standard", ((u1, u1p), (u2, u2p)), (1.0, 3.0),
                  _harmonic_oscillator_form())


def test_chain_validation_rules():
    form = _harmonic_oscillator_form()
    f = (lambda y: 1.0, lambda y: 0.0)
    with pytest.raises(DomainError):
        _chain("unknown", (f,), (1.0,), form)
    with pytest.raises(DomainError):
        _chain("standard", (f, f), (1.0,), form)
    with pytest.raises(DomainError):
        _chain("standard", (f, f), (1.0, 1.0), form)
    with pytest.raises(DomainError):
        _chain("confluent", (f, f), (1.0, 2.0), form)


def test_wronskian_order2_against_sampled_determinant():
    chain = _hermite_chain()
    for y in (-0.7, 0.2, 0.9):
        (f1, d1), (f2, d2) = chain.funcs
        want = f1(y) * d2(y) - d1(y) * f2(y)
        assert wronskian(chain, y) == pytest.approx(want, rel=1e-13)


def _hermite_phi():
    # the eps = 5 eigenfunction (2 y^2 - 1) e^{-y^2/2}
    return _solution(lambda y: math.exp(-0.5 * y * y) * (2 * y * y - 1),
                     lambda y: math.exp(-0.5 * y * y) * (5 * y - 2 * y**3), 5.0)


def test_wronskian_order3_reduced_rows_against_stencil():
    # Phi-hat W = W(u1, u2, Phi): its third row, built via the ODE, must
    # match direct differentiation
    chain = _hermite_chain()
    phi = _hermite_phi()
    for y in (-0.4, 0.5):
        got = transformed_solution(chain, phi, y) * wronskian(chain, y)
        # direct determinant from stencil second derivatives
        rows = []
        funcs = [chain.funcs[0], chain.funcs[1], (phi.f, phi.f1)]
        for r in range(3):
            row = []
            for f, d in funcs:
                if r == 0:
                    row.append(f(y))
                elif r == 1:
                    row.append(d(y))
                else:
                    row.append(derivative(d, y, 1, 1e-4))
            rows.append(row)
        want = np.linalg.det(np.array(rows))
        assert got == pytest.approx(want, rel=1e-7)


def test_abel_identity_standard():
    chain = standard_chain_u12(4.0, validate=False)
    for y in GRID[::6]:
        want = derivative(lambda t: wronskian(chain, t), float(y), 1, 1e-4)
        got = wronskian_first_derivative(chain, float(y))
        assert got == pytest.approx(want, rel=1e-7, abs=1e-10)
        # and the closed form: W' = (eps1 - eps2) u1 u2 = u1 u2
        u1 = chain.funcs[0][0](float(y))
        u2 = chain.funcs[1][0](float(y))
        assert got == pytest.approx(u1 * u2, rel=1e-12)


def test_abel_identity_confluent():
    # the numeric parameter derivative inside u2 puts noise on W, so the
    # stencil step is widened to keep the noise amplification below 1e-7
    chain = confluent_chain(4.0)
    for y in GRID[::6]:
        want = derivative(lambda t: wronskian(chain, t), float(y), 1, 1e-3)
        got = wronskian_first_derivative(chain, float(y))
        assert got == pytest.approx(want, rel=1e-7, abs=1e-10)
        u1 = chain.funcs[0][0](float(y))
        assert got == pytest.approx(-u1 * u1, rel=1e-12)


def test_confluent_wronskian_from_quadrature():
    # W(y) = W(y0) - int_{y0}^{y} u1^2, so the transformed potential built
    # from the analytic W agrees with a quadrature reconstruction
    from scipy.integrate import quad
    chain = confluent_chain(4.0)
    y0 = -1.0
    w0 = wronskian(chain, y0)
    for y in (-0.5, 0.3):
        integral, _ = quad(lambda t: chain.funcs[0][0](t) ** 2, y0, y)
        assert wronskian(chain, y) == pytest.approx(w0 - integral, rel=1e-6)


def test_transformed_potential_against_log_derivative():
    chain = standard_chain_u12(4.0, validate=False)
    for y in (-1.0, 0.0, 0.7):
        logw2 = derivative(lambda t: math.log(abs(wronskian(chain, t))), y, 2, 1e-3)
        want = chain.potential(y) - 2.0 * logw2
        assert transformed_potential(chain, y) == pytest.approx(want, rel=1e-6)


def test_order1_transformed_potential():
    # points chosen away from the node of u1 near y = 0.2
    chain = standard_chain_order1(4.0, validate=False)
    for y in (-1.5, -1.0, 0.8):
        logw2 = derivative(lambda t: math.log(abs(chain.funcs[0][0](t))), y, 2, 1e-3)
        want = chain.potential(y) - 2.0 * logw2
        assert transformed_potential(chain, y) == pytest.approx(want, rel=1e-6)


def test_chain_residuals_standard():
    chain = standard_chain_u12(4.0, validate=False)
    res = chain_residuals(chain, GRID)
    assert np.all(res < 1e-8)


def test_chain_residuals_confluent():
    chain = confluent_chain(4.0)
    res = chain_residuals(chain, GRID)
    assert res[0] < 1e-8
    assert res[1] < 1e-5


def test_chain_validation_raises_on_wrong_eps():
    chain = standard_chain_u12(4.0, validate=False)
    broken = DarbouxChain(kind=chain.kind, jet=chain.jet, order=chain.order,
                          eps=(0.3, -0.75), background=chain.background,
                          energy=chain.energy)
    with pytest.raises(ConstructionError):
        require_residuals(chain_residuals(broken, GRID), 1e-7)


def test_intertwining_standard_order2():
    params = DunklParams(nu=2.5, delta=-1, mu=1)
    chain = standard_chain_u12(4.0, validate=False)
    phi = mapped_initial_solution(params, 4.0)
    output = transform(chain, phi, GRID)
    assert output.wronskian_floor > 0
    for y in GRID[::5]:
        res = intertwining_residual(chain, output, phi.eps, float(y))
        scale = abs(output.phi_hat(float(y))) * (abs(phi.eps) + 1.0)
        assert abs(res) < 1e-6 * max(scale, 1.0)


def test_intertwining_confluent():
    params = DunklParams(nu=2.5, delta=-1, mu=1)
    chain = confluent_chain(4.0)
    phi = mapped_initial_solution(params, 4.0)
    output = transform(chain, phi, GRID)
    for y in GRID[::5]:
        res = intertwining_residual(chain, output, phi.eps, float(y))
        scale = abs(output.phi_hat(float(y))) * (abs(phi.eps) + 1.0)
        assert abs(res) < 1e-4 * max(scale, 1.0)


def _patch_family(monkeypatch, change):
    """Make confluent_chain read the family at index r as change(y, r, (scale, Phi, Phi'))."""
    real = scenarios._family
    monkeypatch.setattr(scenarios, "_family",
                        lambda r, y, *rows: change(y, r, real(r, y, *rows)))


def test_confluent_build_rejects_degenerate_family(monkeypatch):
    # every member is the member at eps1 (r = 3), so u2 is exactly 0
    rows = {}
    _patch_family(monkeypatch, lambda y, r, member: rows.setdefault(y.size, member))
    with pytest.raises(ConstructionError, match="does not depend on eps"):
        confluent_chain(4.0)


def _nan_at_zero(value, y):
    return np.where(y == 0.0, np.nan, value)


def test_confluent_build_refuses_a_nan_member(monkeypatch):
    # u1 is NaN at y = 0, a point of the validation grid, and the stencil
    # probes of u2 are finite: the NaN residual must refuse the chain,
    # which is accepted without it
    def nan_u1(y, r, member):
        scale, u, up = member
        return (scale, _nan_at_zero(u, y), up) if r == 3.0 else member

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        confluent_chain(4.0)
        _patch_family(monkeypatch, nan_u1)
        with pytest.raises(ConstructionError, match="nan"):
            confluent_chain(4.0)


def test_chain_validation_refuses_a_nan_member():
    # u'' + (eps - y^2) u = 0 at eps = 1 and 3, with u1 NaN at y = 0
    u1 = lambda y: _nan_at_zero(np.exp(-0.5 * y * y), y)
    u1p = lambda y: -y * np.exp(-0.5 * y * y)
    u2 = lambda y: y * np.exp(-0.5 * y * y)
    u2p = lambda y: (1 - y * y) * np.exp(-0.5 * y * y)
    chain = _chain("standard", ((u1, u1p), (u2, u2p)), (1.0, 3.0),
                   _harmonic_oscillator_form())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = chain_residuals(chain, GRID)
        assert np.isnan(res[0]) and res[1] < 1e-8
        with pytest.raises(ConstructionError, match="nan"):
            require_residuals(chain_residuals(chain, GRID), 1e-7)


def test_matrix_size_cap():
    chain = _hermite_chain()
    f = (lambda y: 1.0, lambda y: 0.0)
    big = _chain("standard", chain.funcs + (f, f), (-1.0, -3.0, -5.0, -7.0),
                 chain.background)
    with pytest.raises(CapabilityError):
        wronskian(big, 0.0)


def test_floor_moves_with_rescaled_members():
    # U-hat and Phi-hat do not change when a member is rescaled, and
    # neither does their common floor: with both members of the Hermite
    # chain scaled by 1e-8, W is about 1e-16 and both stay finite
    chain = _hermite_chain()
    scaled = _chain("standard",
                    tuple((lambda y, f=f: 1e-8 * f(y), lambda y, d=d: 1e-8 * d(y))
                          for f, d in chain.funcs),
                    chain.eps, chain.background)
    phi = _hermite_phi()
    y = 0.3
    assert abs(wronskian(scaled, y)) < 1e-12
    u_hat = transformed_potential(scaled, y)
    phi_hat = transformed_solution(scaled, phi, y)
    assert math.isfinite(u_hat) and math.isfinite(phi_hat)
    assert u_hat == pytest.approx(transformed_potential(chain, y), rel=1e-12)
    assert phi_hat == pytest.approx(transformed_solution(chain, phi, y), rel=1e-12)


def test_wronskian_floor_guard():
    # u2/u1 ratio makes the order-2 Wronskian vanish at y = 0 when the
    # two functions are linearly dependent there
    form = _harmonic_oscillator_form()
    u = (lambda y: y, lambda y: 1.0)
    v = (lambda y: y, lambda y: 1.0)
    chain = _chain("standard", (u, v), (1.0, 2.0), form)
    phi = _solution(lambda y: 1.0, lambda y: 0.0, 0.0)
    with pytest.raises(SingularityError):
        transformed_solution(chain, phi, 0.5)


def test_transform_applies_the_relative_floor():
    # W = y - (y + 1e-13) = -1e-13 is nonzero on the whole grid, but below
    # the floor 1e-12 * max(|u1|, |u1'|) max(|u2|, |u2'|) = 1e-12 that
    # u_hat and phi_hat apply: transform refuses the grid itself, rather
    # than return callables that refuse every point
    form = _harmonic_oscillator_form()
    u = (lambda y: y, lambda y: 1.0)
    v = (lambda y: y + 1e-13, lambda y: 1.0)
    chain = _chain("standard", (u, v), (1.0, 2.0), form)
    phi = _solution(lambda y: 1.0, lambda y: 0.0, 0.0)
    with pytest.raises(SingularityError, match="below floor at y=0.5"):
        transform(chain, phi, np.linspace(0.5, 1.0, 11))
    with pytest.raises(SingularityError):
        transformed_potential(chain, 0.7)


def test_transformed_pair_refuses_below_floor_as_the_two_routines():
    # W = -1e-13 is below the floor 1e-12 on the whole grid: the pair
    # raises the error type and message that both routines raise
    form = _harmonic_oscillator_form()
    chain = _chain("standard", ((lambda y: y, lambda y: 1.0 + 0.0 * y),
                                (lambda y: y + 1e-13, lambda y: 1.0 + 0.0 * y)),
                   (1.0, 2.0), form)
    phi = _solution(lambda y: 1.0 + 0.0 * y, lambda y: 0.0 * y, 0.0)
    grid = np.linspace(0.5, 1.0, 11)
    errors = []
    for call in (lambda: transformed_pair(chain, phi, grid),
                 lambda: transformed_potential(chain, grid),
                 lambda: transformed_solution(chain, phi, grid)):
        with pytest.raises(SingularityError) as exc:
            call()
        errors.append((type(exc.value), str(exc.value)))
    assert errors[0] == errors[1] == errors[2]
    assert errors[0][1] == "Wronskian below floor at y=0.5"


def test_zero_wronskian_is_refused_where_the_floor_scale_underflows():
    # Far out on the confluent chain (here at E = 4, as in `darboux --kind
    # confluent`) the members are so small that W and the floor's scale
    # both underflow to 0, and 0 < 1e-12 * 0 is false: W = 0 itself is
    # refused, before Phi-hat's 0/0 (a RuntimeWarning, an error here)
    chain = confluent_chain(4.0)
    phi = mapped_initial_solution(DunklParams(nu=2.5, delta=-1, mu=1), 4.0)
    y = np.array([-400.0, -350.0, -300.0])
    w, _, _, scale = darboux._wronskian(chain, *darboux.read(chain, y)[1:3])
    assert not np.any(w) and not np.any(scale)
    for call in (lambda: transformed_pair(chain, phi, y),
                 lambda: transformed_potential(chain, y),
                 lambda: transformed_solution(chain, phi, y),
                 lambda: transform(chain, phi, y)):
        with pytest.raises(SingularityError, match=r"below floor at y=-400\.0$"):
            call()
    # the same with members of 1e-200: their product, the scale, is 0
    form = _harmonic_oscillator_form()
    tiny = (lambda t: 1e-200 * t, lambda t: 1e-200 + 0.0 * t)
    dependent = _chain("standard", (tiny, tiny), (1.0, 2.0), form)
    with pytest.raises(SingularityError, match="below floor at y=0.5"):
        transformed_potential(dependent, np.array([0.5, 1.0]))


@pytest.mark.parametrize("build", [standard_chain_order1, standard_chain_u12,
                                   confluent_chain])
def test_transformed_pair_equals_the_two_routines_bit_for_bit(build):
    E = 4.0
    chain = build(E) if build is confluent_chain else build(E, validate=False)
    phi = mapped_initial_solution(DunklParams(nu=2.5, delta=-1, mu=1), E)
    u_hat, phi_hat = transformed_pair(chain, phi, GRID)
    assert u_hat.tobytes() == transformed_potential(chain, GRID).tobytes()
    assert phi_hat.tobytes() == transformed_solution(chain, phi, GRID).tobytes()
    assert (transformed_pair(chain, phi, 0.25)
            == (transformed_potential(chain, 0.25), transformed_solution(chain, phi, 0.25)))
