"""One kernel call per chain read: the rows read ahead equal the rows read per grid.

``scenarios.seeded_chain`` reads its chain's Laguerre rows ahead, in one
call of the series kernel, on the confluent validation grid, that grid's
stencil nodes and the grids its caller names; ``verify``'s mapped-equation
check reads Phi ahead on its grid and stencil nodes.  The kernel is
elementwise, so every member, residual and refusal must be what the
reads one grid at a time give, bit for bit.  Figure 4 reads dV-hat/dE
from the same call, which derives the chain's rows and no others.
"""

import numpy as np
import pytest

from dunkl_darboux import cli, specfun
from dunkl_darboux.darboux import (KIND_CONFLUENT, KIND_STANDARD, DarbouxChain,
                                   chain_residuals, residual_grids, transformed_pair)
from dunkl_darboux.errors import DunklDarbouxError
from dunkl_darboux.libm import memo_scope
from dunkl_darboux.model import DunklParams
from dunkl_darboux.scenarios import (CONFLUENT_CHECK_GRID, ScenarioHarmonicEnergy,
                                     _mapped_degree, bound_state_energy,
                                     mapped_initial_solution, seeded_chain,
                                     standard_vhat_dE)


@pytest.fixture
def kernel_calls(monkeypatch):
    """The z sizes of every call of the series kernel's entry, ``specfun._kummer_rows``."""
    sizes = []
    real = specfun._kummer_rows

    def counted(a, b, z, *args, **kwargs):
        sizes.append(z.size)
        return real(a, b, z, *args, **kwargs)

    monkeypatch.setattr(specfun, "_kummer_rows", counted)
    return sizes


@pytest.mark.parametrize("argv, calls", [
    (["darboux", "--kind", "confluent"], 1),
    (["darboux", "--kind", "confluent", "--nu", "3.5", "--delta", "1", "--n", "2",
      "--grid-count", "90"], 1),
    (["darboux", "--kind", "standard", "--order", "1"], 1),
    (["figure", "7"], 3),
    (["figure", "3"], 3),
    (["figure", "4"], 3),
])
def test_kernel_call_budget_per_command(argv, calls, kernel_calls, capsys):
    # a confluent darboux reads its 12 rows on the validation grid, its
    # stencil nodes and y joined with ln(e^y) in one call; figures 3, 4
    # and 7 make one call per energy
    assert cli.run(argv) == cli.EXIT_OK
    capsys.readouterr()
    assert len(kernel_calls) == calls


def test_chain_residuals_check_makes_one_kernel_call(kernel_calls):
    # verify's mapped-equation check: Phi read ahead on the grid and the
    # stencil nodes, then chain_residuals reads both from the memo; the
    # confluent validation reads its 25 points and 100 nodes in one call
    params = DunklParams(nu=2.5, delta=-1, mu=1)
    E = bound_state_energy(1, params, "ene1")
    grid = np.linspace(-2.0, 1.0, 100)
    with memo_scope():
        phi = mapped_initial_solution(params, E, residual_grids(grid, None))
        chain = DarbouxChain(kind=KIND_STANDARD, funcs=((phi.f, phi.f1),), eps=(phi.eps,),
                             background=ScenarioHarmonicEnergy.form(), energy=E)
        chain_residuals(chain, grid, h=None)
    assert kernel_calls == [500]
    kernel_calls.clear()
    seeded_chain(None, 4.0, KIND_CONFLUENT)
    assert kernel_calls == [125]


def test_figure_4_derives_only_the_chain_rows(monkeypatch, capsys):
    # one call per energy reads the chain's four rows and Phi's two, and
    # derives the chain's four: d, d - 1 at r = 0 and at r = 2
    calls = []
    real = specfun._kummer_rows

    def recorded(a, b, z, da=False):
        calls.append((list(a), np.broadcast_to(da, len(a)).tolist()))
        return real(a, b, z, da)

    monkeypatch.setattr(specfun, "_kummer_rows", recorded)
    assert cli.run(["figure", "4", "--grid-count", "50"]) == cli.EXIT_OK
    capsys.readouterr()
    params = DunklParams(nu=2.5, delta=-1, mu=1)
    assert len(calls) == 3
    for n, (a, da) in enumerate(calls):
        E = bound_state_energy(n, params, "ene1")
        chain = [-(_mapped_degree(E, r) - k) for r in (0.0, 2.0) for k in (0.0, 1.0)]
        assert da == [True] * 4 + [False] * 2
        assert a[:4] == chain


def test_figure_4_vhat_dE_agrees_with_its_own_kernel_call():
    # figure 4's dV-hat/dE reads the chain's rows at z = e^{2 ln x}/sqrt(E);
    # standard_vhat_dE makes its own call at z = x^2/sqrt(E): they agree to
    # rounding
    params = DunklParams(nu=2.5, delta=-1, mu=1)
    xs = np.linspace(0.2, 3.0, 300)
    for n in (0, 1, 2):
        E = bound_state_energy(n, params, "ene1")
        with memo_scope():
            vhat_dE = seeded_chain(params, E, slopes=True)[2]
            got = vhat_dE(xs)
        want = standard_vhat_dE(E, xs)
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def _outcome(call):
    """The bits of call()'s arrays, or the type and text of its package error."""
    try:
        return [_bits(part) for part in call()]
    except DunklDarbouxError as exc:
        return type(exc).__name__, str(exc)


def _members(chain, phi, grids):
    """Bits of every member closure, of Phi and of the residuals, each grid read alone."""
    funcs = [f for pair in chain.funcs for f in pair]
    if phi is not None:
        funcs += [phi.f, phi.f1]
    out = []
    for y in grids:
        out.append(_outcome(lambda: [f(y) for f in funcs]))
    out.append(_outcome(lambda: [chain_residuals(chain, CONFLUENT_CHECK_GRID)]))
    return out


_CASES = [(kind, order, nu, delta, n) for kind, order in
          ((KIND_STANDARD, 1), (KIND_STANDARD, 2), (KIND_CONFLUENT, 2))
          for nu, delta in ((1.5, 1), (2.5, -1), (3.5, 1)) for n in (0, 2)]


@pytest.mark.parametrize("kind, order, nu, delta, n", _CASES)
def test_rows_read_ahead_equal_rows_read_per_grid(kind, order, nu, delta, n):
    # the chain and Phi read ahead on the command's grids (y joined with
    # ln(e^y), and ln(x) of a figure grid) with the validation grids, and
    # read one grid at a time in scopes of their own: every member, Phi,
    # the residuals and the transformed pair agree bit for bit
    params = DunklParams(nu=nu, delta=delta, mu=1)
    E = bound_state_energy(n, params, "ene1")
    ys = np.linspace(-2.0, 1.0, 61)
    grids = [cli._joined_grid(ys, cli.exp(ys))[0], cli.log(np.linspace(0.2, 3.0, 37))]
    with memo_scope():
        chain, phi = seeded_chain(params, E, kind, order, grids=grids)
        ahead = _members(chain, phi, grids + residual_grids(CONFLUENT_CHECK_GRID))
        ahead.append(_outcome(lambda: transformed_pair(chain, phi, grids[0])))
    alone = []
    chain, phi = seeded_chain(params, E, kind, order)
    for y in grids + residual_grids(CONFLUENT_CHECK_GRID):
        with memo_scope():
            alone += _members(chain, phi, [y])[:1]
    with memo_scope():
        alone.append(_outcome(lambda: [chain_residuals(chain, CONFLUENT_CHECK_GRID)]))
    with memo_scope():
        alone.append(_outcome(lambda: transformed_pair(chain, phi, grids[0])))
    assert ahead == alone


@pytest.mark.parametrize("kind, E, lo, hi", [
    (KIND_CONFLUENT, 4.0, 1.0, 25.0),        # the kernel's |z| range
    (KIND_STANDARD, 4.0, 1.0, 25.0),
    (KIND_CONFLUENT, 4.0, -2.0, 1.0),        # no refusal: the pair's bits
    (KIND_CONFLUENT, 4.0, -400.0, -300.0),   # W and its floor's scale are 0
])
def test_refusal_read_ahead_equals_refusal_read_per_grid(kind, E, lo, hi):
    # a grid that the kernel or the Wronskian refuses is refused with the
    # same text whether the build read its rows ahead or not
    params = DunklParams(nu=2.5, delta=-1, mu=1)
    grid = np.linspace(lo, hi, 7)
    with memo_scope():
        ahead = _outcome(lambda: transformed_pair(*seeded_chain(params, E, kind, grids=[grid]),
                                                  grid))
    chain, phi = seeded_chain(params, E, kind)
    with memo_scope():
        alone = _outcome(lambda: transformed_pair(chain, phi, grid))
    assert ahead == alone
    assert isinstance(alone, tuple) == (lo > 0 or lo < -300)
