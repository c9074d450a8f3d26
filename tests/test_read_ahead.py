"""One kernel call per chain read: the joined read equals the reads one grid at a time.

``scenarios.seeded_chain`` reads its chain's Laguerre rows once, in one
call of the series kernel, on the confluent validation grid, that grid's
stencil nodes and the ``libm.Grid``s its caller names, and keeps each
caller Grid's rows with it; ``verify``'s mapped-equation check reads Phi
on its grid and stencil nodes in one call.  The kernel is elementwise, so
every member, residual and refusal must be what the chain's jet gives,
read one grid at a time, bit for bit.  Figure 4 reads dV-hat/dE from the
same call, which derives the chain's rows and no others.
"""

import numpy as np
import pytest

from dunkl_darboux import cli, specfun
from dunkl_darboux.darboux import (KIND_CONFLUENT, KIND_STANDARD, chain_residuals, read,
                                   residual_grids, residuals, transformed_pair)
from dunkl_darboux.errors import DunklDarbouxError
from dunkl_darboux.libm import Grid, log
from dunkl_darboux.model import DunklParams
from dunkl_darboux.scenarios import (CONFLUENT_CHECK_GRID, _mapped_degree, _vhat_dE,
                                     bound_state_energy, mapped_equation_residual,
                                     seeded_chain)


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
    (["figure", "5"], 3),
    (["figure", "6"], 3),
    (["verify", "--scenario", "harmonic-energy", "--nu", "2.5", "--delta", "-1"], 4),
    (["verify", "--scenario", "gaussian-mass", "--nu", "0.5", "--delta", "-1"], 3),
])
def test_kernel_call_budget_per_command(argv, calls, kernel_calls, capsys):
    # a confluent darboux reads its 12 rows on the validation grid, its
    # stencil nodes and y joined with ln(e^y) in one call; figures 3-7
    # make one call per energy; the harmonic-energy verify reads psi's
    # three Laguerre rows, one call each, and the mapped-equation check's
    # Phi in one call; the gaussian-mass verify reads psi's Kummer row
    # (at n = 0 its derivative rows have coefficient 0 and are not read)
    # at the norm's two far nodes, at its other nodes, and on the grid
    # with its reflection
    assert cli.run(argv) == cli.EXIT_OK
    capsys.readouterr()
    assert len(kernel_calls) == calls


def test_chain_residuals_check_makes_one_kernel_call(kernel_calls):
    # verify's mapped-equation check reads Phi on the grid and the stencil
    # nodes in one call; the confluent validation reads its 25 points and
    # 100 nodes in one call
    params = DunklParams(nu=2.5, delta=-1, mu=1)
    E = bound_state_energy(1, params, "ene1")
    mapped_equation_residual(params, E, np.linspace(-2.0, 1.0, 100))
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


def _vhat_dE_at_x_squared(E, x):
    """``_vhat_dE`` from a kernel call of its own at z = x^2/sqrt(E), not e^{2 ln x}/sqrt(E)."""
    z = (1.0 / np.sqrt(E)) * (x * x)
    degrees = [_mapped_degree(E, r) - k for r in (0.0, 2.0) for k in (0.0, 1.0)]
    lag, lag_dd = specfun.assoc_laguerre_grid(degrees, [0.0, 1.0, 1.0, 2.0], z,
                                              degree_derivative=True)
    return _vhat_dE(E, x, z, lag.values, lag_dd.values)


def test_figure_4_vhat_dE_agrees_with_its_own_kernel_call(kernel_calls):
    # figure 4's dV-hat/dE reads the chain's rows at z = e^{2 ln x}/sqrt(E),
    # on the Grid ln x the build read (no call of its own), or at any other
    # x; a call of its own at z = x^2/sqrt(E) agrees to rounding
    params = DunklParams(nu=2.5, delta=-1, mu=1)
    xs = Grid(np.linspace(0.2, 3.0, 300))
    for n in (0, 1, 2):
        E = bound_state_energy(n, params, "ene1")
        kernel_calls.clear()
        vhat_dE = seeded_chain(params, E, grids=[log(xs)], slopes=True)[-1]
        got = vhat_dE(xs)
        assert len(kernel_calls) == 1
        for x, value in ((xs, got), (xs[::7], vhat_dE(np.asarray(xs[::7])))):
            want = _vhat_dE_at_x_squared(E, np.asarray(x))
            assert np.all(np.abs(value - want) <= 1e-13 * np.abs(want))


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def _outcome(call):
    """The bits of call()'s arrays, or the type and text of its package error."""
    try:
        return [_bits(part) for part in call()]
    except DunklDarbouxError as exc:
        return type(exc).__name__, str(exc)


def _arrays(at):
    """U, every member's (u, u') and (Phi, Phi') of one read of the chain, in that order."""
    return [at.u, *[part for member in at.members for part in member], *at.solution]


_CASES = [(kind, order, nu, delta, n) for kind, order in
          ((KIND_STANDARD, 1), (KIND_STANDARD, 2), (KIND_CONFLUENT, 2))
          for nu, delta in ((1.5, 1), (2.5, -1), (3.5, 1)) for n in (0, 2)]


@pytest.mark.parametrize("kind, order, nu, delta, n", _CASES)
def test_rows_read_ahead_equal_rows_read_per_grid(kind, order, nu, delta, n):
    # the chain and Phi read in one kernel call on the command's grids (y
    # joined with ln(e^y), and ln(x) of a figure grid) with the validation
    # grids, and read one grid at a time through their jets: U, every
    # member, Phi, the residuals and the transformed pair agree bit for bit
    params = DunklParams(nu=nu, delta=delta, mu=1)
    E = bound_state_energy(n, params, "ene1")
    ys = np.linspace(-2.0, 1.0, 61)
    grids = [cli._joined_grid(ys, cli.exp(ys))[0], cli.log(np.linspace(0.2, 3.0, 37)),
             *residual_grids(CONFLUENT_CHECK_GRID)]
    grids = [np.asarray(y) for y in grids]
    kept = [Grid(y.copy()) for y in grids]
    chain, phi = seeded_chain(params, E, kind, order, grids=kept)
    ahead = [_outcome(lambda y=y: _arrays(read(chain, y, phi))) for y in kept]
    ahead.append(_outcome(lambda: [residuals(chain, read(chain, kept[2]),
                                             [g for _, g in chain.jet(kept[3])])]))
    ahead.append(_outcome(lambda: transformed_pair(chain, phi, kept[0])))
    alone = [_outcome(lambda y=y: _arrays(read(chain, y, phi))) for y in grids]
    alone.append(_outcome(lambda: [chain_residuals(chain, CONFLUENT_CHECK_GRID)]))
    alone.append(_outcome(lambda: transformed_pair(chain, phi, grids[0])))
    assert ahead == alone


def test_kept_rows_are_read_without_a_kernel_call(kernel_calls):
    # a build reads its caller's Grid in its own call; the chain's and
    # Phi's jets read that Grid's rows, and a fresh grid costs one call for both
    params = DunklParams(nu=2.5, delta=-1, mu=1)
    grid = Grid(np.linspace(-2.0, 1.0, 30))
    chain, phi = seeded_chain(params, 4.0, grids=[grid])
    transformed_pair(chain, phi, grid)
    assert kernel_calls == [30]
    transformed_pair(chain, phi, np.linspace(-2.0, 1.0, 20))
    assert kernel_calls == [30, 20]


@pytest.mark.parametrize("kind, E, lo, hi", [
    (KIND_CONFLUENT, 4.0, 1.0, 25.0),        # the kernel's |z| range
    (KIND_STANDARD, 4.0, 1.0, 25.0),
    (KIND_CONFLUENT, 4.0, -2.0, 1.0),        # no refusal: the pair's bits
    (KIND_CONFLUENT, 4.0, -400.0, -300.0),   # W and its floor's scale are 0
])
def test_refusal_read_ahead_equals_refusal_read_per_grid(kind, E, lo, hi):
    # a grid that the kernel or the Wronskian refuses is refused with the
    # same text whether the build read the grid or the jets read it after
    params = DunklParams(nu=2.5, delta=-1, mu=1)
    grid = np.linspace(lo, hi, 7)

    def joined():
        kept = Grid(grid.copy())
        chain, phi = seeded_chain(params, E, kind, grids=[kept])
        return transformed_pair(chain, phi, kept)

    ahead = _outcome(joined)
    chain, phi = seeded_chain(params, E, kind)
    alone = _outcome(lambda: transformed_pair(chain, phi, grid))
    assert ahead == alone
    assert isinstance(alone, tuple) == (lo > 0 or lo < -300)
