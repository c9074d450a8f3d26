"""Degree derivatives of the Laguerre kernel, the standard chain's printed
columns (``darboux``, figure 3's V-hat, figures 5 and 6's psi-hat) and
figure 4's dV-hat/dE against mpmath.

The oracle differentiates mpmath's own laguerre numerically at 40
digits, so it shares no code with the package.  The degrees include the
two traps of the derivative series: near-integer degrees, whose terms
past the integer are tiny while their harmonic multipliers are huge,
and exact integers, where the value is a polynomial but the derivative
is not.
"""

import math

import numpy as np
import pytest

from dunkl_darboux import cli, specfun
from dunkl_darboux.errors import DomainError
from dunkl_darboux.libm import Grid, exp, log, power
from dunkl_darboux.model import DunklParams
from dunkl_darboux.scenarios import bound_state_energy, seeded_chain
from dunkl_darboux.specfun import _digamma_difference, assoc_laguerre_grid

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp

ZS = np.array([0.0, 0.05, 0.3, 1.0, 2.5, 4.5, 12.0, 40.0, 90.0])  # the last three grow the series


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def _degree_derivative(d, alpha, z):
    with mp.workdps(40):
        return mp.diff(lambda t: mp.laguerre(t, alpha, z), mp.mpf(d))


@pytest.mark.parametrize("degree, alpha", [
    (1.5, 0.0), (2.7, 0.3), (0.5, 1.0), (4.6, 3.0), (-0.5, 1.0), (-1.5, 2.0),  # generic
    (1 - 4e-16, 1.0), (1.9999999999999996, 1.0), (2.9999999999999996, 2.0),  # near-integer
    (-4.440892098500626e-16, 2.0),
    (0.0, 2.0), (1.0, 1.0), (2.0, 0.0), (3.0, 1.5),                          # integer
    (-1.0, 2.0),                                                             # Gamma pole
])
def test_degree_derivative_matches_mpmath(degree, alpha):
    values, slopes = assoc_laguerre_grid(degree, alpha, ZS, degree_derivative=True)
    assert _bits(values) == _bits(assoc_laguerre_grid(degree, alpha, ZS))
    for z, got in zip(ZS, slopes):
        want = _degree_derivative(degree, alpha, z)
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want))


@pytest.mark.parametrize("x", [4.4e-16, 0.3, 1.0, 1.5, 2.0, 2.5, 9.99, 10.0, 55.3, 1e6,
                               -0.5, -1 + 4e-16, -2.7])
@pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0, 2.0, 3.5])
def test_digamma_difference_matches_mpmath(x, alpha):
    with mp.workdps(40):
        want = mp.digamma(mp.mpf(x) + mp.mpf(alpha)) - mp.digamma(x)
    # a few ulps of the larger of 1 and the difference: for x < 0 the
    # recurrence's steps change sign, and -0.5 + 2 is a zero of it
    assert abs(_digamma_difference(x, alpha) - want) <= 2.5e-15 * max(1.0, abs(want))


@pytest.mark.parametrize("degree, alpha", [(1.7, 0.5), (1 - 4e-16, 1.0), (1.0, 1.0),
                                           (-1.0, 2.0)])
def test_degree_derivative_grid_equals_points_bit_for_bit(degree, alpha):
    rows = ([degree, degree - 1.0], [alpha, alpha + 1.0])
    _, slopes = assoc_laguerre_grid(*rows, ZS, degree_derivative=True)
    points = [assoc_laguerre_grid(*rows, np.array([z]), degree_derivative=True)[1][:, 0]
              for z in ZS]
    assert _bits(slopes.T) == _bits(points)
    _, single = assoc_laguerre_grid(degree, alpha, ZS, degree_derivative=True)
    assert _bits(single) == _bits(slopes[0])


def test_degree_derivative_needs_z_above_reflection_seam():
    with pytest.raises(DomainError, match="a-derivative needs z >= -1"):
        assoc_laguerre_grid(1.5, 0.0, np.array([0.5, -1.5]), degree_derivative=True)


def _chain_model(E, y, order, params=None):
    """(U-hat, Phi-hat) at y of the standard chain of order 1 or 2 at energy E, in
    mpmath: Phi-hat of the seed Phi of params (None without params)."""
    z = mp.exp(2 * y) / mp.sqrt(E)

    def member(r):
        d = -mp.mpf(1) / 2 + E ** mp.mpf(1.5) / 4 - mp.mpf(r) / 4
        alpha = mp.mpf(r) / 2
        lag, lag1 = mp.laguerre(d, alpha, z), -mp.laguerre(d - 1, alpha + 1, z)
        scale = mp.exp(-z / 2 + r * y / 2)
        return scale * lag, scale * ((alpha - z) * lag + 2 * z * lag1)

    u = mp.mpf(1) / 4 - E * mp.exp(2 * y) + mp.exp(4 * y) / E
    eps = [mp.mpf(1) / 4, -mp.mpf(3) / 4][:order]
    members = [member(r) for r in (0, 2)[:order]]
    if order == 1:
        (v1, g1), = members
        w, wp, wpp = v1, g1, (u - eps[0]) * v1
    else:       # W', W'' by Abel's identity, eps1 - eps2 = 1
        (v1, g1), (v2, g2) = members
        w, wp, wpp = v1 * g2 - g1 * v2, v1 * v2, g1 * v2 + v1 * g2
    u_hat = u - 2 * (wpp * w - wp * wp) / w ** 2
    if params is None:
        return u_hat, None
    # Phi: the family at r = sqrt(1 - 4 delta nu + 4 nu^2), eps = delta nu - nu^2
    nu, delta = mp.mpf(params.nu), params.delta
    members.append(member(mp.sqrt(1 - 4 * delta * nu + 4 * nu ** 2)))
    eps.append(delta * nu - nu ** 2)
    # W(u_1..u_n, Phi), each u'' = (U - eps) u
    numerator = mp.det(mp.matrix([[v, g, (u - e) * v][:order + 1]
                                  for (v, g), e in zip(members, eps)]))
    return u_hat, numerator / w


def _vhat_model(E, x):
    """V-hat(x) of the order-2 standard chain at energy E, in mpmath."""
    return E - (mp.mpf(1) / 4 - _chain_model(E, mp.log(x), 2)[0]) / x ** 2


@pytest.mark.parametrize("nu, delta", [(2.5, -1), (1.5, 1), (1.5, -1)])
def test_figure_3_vhat_matches_mpmath_model(nu, delta):
    # figure 3's columns as the command computes them, before they are
    # printed (12 digits would move a value by about 4e-12 of the column
    # maximum), at 10 points of its default grid per energy
    config = cli._settings(cli.build_parser().parse_args(
        ["figure", "3", "--nu", str(nu), "--delta", str(delta)]))
    header, rows = cli._FIGURES[3](config)
    table = np.array(rows)
    params = DunklParams(nu=nu, delta=delta, mu=1)
    for n in (0, 1, 2):
        E = bound_state_energy(n, params, "ene1")
        column = table[:, header.index(f"v_hat_{n}")]
        top = np.max(np.abs(column))
        with mp.workdps(40):
            for x, got in zip(table[::33, 0], column[::33]):
                want = _vhat_model(mp.mpf(E), mp.mpf(x))
                assert abs(got - want) <= 1e-12 * top


# (order, nu, delta, n) of the standard darboux chains; order 2 at (1.5, +1)
# is left out: there Phi is the chain's own u2, and Phi-hat is rounding noise
DARBOUX_CASES = [(order, nu, delta, n) for order in (1, 2) for nu in (1.5, 2.5, 3.5)
                 for delta in (1, -1) for n in (0, 2) if (order, nu, delta) != (2, 1.5, 1)]


@pytest.mark.parametrize("order, nu, delta, n", DARBOUX_CASES)
def test_darboux_columns_match_mpmath_model(order, nu, delta, n):
    # the columns of darboux --kind standard, as the command computes them
    # before they are printed, at 10 points of its default y grid
    params = DunklParams(nu=nu, delta=delta, mu=1)
    E = bound_state_energy(n, params, "ene1")
    ys = Grid(np.linspace(-2.0, 1.0, 200))
    xs = exp(ys)
    chain, phi = seeded_chain(params, E, "standard", order,
                              grids=[cli._joined_grid(ys, xs)[0]])
    u_hat, phi_hat, v_hat = cli._chain_columns(E, chain, phi, ys, xs)
    columns = [u_hat, phi_hat, v_hat, power(xs, 0.5 - nu) * phi_hat]
    tops = [np.max(np.abs(column)) for column in columns]
    with mp.workdps(40):
        E = mp.mpf(E)
        for i in range(0, ys.size, 20):
            y, x = mp.mpf(float(ys[i])), mp.mpf(float(xs[i]))
            at_y, at_x = _chain_model(E, y, order, params), _chain_model(E, mp.log(x), order,
                                                                         params)
            wants = [at_y[0], at_y[1], E - (mp.mpf(1) / 4 - at_x[0]) / x ** 2,
                     x ** (mp.mpf(1) / 2 - nu) * at_x[1]]
            for column, top, want in zip(columns, tops, wants):
                assert abs(column[i] - want) <= 1e-12 * top


@pytest.mark.parametrize("number, nu, delta", [(5, 2.5, -1), (6, 3.5, 1)])
def test_figure_psi_hat_matches_mpmath_model(number, nu, delta):
    # figures 5 and 6 as the command computes them, at 10 points of the
    # default grid per energy: psi-hat(x) = x^(1/2 - nu) Phi-hat(ln x)
    config = cli._settings(cli.build_parser().parse_args(["figure", str(number)]))
    header, rows = cli._FIGURES[number](config)
    table = np.array(rows)
    params = DunklParams(nu=nu, delta=delta, mu=1)
    for n in (0, 1, 2):
        E = bound_state_energy(n, params, "ene1")
        column = table[:, header.index(f"psi_hat_{n}")]
        top = np.max(np.abs(column))
        with mp.workdps(40):
            for x, got in zip(table[::30, 0], column[::30]):
                x = mp.mpf(x)
                phi_hat = _chain_model(mp.mpf(E), mp.log(x), 2, params)[1]
                assert abs(got - x ** (mp.mpf(1) / 2 - nu) * phi_hat) <= 1e-12 * top


@pytest.mark.parametrize("n", [0, 1, 2])
def test_figure_4_vhat_dE_matches_mpmath_model(n):
    # figure 4's route, energies and grid: seeded_chain(..., slopes=True)
    # read on the Grid x whose ln x the build read, at nu = 5/2 and
    # delta = -1, where the r = 2 member's degree is 0.9999999999999996,
    # 1.9999999999999996, 2.9999999999999996
    params = DunklParams(nu=2.5, delta=-1, mu=1)
    E = bound_state_energy(n, params, "ene1")
    xs = Grid(np.linspace(0.2, 3.0, 300))
    got = 1.0 - seeded_chain(params, E, grids=[log(xs)], slopes=True)[-1](xs)
    with mp.workdps(40):
        for x, g in zip(xs, got):
            want = 1 - mp.diff(lambda e: _vhat_model(e, mp.mpf(float(x))), mp.mpf(E))
            assert abs(g - want) <= 1e-12 * abs(want)


def test_derivative_rows_run_only_when_asked(monkeypatch, capsys):
    # chains, verify and the figures other than 4 never read the rows
    def refuse(*args):
        raise AssertionError("degree derivative computed")

    monkeypatch.setattr(specfun, "_digamma_difference", refuse)
    for argv in (["darboux", "--grid-count", "30"],
                 ["darboux", "--kind", "confluent", "--grid-count", "30"],
                 ["verify", "--scenario", "harmonic-energy", "--nu", "2.5", "--delta", "-1"],
                 ["figure", "3", "--grid-count", "30"], ["figure", "7", "--grid-count", "30"]):
        assert cli.run(argv) == cli.EXIT_OK
    with pytest.raises(AssertionError, match="degree derivative computed"):
        cli.run(["figure", "4", "--grid-count", "30"])
    capsys.readouterr()


def test_figure_4_vhat_dE_guards():
    # E <= 0 is refused by the build, x <= 0 by ln x, before any kernel call
    params = DunklParams(nu=2.5, delta=-1, mu=1)
    with pytest.raises(DomainError, match="E must be positive"):
        seeded_chain(params, 0.0, slopes=True)
    vhat_dE = seeded_chain(params, 4.0, slopes=True)[-1]
    with pytest.raises(DomainError, match=r"log\(0\.0\)"):
        vhat_dE(np.array([1.0, 0.0]))
    assert math.isfinite(vhat_dE(np.array([1.0]))[0])
