"""The paper's end product: psi-hat solves the transformed Dunkl equation with V-hat.

psi-hat(x) = x^{1/2 - nu} Phi-hat(ln x) (``pipeline_hatpsi``) and V-hat
(``pipeline_vhat``) of each chain form a new Dunkl-Schrodinger problem:
mass 1/2, deformation nu, parity delta, potential V-hat at the chain's
energy E.  Its relative residual (``model.dunkl_residual``) is checked on
x > 0, with psi-hat' and psi-hat'' from 5-point central stencils of step
h = 1e-2, on the (kind, order, nu, delta, n) of the ``chains`` benchmark
population and on figures 4-6 at their defaults.

Points closer than ``POLE_RADIUS`` to a sign change of W are dropped:
there V-hat and psi-hat have poles (the order-1 chain, W = u1, has one or
two in the window), and the stencil error grows like (h / distance)^4.
The order-2 standard chain at (nu, delta) = (3/2, +1), whose seed Phi is
its own member u2, transforms Phi to zero (ROADMAP item 5) and is left out.
"""

import numpy as np
import pytest

from dunkl_darboux.darboux import KIND_CONFLUENT, KIND_STANDARD, wronskian
from dunkl_darboux.model import (DunklParams, DunklSystem, EnergyPotential, ParityFunction,
                                 dunkl_residual)
from dunkl_darboux.scenarios import (ScenarioHarmonicEnergy, bound_state_energy,
                                     pipeline_hatpsi, pipeline_vhat, seeded_chain)

CHAIN_CONFIGS = ((KIND_STANDARD, 1), (KIND_STANDARD, 2), (KIND_CONFLUENT, 2))
CHAIN_WINDOW = np.linspace(0.3, 2.8, 60)
FIGURE_WINDOW = np.linspace(0.2, 3.0, 60)
POLE_RADIUS = 0.3

# The worst relative residual each chain is held to at h = 1e-2.  The
# order-1 chain's poles sit inside the window, so its stencil error is
# about 5e-6 there (and 4e-8 at h = 3e-3).
TOLERANCE = {(KIND_STANDARD, 1): 1e-5, (KIND_STANDARD, 2): 1e-6, (KIND_CONFLUENT, 2): 1e-4}

_CASES = ([(kind, order, nu, delta, n, CHAIN_WINDOW)
           for kind, order in CHAIN_CONFIGS for nu in (1.5, 2.5, 3.5) for delta in (-1, 1)
           for n in (0, 2) if (kind, order, nu, delta) != (KIND_STANDARD, 2, 1.5, 1)]
          + [(KIND_STANDARD, 2, nu, delta, n, FIGURE_WINDOW)
             for nu, delta in ((2.5, -1), (3.5, 1)) for n in (0, 1, 2)])


def _pruned(chain, xs):
    """xs without the points within POLE_RADIUS of a sign change of W(ln x)."""
    w = wronskian(chain, np.log(xs))
    keep = np.ones(xs.size, dtype=bool)
    for i in np.flatnonzero(np.sign(w[:-1]) != np.sign(w[1:])):
        zero = xs[i] - w[i] * (xs[i + 1] - xs[i]) / (w[i + 1] - w[i])
        keep &= np.abs(xs - zero) > POLE_RADIUS
    return xs[keep]


def _stencil(f, x, h):
    """(f, f', f'') at x from the 5-point central stencil of step h."""
    s = {k: f(x + k * h) for k in (-2, -1, 0, 1, 2)}
    first = (s[-2] - 8 * s[-1] + 8 * s[1] - s[2]) / (12 * h)
    second = (-s[-2] + 16 * s[-1] - 30 * s[0] + 16 * s[1] - s[2]) / (12 * h * h)
    return s[0], first, second


def _worst_residual(params, E, chain, phi, xs, h):
    """Max |relative residual| of psi-hat in the Dunkl equation with V-hat, on xs."""
    psi, psi1, psi2 = _stencil(lambda x: pipeline_hatpsi(params, E, chain, x, phi), xs, h)
    vhat = pipeline_vhat(E, chain, xs)
    system = DunklSystem(params=params, mass=ScenarioHarmonicEnergy().mass(),
                         potential=EnergyPotential(v=lambda e, x: vhat, dv_dE=lambda e, x: 0.0))
    state = ParityFunction(jet=lambda x, k: (psi, psi1, psi2), parity=params.delta)
    return float(np.max(np.abs(dunkl_residual(system, state, E, xs, relative=True))))


@pytest.mark.parametrize("kind, order, nu, delta, n, window", _CASES)
def test_transformed_state_solves_the_transformed_equation(kind, order, nu, delta, n, window):
    params = DunklParams(nu=nu, delta=delta, mu=1)
    E = bound_state_energy(n, params, "ene1")
    chain, phi = seeded_chain(params, E, kind, order)
    xs = _pruned(chain, window)
    assert xs.size >= 30
    coarse = _worst_residual(params, E, chain, phi, xs, 1e-2)
    assert coarse <= TOLERANCE[kind, order]
    if kind == KIND_STANDARD:
        # the stencil, not the chain, sets the residual: a finer step lowers it
        assert _worst_residual(params, E, chain, phi, xs, 3e-3) <= coarse
