"""Executable reconstructions of the worked solvable systems.

Three named scenarios are exposed:

* ``gaussian-mass``      — Gaussian mass profile m = e^{-x^2} with an
  energy-dependent potential, mapped to standard form by x = sqrt(y);
  bound states in terms of the Kummer function.
* ``harmonic-energy``    — constant mass 1/2 with V = x^2/E, mapped by
  x = exp(y); seeds the standard and confluent Darboux chains, with
  closed-form transformed states in terms of Bessel I0/I1.
* ``harmonic-energy-pdm`` — position-dependent-mass re-realization of the
  same mapped potential (m = x^2/2), equivalent after a redefinition of
  the deformation parameter.

Energies always come from the quantization rules, never hard-coded, so
parameter sweeps stay consistent.  Each family of closed forms is
written once, as a jet (one call gives the value and the derivatives a
caller reads, their shared factors computed once), with analytic
derivatives from the contiguous-derivative identities of the Kummer and
Laguerre functions: ``_decaying_state`` for the x-space bound states,
``_family`` for the mapped-coordinate solutions.  The Darboux chains are
built here too, on members of the mapped family, by one builder,
``seeded_chain``.  A chain's members and the seed Phi that it transforms
read one row group (``_Group``), one kernel call per ``libm.Grid``,
which keeps the rows: a build reads the confluent chain's validation
grid, its stencil nodes and the Grids its caller names in one call, so
a ``darboux`` and each energy of figures 3-7 make one kernel call, and
so does ``verify``'s mapped-equation check.  Figure 4's group also holds
the degree derivatives of the chain's rows, from the same call, and its
dV-hat/dE (``_vhat_dE``) is formed from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .darboux import (ChainRead, DarbouxChain, KIND_CONFLUENT, KIND_STANDARD, OdeSolution,
                      chain_residuals, require_residuals, residual_grids, residuals,
                      transformed_potential, transformed_solution)
from .errors import ConstructionError, ContractError, DomainError, SingularityError
from .libm import Grid, exp, exp_scaled, exp_square, log, power
from .model import (DunklParams, DunklSystem, EnergyPotential, MassProfile,
                    ParityFunction)
from .numerics import (DEFAULT_PARAM_STEP_SCALE, PARAM_STENCIL_OFFSETS,
                       parameter_derivative, parameter_probes)
from .pointmap import CoordinateChange, SchrodingerForm, exp_map, sqrt_map
from .specfun import assoc_laguerre_grid, bessel_i, kummer_m, kummer_m_grid

# Validation grids: cover the figures' visible support while staying
# clear of x = 0 and the Wronskian tails.
DUNKL_GRID = np.linspace(0.1, 4.0, 400)

PARITY_ODD = "odd"
PARITY_EVEN = "even"
PARITY_NONE = "no admissible parity"


def _four_nu_squared(nu: float) -> float:
    """4 nu^2, or a DomainError once it overflows (|nu| above about 6.7e153)."""
    try:
        value = 4.0 * nu**2
    except OverflowError:
        value = math.inf
    if value == math.inf:
        raise DomainError(f"nu = {nu:g} is out of range: |nu| must be below "
                          f"about 6.7e153, where 4 nu^2 overflows")
    return value


def discriminant_root(params: DunklParams) -> float:
    """sqrt(1 - 4 delta nu + 4 nu^2), the recurring index combination."""
    return math.sqrt(1.0 - 4.0 * params.delta * params.nu + _four_nu_squared(params.nu))


def monomial_exponent(params: DunklParams) -> float:
    """Exponent of the leading monomial factor of the closed forms."""
    return 0.5 - params.nu + 0.5 * discriminant_root(params)


def _finite_square(value, x):
    """value, a multiple of x^2, or a DomainError at the first |x| where it overflowed."""
    bad = ~np.isfinite(value)
    if np.any(bad):
        at = float(np.abs(np.broadcast_to(x, np.shape(bad)))[bad][0])
        raise DomainError(f"|x| = {at:g} is out of range: x^2 overflows")
    return value


def _extended(core, parity: int):
    """The jet (x, k) -> (f, ..., f^(k)) of core, a jet on x > 0, extended by parity.

    core reads |x| as a ``libm.Grid`` (``Grid.absolute``): a Grid of
    positive points is read itself, so core shares its factors with the
    other readers of that Grid, and a ``Grid.reflected`` reads each |x|
    once.  A float x is the grid [x].
    """
    signs = (parity, -parity, parity)

    def jet(x, k):
        grid = x if isinstance(x, Grid) else Grid(np.reshape(x, -1))
        a, at = grid.absolute()
        pos = grid > 0
        parts = [np.where(pos, 1.0, sign) * (v if at is None else v[at])
                 for sign, v in zip(signs, core(a, k))]
        if isinstance(x, np.ndarray):
            return [part.reshape(x.shape) for part in parts]
        return [float(part[0]) for part in parts]

    return jet


def _decaying_state(s: float, scale: float, decay: float, u, up, upp,
                    delta: int) -> ParityFunction:
    """e^{-decay x^2/2} x^s F(scale x^2) on x > 0, extended by parity delta.

    u, up and upp map an ndarray z to F, F' and F'' there, each read only
    by the derivatives that need it.  Both scenarios' bound states take
    this form: gaussian-mass with scale 1 and decay 2, harmonic-energy
    with scale = decay = 1/sqrt(E).  Where x^2 overflows the state is
    refused by |x|, where F would first read it.
    """

    def core(x, k):
        with np.errstate(over="ignore"):
            z = scale * x * x
        e = exp_square(x, -0.5 * decay)
        if k == 0:
            p = power(x, s)
            return [e * (p * u(_finite_square(z, x)))]
        p2 = power(x, s - 2)        # then the factors in the order f'' reads them
        f0, p, f1 = u(_finite_square(z, x)), power(x, s), up(z)
        g2 = (s * (s - 1) * p2 * f0 + (4 * s + 2) * scale * p * f1
              + 4 * scale * scale * power(x, s + 2) * upp(z))
        g1 = s * power(x, s - 1) * f0 + 2 * scale * power(x, s + 1) * f1
        g = p * f0
        return [e * g, e * (g1 - decay * x * g),
                e * (g2 - 2 * decay * x * g1 + (decay * decay * x * x - decay) * g)]

    return ParityFunction(jet=_extended(core, delta), parity=delta)


# ---------------------------------------------------------------------------
# Gaussian-mass scenario
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioGaussianMass:
    """Gaussian mass profile m = e^{-x^2} with its energy-dependent companion potential."""

    default_rule = "ene0"

    def mass(self) -> MassProfile:
        def jet(x):
            with np.errstate(over="ignore"):
                _finite_square(-x * x, x)
            m = exp_square(x, -1.0)
            return m, -2 * x * m, (4 * x * x - 2) * m

        return MassProfile(jet=jet, parity=1)

    def potential(self) -> EnergyPotential:
        def v(E, x):
            grow = exp_square(x, 1.0)
            return E - 2 * E * grow - 0.5 * grow

        return EnergyPotential(v=v, dv_dE=lambda E, x: 1.0 - 2 * exp_square(x, 1.0))

    def coord(self) -> CoordinateChange:
        return sqrt_map()

    def system(self, params: DunklParams) -> DunklSystem:
        if params.mu != 1:
            raise ContractError("gaussian-mass scenario requires even mass parity")
        return DunklSystem(params=params, mass=self.mass(), potential=self.potential())

    def solution(self, params: DunklParams, E: float) -> ParityFunction:
        return gaussian_solution_function(params, E)


def gaussian_admissible(params: DunklParams) -> bool:
    if params.delta == -1:
        return params.nu > -0.5
    return params.nu >= 0.5


def gaussian_solution_function(params: DunklParams, E: float) -> ParityFunction:
    """Decaying-form bound-state candidate for the gaussian-mass scenario.

    e^{-x^2} x^s M(a; b; x^2) with analytic derivatives via the Kummer
    contiguous rule dM/dz = (a/b) M(a+1; b+1; z).  Its jet takes a float
    or an ndarray of x.  A derivative whose coefficient is exactly 0
    (a = 0, or a = -1 for the second) never reads its Kummer factor; see
    ``_times_factor``.
    """
    if not gaussian_admissible(params):
        raise ContractError(f"(delta, nu) = ({params.delta}, {params.nu}) not admissible")
    r = discriminant_root(params)
    s = monomial_exponent(params)
    a = 0.5 - E + 0.5 * params.delta * params.nu + 0.25 * r
    b = 1.0 + 0.5 * r
    up = _times_factor(a / b, a + 1, b + 1)
    upp = _times_factor((a * (a + 1)) / (b * (b + 1)), a + 2, b + 2)
    return _decaying_state(s, 1.0, 2.0, _kummer(a, b), up, upp, params.delta)


def _times_factor(coef: float, a: float, b: float):
    """z -> coef M(a; b; z) on an ndarray z, with M not read when coef is exactly 0.

    coef is 0 only at a = 1 or 2 here; with b > 0 and z = x^2 >= 0,
    M > 0, so the product is the zero of coef's sign, which is returned.
    """
    if coef != 0.0:
        factor = _kummer(a, b)
        return lambda z: coef * factor(z)
    return lambda z: coef * np.zeros_like(z)


def gaussian_solution(params: DunklParams, E: float, x: float,
                      form: str = "decaying") -> float:
    """Bound-state candidate in either printed form.

    ``decaying``: e^{-x^2} x^s M(a; b; x^2).
    ``direct``:   x^s M(b-a; b; -x^2), the pre-identity form.
    """
    if form == "decaying":
        return gaussian_solution_function(params, E).f(x)
    if form != "direct":
        raise DomainError(f"unknown form {form!r}")
    if not gaussian_admissible(params):
        raise ContractError(f"(delta, nu) = ({params.delta}, {params.nu}) not admissible")
    r = discriminant_root(params)
    s = monomial_exponent(params)
    a = 0.5 + E - 0.5 * params.delta * params.nu + 0.25 * r
    b = 1.0 + 0.5 * r
    ax = abs(x)
    sign = 1.0 if x > 0 else params.delta
    return sign * ax**s * kummer_m(a, b, -ax * ax).value


# Printed polynomial bound states, indexed by (delta, n): coefficients of
# the polynomial factor multiplying e^{-x^2}.
_PRINTED_STATES = {
    (-1, 0): (0.0, 1.0),
    (-1, 1): (0.0, 1.0, 0.0, -0.5),
    # The x^4 coefficient of the n=2 odd state must be 1/6 (not 1/2) for
    # the function to satisfy the governing equation; forced by the
    # truncated Kummer series M(-2; 2; z) = 1 - z + z^2/6.
    (-1, 2): (0.0, 1.0, 0.0, -1.0, 0.0, 1.0 / 6.0),
    (1, 0): (1.0,),
    (1, 1): (1.0, 0.0, -1.0),
    (1, 2): (1.0, 0.0, -2.0, 0.0, 0.5),
}


def printed_bound_state(n: int, delta: int) -> ParityFunction:
    """The six explicitly printed bound states at nu = 1/2 (poly x gaussian).

    The jet takes a float or an ndarray of x.  Where x^2 or the
    polynomial overflows (|x| from about 1e61 on), a value is 0 times
    inf, NaN, which the callers refuse.
    """
    try:
        coeffs = _PRINTED_STATES[(delta, n)]
    except KeyError:
        raise DomainError(f"no printed state for (delta, n) = ({delta}, {n})") from None
    poly = np.polynomial.Polynomial(coeffs)
    dpoly = poly.deriv()
    ddpoly = dpoly.deriv()

    def jet(x, k):
        with np.errstate(over="ignore", invalid="ignore"):
            e = exp_square(x, -1.0)
            if k == 0:
                return [e * poly(x)]
            return [e * poly(x), e * (dpoly(x) - 2 * x * poly(x)),
                    e * (ddpoly(x) - 4 * x * dpoly(x) + (4 * x * x - 2) * poly(x))]

    return ParityFunction(jet=jet, parity=delta)


def bound_state_energy(n: int, params: DunklParams, rule: str) -> float:
    """Quantized energies: polynomial truncation of the solution factor."""
    if n < 0 or n != int(n):
        raise DomainError("bound_state_energy: n must be a nonnegative integer")
    r = discriminant_root(params)
    try:        # an int n converts to float here
        if rule == "ene0":
            return n + 0.5 * (1.0 + params.delta * params.nu) + 0.25 * r
        if rule == "ene1":
            return (4.0 * n + 2.0 + r) ** (2.0 / 3.0)
    except OverflowError:
        raise DomainError("bound_state_energy: n is out of range (above 1.8e308)") from None
    raise DomainError(f"bound_state_energy: unknown rule {rule!r}")


@dataclass(frozen=True)
class ParityClassification:
    exponent: float
    classification: str


def parity_exponent(params: DunklParams) -> ParityClassification:
    """Parity of the closed forms, set by the leading monomial exponent."""
    value = monomial_exponent(params)
    if not gaussian_admissible(params):
        label = PARITY_NONE
    else:
        label = PARITY_ODD if params.delta == -1 else PARITY_EVEN
    return ParityClassification(exponent=value, classification=label)


# ---------------------------------------------------------------------------
# Harmonic energy-dependent scenario (constant mass and PDM twin)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioHarmonicEnergy:
    """Constant mass 1/2 with the energy-scaled harmonic potential x^2/E."""

    default_rule = "ene1"

    def mass(self) -> MassProfile:
        return MassProfile(jet=lambda x: (0.5, 0.0, 0.0), parity=1)

    def potential(self) -> EnergyPotential:
        return EnergyPotential(v=lambda E, x: x * x / E,
                               dv_dE=lambda E, x: -x * x / (E * E))

    def coord(self) -> CoordinateChange:
        return exp_map()

    def system(self, params: DunklParams) -> DunklSystem:
        return DunklSystem(params=params, mass=self.mass(), potential=self.potential())

    def solution(self, params: DunklParams, E: float) -> ParityFunction:
        return harmonic_initial_solution_function(params, E)

    @staticmethod
    def mapped_potential(E: float, y):
        """U_E(y) of the mapped standard form (note the 1/E on e^{4y}).

        A term that overflows (e^{4y}/E at a subnormal E) is inf, and U is
        inf or NaN there, which the Wronskian and residual checks refuse.
        """
        return _mapped_u(E, exp_scaled(y, 2), exp_scaled(y, 4))

    @staticmethod
    def form() -> SchrodingerForm:      # the background of every chain
        return SchrodingerForm(u_e=ScenarioHarmonicEnergy.mapped_potential)


@dataclass(frozen=True)
class ScenarioHarmonicEnergyPdm:
    """m = x^2/2 realization of the same mapped potential.

    It has no closed-form psi of its own, and so no ``system``: it is
    checked against the constant-mass route.
    """

    default_rule = "ene1"
    solution = None

    def mass(self) -> MassProfile:
        return MassProfile(jet=lambda x: (0.5 * x * x, x, 1.0), parity=1)

    def potential(self) -> EnergyPotential:
        return EnergyPotential(
            v=lambda E, x: E + 1.0 / E - E / (x * x) - 2.0 / power(x, 4),
            dv_dE=lambda E, x: 1.0 - 1.0 / (E * E) - 1.0 / (x * x),
        )

    def coord(self) -> CoordinateChange:
        return exp_map()


def pdm_equivalence_nu(nu_bar: float, delta_bar: int, delta: int) -> float:
    """Deformation parameter making the PDM route match the constant-mass one.

    Chosen so 3 delta nu - nu^2 equals delta_bar nu_bar - nu_bar^2.
    """
    radicand = 9.0 - 4.0 * delta_bar * nu_bar + _four_nu_squared(nu_bar)
    return 1.5 * delta + 0.5 * math.sqrt(radicand)


def _kummer(a: float, b: float):
    """z -> M(a; b; z) on an ndarray z, one kernel call per read."""
    return lambda z: kummer_m_grid(a, b, z).values


def _laguerre(degree: float, alpha: float):
    """z -> L_degree^alpha(z) on an ndarray z, one kernel call per read."""
    return lambda z: assoc_laguerre_grid(degree, alpha, z).values


# The tag of a Laguerre row (degree, alpha, _SLOPE): d/d(degree) of L_degree^alpha.
_SLOPE = "d/d(degree)"


def _laguerre_values(rows, z):
    """L_degree^alpha(z) per (degree, alpha) row, in one kernel call.

    A row (degree, alpha, ``_SLOPE``) is d/d(degree) L_degree^alpha(z),
    derived from its (degree, alpha) row in the same call; such rows come
    last, in the order of their (degree, alpha) rows.  A kernel row does
    not depend on the rows beside it, so grouping never changes a bit.
    """
    if len(rows[-1]) == 2:      # no slope rows
        return assoc_laguerre_grid(*zip(*rows), z).values
    plain = [row for row in rows if len(row) == 2]
    values, slopes = assoc_laguerre_grid(*zip(*plain), z, degree_derivative=[
        row + (_SLOPE,) in rows for row in plain])
    return np.concatenate([values.values, slopes.values])


def _mapped_degree(E: float, r: float) -> float:
    """-1/2 + E^{3/2}/4 - r/4, the Laguerre degree of the mapped family with index r."""
    if not math.isfinite(E):
        raise DomainError(f"E = {E:g} is not finite")
    try:
        return -0.5 + 0.25 * E**1.5 - 0.25 * r
    except OverflowError:
        raise DomainError(f"E = {E:g} is out of range: E^1.5 overflows above about "
                          f"3e205") from None


def harmonic_initial_solution_function(params: DunklParams, E: float) -> ParityFunction:
    """Initial closed-form solution of the harmonic-energy scenario.

    e^{-x^2/(2 sqrt(E))} x^s L_d^alpha(x^2/sqrt(E)); the exponential
    carries the decaying sign, fixed by the residual check (the printed
    growing sign does not solve the equation).  Its jet takes a float or
    an ndarray of x.
    """
    if E <= 0:
        raise DomainError("harmonic_initial_solution: E must be positive")
    r = discriminant_root(params)
    beta = 1.0 / math.sqrt(E)
    degree, alpha = _mapped_degree(E, r), 0.5 * r
    # L, -L' = L_{d-1}^{a+1} and L'' = L_{d-2}^{a+2}, a factor each, so
    # each is evaluated only where it is read (density reads only psi)
    u, lower, upp = (_laguerre(degree - k, alpha + k) for k in range(3))

    def up(z):
        return -lower(z)

    return _decaying_state(monomial_exponent(params), beta, beta, u, up, upp,
                           params.delta)


def _family_rows(E: float, r: float) -> list:
    """L_d^{r/2} and L_{d-1}^{r/2+1} = -L', the Laguerre rows of the mapped family at index r."""
    degree = _mapped_degree(E, r)
    return [(degree, 0.5 * r), (degree - 1, 0.5 * r + 1)]


def _family(r: float, y, z, lag, low) -> tuple:
    """(e^{-z/2 + (r/2) y}, Phi, Phi') of the mapped family at index r, from its rows at z.

    Phi(y) = e^{-z/2 + (r/2) y} L_d^{r/2}(z), z = e^{2y}/sqrt(E),
    d = -1/2 + E^{3/2}/4 - r/4, solves the mapped equation at spectral
    parameter (1 - r^2)/4; lag and low are L_d^{r/2} and L_{d-1}^{r/2+1}
    at z.  A product that overflows is inf or NaN, which the callers refuse.
    """
    scale = exp(-0.5 * z + 0.5 * r * y)
    with np.errstate(over="ignore", invalid="ignore"):
        return scale, scale * lag, scale * ((0.5 * r - z) * lag - 2 * z * low)


def _mapped_u(E: float, e2y, e4y):
    """U_E(y) = 1/4 - E e^{2y} + e^{4y}/E from e^{2y} and e^{4y} (see ``mapped_potential``)."""
    with np.errstate(over="ignore", invalid="ignore"):
        return 0.25 - E * e2y + e4y / E


@dataclass(frozen=True)
class _Group:
    """The Laguerre rows of a chain and its seed Phi, one kernel call per read.

    The members read the mapped family at the indices rs (the standard
    chain's r = 0 and 2, or the confluent chain's r at eps1 and at its
    probes), Phi at r_seed (None: no seed).  ``rows`` are the distinct
    rows, and ``pick`` indexes them by the rows of rs, then Phi's, then
    the degree derivatives of the chain's rows (figure 4).
    """

    E: float
    kind: str
    rs: tuple
    eps1: float
    r_seed: Optional[float]
    rows: tuple
    pick: tuple

    def at(self, grids: Sequence[Grid]) -> list:
        """(z, rows at z) per ``libm.Grid`` of grids, the rows from one kernel call."""
        with np.errstate(over="ignore"):   # z = inf at a subnormal E: the kernel refuses it
            zs = [(1.0 / math.sqrt(self.E)) * exp_scaled(grid, 2) for grid in grids]
        values = _laguerre_values(self.rows, np.concatenate(zs))[list(self.pick)]
        return list(zip(zs, np.split(values, np.cumsum([z.size for z in zs])[:-1], axis=1)))

    def rows_on(self, grid: Grid) -> tuple:
        """(z, rows at z) on grid, kept with it: one kernel call per Grid."""
        return grid.kept(self, lambda: self.at([grid])[0])

    def forms(self, y, z, v, seed: bool = True, values: bool = True) -> tuple:
        """(members' (u_j, u_j'), (Phi, Phi') or None) at y from the rows v at z.

        The standard u1' keeps the form z (2 L' - L) e^{-z/2}: the family's
        (r/2 - z) L + 2 z L' rounds differently, and where Phi is u2 the
        transformed state is rounding noise that any change would move.
        The confluent u2 is ``parameter_derivative`` over the probes; its
        value is None with values unset, and Phi None with seed unset.
        """
        fam = [_family(r, y, z, v[2 * i], v[2 * i + 1]) for i, r in enumerate(self.rs)]
        if not fam:
            members = []
        elif self.kind == KIND_STANDARD:
            (scale, u1, _), *rest = fam
            members = [(u1, scale * z * (2 * (-v[1]) - v[0]))] + [(u, g) for _, u, g in rest]
        else:
            (_, u1, g1), *probed = fam
            by_eps = dict(zip(parameter_probes(self.eps1), probed))
            members = [(u1, g1), tuple(
                parameter_derivative(lambda e, _, k=k: by_eps[e][k], self.eps1, y)
                if values or k == 2 else None for k in (1, 2))]
        if self.r_seed is None or not seed:
            return members, None
        n = len(self.rs)
        known = dict(zip(self.rs, fam)).get(self.r_seed)
        _, phi, phi1 = known or _family(self.r_seed, y, z, v[2 * n], v[2 * n + 1])
        return members, (phi, phi1)

    def jets(self, y) -> tuple:
        """(members, Phi) at y, a float or an ndarray (floats for floats), from one
        kernel call per ``libm.Grid``: the forms are kept with it."""
        grid = Grid(y if isinstance(y, np.ndarray) else [y])
        members, phi = grid.kept((self, "jets"), lambda: self.forms(grid, *self.rows_on(grid)))
        if isinstance(y, np.ndarray):
            return members, phi
        return [tuple(float(p[0]) for p in m) for m in members], phi and (
            float(phi[0][0]), float(phi[1][0]))

    def seed(self, params: DunklParams) -> OdeSolution:
        """Phi, the seed of params in this group: the Dunkl constant delta nu - nu^2 its eps."""
        return OdeSolution(jet=lambda y: self.jets(y)[1],
                           eps=params.delta * params.nu - params.nu**2)


def _group(E: float, kind: str, rs: Sequence[float], eps1: float,
           seed: Optional[DunklParams], slopes: bool) -> _Group:
    """The ``_Group`` of a chain's rows; its family degrees are refused before seed's nu."""
    rows = [row for r in rs for row in _family_rows(E, r)]
    r_seed = None if seed is None else discriminant_root(seed)
    rows += [] if seed is None else _family_rows(E, r_seed)
    if slopes:
        rows += [row + (_SLOPE,) for row in rows[:2 * len(rs)]]
    unique = tuple(dict.fromkeys(rows))
    return _Group(E, kind, tuple(rs), eps1, r_seed, unique,
                  tuple(unique.index(row) for row in rows))


def mapped_initial_solution(params: DunklParams, E: float) -> OdeSolution:
    """The initial solution in mapped coordinates, with spectral parameter.

    The mapped family at r = sqrt(1 - 4 delta nu + 4 nu^2); its parameter
    is the Dunkl constant delta nu - nu^2.  ``seeded_chain`` gives the
    same Phi with a chain.
    """
    return _group(E, KIND_STANDARD, (), CONFLUENT_EPS1, params, False).seed(params)


def mapped_equation_residual(params: DunklParams, E: float, grid: np.ndarray) -> float:
    """The worst ``chain_residuals`` of Phi, as the order-1 standard chain of itself, at
    the default step: Phi read on grid and its stencil nodes in one kernel call, U on grid."""
    group = _group(E, KIND_STANDARD, (), CONFLUENT_EPS1, params, False)
    phi = group.seed(params)
    chain = DarbouxChain(kind=KIND_STANDARD, jet=lambda y: [phi.jet(y)], order=1,
                         eps=(phi.eps,), background=ScenarioHarmonicEnergy.form(), energy=E)
    grids = [Grid(g) for g in residual_grids(grid, None)]
    (z, v), (z_nodes, v_nodes) = group.at(grids)
    at = ChainRead(grids[0], ScenarioHarmonicEnergy.mapped_potential(E, grids[0]),
                   [group.forms(grids[0], z, v)[1]])
    slope = group.forms(grids[1], z_nodes, v_nodes)[1][1]
    return float(np.max(residuals(chain, at, [slope], None)))


STANDARD_CHAIN_EPS = (0.25, -0.75)


def _validated(chain: DarbouxChain, validate: bool) -> DarbouxChain:
    """The standard chain, refused unless its residuals are at most 1e-7 when validate is set."""
    if validate:
        require_residuals(chain_residuals(chain, np.linspace(-2.0, 1.0, 40)), 1e-7)
    return chain


def standard_chain_u12(E: float, validate: bool = True) -> DarbouxChain:
    """The order-2 standard chain at transformation energies (1/4, -3/4)."""
    return _validated(seeded_chain(None, E, KIND_STANDARD, 2)[0], validate)


def standard_chain_order1(E: float, validate: bool = True) -> DarbouxChain:
    """The order-1 standard chain using only the eps = 1/4 member."""
    return _validated(seeded_chain(None, E, KIND_STANDARD, 1)[0], validate)


CONFLUENT_EPS1 = -2.0


def confluent_chain(E: float, eps1: float = CONFLUENT_EPS1) -> DarbouxChain:
    """Order-2 confluent chain: u1 is the mapped family at eps1, u2 its eps-derivative.

    Validated as ``seeded_chain`` says, on its ten Laguerre rows.
    """
    return seeded_chain(None, E, KIND_CONFLUENT, 2, eps1)[0]


# The confluent chain's validation grid: its residuals are read here and
# at the grid's stencil nodes (``residual_grids``), whose factors free of E
# every confluent build shares.
CONFLUENT_CHECK_GRID = np.linspace(-2.0, 1.0, 25)
_CHECK_GRIDS = [Grid(y) for y in residual_grids(CONFLUENT_CHECK_GRID)]

# (kind, order) of each chain built here -> the public builder its E refusal names
_CHAINS = {(KIND_STANDARD, 1): "standard_chain_order1",
           (KIND_STANDARD, 2): "standard_chain_u12",
           (KIND_CONFLUENT, 2): "confluent_chain"}


def seeded_chain(params: Optional[DunklParams], E: float, kind: str = KIND_STANDARD,
                 order: int = 2, eps1: float = CONFLUENT_EPS1, grids: Sequence = (),
                 slopes: bool = False) -> tuple:
    """(chain, Phi): the one builder of the chains, with its seed.

    The chain is the unvalidated standard chain of ``order`` 1 or 2 (the
    mapped family at r = 0 and 2, eps = 1/4 and -3/4), or the confluent
    chain at eps1 (order 2): u1 is the family at eps1, the family at eps
    having r = sqrt(1 - 4 eps), and u2 is ``numerics.parameter_derivative``
    of its value and y-derivative, on the members at the stencil's four
    probes.  Any other kind or order is refused.  Phi is the seed
    ``mapped_initial_solution(params, E)``, or None when params is None;
    its rows join the chain's (``_Group``), bit for bit as each would read
    alone.  The chain's one jet and Phi read the group once per
    ``libm.Grid``, which keeps the rows.  The build reads the group in one
    kernel call, on the confluent chain's validation grids and on each
    Grid of ``grids`` (the points its caller will read the chain on), and
    keeps each caller Grid's rows with it.  The confluent chain is refused
    if u2 vanishes on ``CONFLUENT_CHECK_GRID``, or unless its residuals
    are at most 1e-7 (u1) and 1e-5 (u2).  The build's refusals (kind and
    order, eps1, E <= 0, the family degree) come before Phi's nu; a
    kernel refusal, on any grid, before the validation's.  With slopes
    (the order-2 standard chain), the result is (chain, Phi, dV-hat/dE):
    x -> ``_vhat_dE`` at an ndarray x > 0, from the degree derivatives of
    the chain's rows read at ln x, so on the Grid ln x of a Grid x the
    chain was read on it costs no kernel call.
    """
    name = _CHAINS.get((kind, order))
    if name is None:
        if kind == KIND_STANDARD:
            raise DomainError("standard chains are constructible at orders 1 and 2")
        if kind == KIND_CONFLUENT:
            raise DomainError("confluent chains are constructible at order 2")
        raise DomainError(f"unknown chain kind {kind!r}")
    if kind == KIND_STANDARD:
        rs, eps = (0.0, 2.0)[:order], STANDARD_CHAIN_EPS[:order]
    else:
        probes = parameter_probes(eps1)
        if not probes[-1] <= 0.25:      # the highest probe: the offsets ascend
            top = 0.25 - PARAM_STENCIL_OFFSETS[-1] * DEFAULT_PARAM_STEP_SCALE
            raise DomainError(f"confluent chain: eps = {eps1:g} is out of range: it must be "
                              f"finite and at most {top:g}, as u2 samples the family two "
                              f"stencil steps above it and sqrt(1 - 4 eps) is real up to 1/4")
        rs, eps = [math.sqrt(1.0 - 4.0 * e) for e in [eps1] + probes], (eps1,)
    if E <= 0:
        raise DomainError(f"{name}: E must be positive")
    group = _group(E, kind, rs, eps1, params, slopes)
    checks = _CHECK_GRIDS if kind == KIND_CONFLUENT else []
    grids = [Grid(grid) for grid in grids]
    reads = group.at([*checks, *grids]) if checks or grids else []
    for grid, read in zip(grids, reads[len(checks):]):
        grid.kept(group, lambda read=read: read)
    chain = DarbouxChain(kind=kind, jet=lambda y: group.jets(y)[0], order=order, eps=eps,
                         background=ScenarioHarmonicEnergy.form(), energy=E)
    phi = None if params is None else group.seed(params)
    if kind == KIND_CONFLUENT:
        (grid, nodes), ((z, v), (z_nodes, v_nodes)) = checks, reads[:2]
        at = ChainRead(grid, ScenarioHarmonicEnergy.mapped_potential(E, grid),
                       group.forms(grid, z, v, seed=False)[0])
        (u1, _), (u2, _) = at.members
        if np.max(abs(u2)) < 1e-12 * max(np.max(abs(u1)), 1.0):
            raise ConstructionError("family does not depend on eps: degenerate chain")
        slope = [g for _, g in group.forms(nodes, z_nodes, v_nodes, False, False)[0]]
        require_residuals(residuals(chain, at, slope), (1e-7, 1e-5))
    if not slopes:
        return chain, phi

    def vhat_dE(x):
        z, v = group.rows_on(Grid(log(x)))
        return _vhat_dE(E, x, z, v[:4], v[-4:])

    return chain, phi, vhat_dE


def closed_form_hatpsi_E4(x: float) -> float:
    """Transformed bound state at E = 4 (nu = 5/2, delta = -1), closed form.

    The Bessel argument x^2/4 and the odd prefactor x follow from the
    half-integer Laguerre reduction L_{1/2}(z) =
    e^{z/2} [(1 - z) I0(z/2) + z I1(z/2)] applied to the chain
    functions; the odd factor is required by delta = -1.
    """
    quarter = 0.25 * x * x
    i0 = bessel_i(0, quarter).value
    i1 = bessel_i(1, quarter).value
    den = (24.0 - 6.0 * x * x + x**4) * i0 - x * x * (x * x - 4.0) * i1
    if abs(den) < 1e-12:
        raise SingularityError(f"closed_form_hatpsi_E4: denominator vanishes at x={x}")
    return x * math.exp(-quarter) * i0 / den


def closed_form_hatv4(x: float) -> float:
    """Transformed potential at E = 4, as a rational-Bessel expression.

    Same Bessel argument x^2/4 as the transformed bound state; the
    polynomial coefficients come out of the order-2 Wronskian after the
    half-integer Laguerre reduction.
    """
    if x == 0:
        raise DomainError("closed_form_hatv4: x = 0 is outside the domain")
    quarter = 0.25 * x * x
    i0 = bessel_i(0, quarter).value
    i1 = bessel_i(1, quarter).value
    x2 = x * x
    den_core = (24.0 - 6.0 * x2 + x2 * x2) * i0 - x2 * (x2 - 4.0) * i1
    den = 4.0 * den_core * den_core
    if abs(den) < 1e-12:
        raise SingularityError(f"closed_form_hatv4: denominator vanishes at x={x}")
    poly_i00 = (9216.0 - 7488.0 * x2 + 1920.0 * x2**2 - 180.0 * x2**3
                + 4.0 * x2**4 + x2**5)
    cross = (2.0 * x2 * (x - 2.0) * (x + 2.0) * (x2 + 16.0)
             * (24.0 - 6.0 * x2 + x2 * x2))
    poly_i11 = x2 * (x2 - 4.0) ** 2 * (72.0 + 16.0 * x2 + x2 * x2)
    return (poly_i00 * i0 * i0 - cross * i0 * i1 + poly_i11 * i1 * i1) / den


# The pipeline helpers below take x as a float or an ndarray; an ndarray
# is evaluated as one grid and equals the per-float calls bit for bit.

def pipeline_hatpsi(params: DunklParams, E: float, chain: DarbouxChain, x,
                    phi: Optional[OdeSolution] = None):
    """Transformed bound state in the original variable (x > 0 branch).

    phi is the seed, ``mapped_initial_solution(params, E)`` unless given
    (``seeded_chain`` gives it with the chain).
    """
    if np.any(x <= 0):
        raise DomainError("pipeline_hatpsi: x must be positive")
    if phi is None:
        phi = mapped_initial_solution(params, E)
    return power(x, 0.5 - params.nu) * transformed_solution(chain, phi, log(x))


def pipeline_vhat(E: float, chain: DarbouxChain, x):
    """V-hat(x) = E - x^-2 (1/4 - U-hat(log x)): the chain's U-hat mapped back to x = e^y."""
    if np.any(x <= 0):
        raise DomainError("pipeline_vhat: x must be positive")
    return E - power(x, -2.0) * (0.25 - transformed_potential(chain, log(x)))


def _member_dE(E: float, r: float, z, lag, lag_dd):
    """(v, v', dv/dE, dv'/dE) of the mapped-family member with index r, at fixed y.

    The member is taken without its factor e^{-z/2 + (r/2) y}: v = L(z),
    v' = (r/2 - z) L + 2 z L', with L = L_d^{r/2}, L' = -L_{d-1}^{r/2+1},
    z = e^{2y}/sqrt(E) and d = -1/2 + E^{3/2}/4 - r/4, so dz/dE = -z/(2E)
    and dd/dE = (3/8) sqrt(E).  lag and lag_dd hold the rows L_d^{r/2},
    L_{d-1}^{r/2+1} and their degree derivatives.  L'' is eliminated by
    the Laguerre equation z L'' = (z - r/2 - 1) L' - d L.
    """
    alpha = 0.5 * r
    d = _mapped_degree(E, r)
    z_e, d_e = -z / (2.0 * E), 0.375 * math.sqrt(E)
    lag1, lag1_dd = -lag[1], -lag_dd[1]             # L' and its degree derivative
    return (lag[0], (alpha - z) * lag[0] + 2.0 * z * lag1,
            z_e * lag1 + d_e * lag_dd[0],
            z_e * ((z - alpha) * lag1 - (2.0 * d + 1.0) * lag[0])
            + d_e * ((alpha - z) * lag_dd[0] + 2.0 * z * lag1_dd))


def _vhat_dE(E: float, x: np.ndarray, z: np.ndarray, lag, lag_dd) -> np.ndarray:
    """dV-hat/dE of the order-2 standard chain at the points x > 0, z the members' z there.

    V-hat = E - x^-2 (1/4 - U-hat(log x)) gives dV-hat/dE = 1 + x^-2
    dU-hat/dE, and dU/dE = -e^{2y} - e^{4y}/E^2 cancels the 1:
    dV-hat/dE = -x^2/E^2 - 2 x^-2 dQ/dE, Q = (W'' W - W'^2)/W^2.  dQ/dE
    follows from the product rule on W = v1 v2' - v1' v2, W' = de v1 v2
    and W'' = de (v1' v2 + v1 v2'), de = 1 the chain's eps gap, with
    the members' E-derivatives from ``_member_dE``.  Q does not change
    when a member is multiplied by any factor, E-dependent or not, so the
    members' exponential factors are left out.  lag and lag_dd hold the
    chain's four Laguerre rows (r = 0, then r = 2, as the chain's
    ``_Group`` orders them) and their degree derivatives at z.
    """
    v1, g1, dv1, dg1 = _member_dE(E, 0.0, z, lag[:2], lag_dd[:2])
    v2, g2, dv2, dg2 = _member_dE(E, 2.0, z, lag[2:], lag_dd[2:])
    de = STANDARD_CHAIN_EPS[0] - STANDARD_CHAIN_EPS[1]
    with np.errstate(all="ignore"):     # a vanishing W stays inf/NaN for the caller
        w = v1 * g2 - g1 * v2
        wp, wpp = de * v1 * v2, de * (g1 * v2 + v1 * g2)
        rel = (dv1 * g2 + v1 * dg2 - dg1 * v2 - g1 * dv2) / w
        dwp = de * (dv1 * v2 + v1 * dv2)
        dwpp = de * (dg1 * v2 + g1 * dv2 + dv1 * g2 + v1 * dg2)
        dq = (dwpp - wpp * rel - 2.0 * (wp / w) * (dwp - wp * rel)) / w
        return -x * x / (E * E) - 2.0 * dq / (x * x)


# Scenario registry: each has mass(), potential(), coord(), a
# ``default_rule`` of its energies and ``solution(params, E)``, or None;
# those with a solution also have system(params).
_SCENARIOS = {
    "gaussian-mass": ScenarioGaussianMass,
    "harmonic-energy": ScenarioHarmonicEnergy,
    "harmonic-energy-pdm": ScenarioHarmonicEnergyPdm,
}

SCENARIO_NAMES = tuple(_SCENARIOS)


def get_scenario(name: str):
    """A new instance of the named scenario; DomainError for an unknown name."""
    try:
        return _SCENARIOS[name]()
    except KeyError:
        raise DomainError(f"unknown scenario {name!r}; known: {sorted(_SCENARIOS)}") from None
