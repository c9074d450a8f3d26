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
written once, with analytic derivatives from the contiguous-derivative
identities of the Kummer and Laguerre functions: ``_decaying_state``
for the x-space bound states, ``_mapped_family`` for the mapped-coordinate
solutions.  Their Kummer and Laguerre factors are row groups
(``_row_group``) that evaluate a float as a one-point grid and are
stored in ``libm``'s memo, so within a memo scope each group is
evaluated once per grid.  The Darboux chains are built here too, on
members of ``_mapped_family``, by one builder, ``seeded_chain``.  A
group holds the rows that every caller reads together: a chain's
members, and with them the seed Phi that the chain transforms, itself a
member of the same family.  Each chain is built once, on the group it
is read from, and the group is read ahead, in one kernel call, on every
grid the chain will be read on: the confluent chain's validation grid,
its stencil nodes and the grids the caller names.  So a ``darboux``
(12 rows for a confluent chain) and each energy of figures 3-7 make one
kernel call, and ``verify``'s mapped-equation check reads Phi ahead on
its grid and stencil nodes, one call.  Figure 4's group also holds the
degree derivatives of the chain's rows, from the same call, and its
dV-hat/dE (``_vhat_dE``) is formed from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .darboux import (DarbouxChain, KIND_CONFLUENT, KIND_STANDARD, OdeSolution,
                      residual_grids, transformed_potential, transformed_solution,
                      validate_chain)
from .errors import ConstructionError, ContractError, DomainError, SingularityError
from .libm import exp, log, memo_scope, memoise_parts, memoised, power
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


def _decaying_state(s: float, scale: float, decay: float, u, up, upp,
                    delta: int) -> ParityFunction:
    """e^{-decay x^2/2} x^s F(scale x^2) on x > 0, extended by parity delta.

    u, up and upp are F, F' and F'' in their argument.  Both scenarios'
    bound states take this form: gaussian-mass with scale 1 and decay 2,
    harmonic-energy with scale = decay = 1/sqrt(E).  f, f1 and f2 take a
    float or an ndarray of x; on an ndarray the half-line form is
    evaluated once, on the reflected grid.
    """

    def g(x):
        return power(x, s) * u(scale * x * x)

    def g1(x):
        z = scale * x * x
        return s * power(x, s - 1) * u(z) + 2 * scale * power(x, s + 1) * up(z)

    def g2(x):
        z = scale * x * x
        return (s * (s - 1) * power(x, s - 2) * u(z)
                + (4 * s + 2) * scale * power(x, s) * up(z)
                + 4 * scale * scale * power(x, s + 2) * upp(z))

    def core(x):
        return exp(-0.5 * decay * x * x) * g(x)

    def core1(x):
        return exp(-0.5 * decay * x * x) * (g1(x) - decay * x * g(x))

    def core2(x):
        return exp(-0.5 * decay * x * x) * (
            g2(x) - 2 * decay * x * g1(x) + (decay * decay * x * x - decay) * g(x))

    def extend(fn, sign):
        def ext(x):
            if isinstance(x, np.ndarray):
                pos = x > 0
                return np.where(pos, 1.0, sign) * fn(np.where(pos, x, -x))
            return fn(x) if x > 0 else sign * fn(-x)
        return ext

    return ParityFunction(f=extend(core, delta), f1=extend(core1, -delta),
                          f2=extend(core2, delta), parity=delta)


# ---------------------------------------------------------------------------
# Gaussian-mass scenario
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioGaussianMass:
    """Gaussian mass profile m = e^{-x^2} with its energy-dependent companion potential."""

    default_rule = "ene0"

    def mass(self) -> MassProfile:
        def m(x):
            return exp(-x * x)

        return MassProfile(
            m=m,
            m1=lambda x: -2 * x * m(x),
            m2=lambda x: (4 * x * x - 2) * m(x),
            parity=1,
        )

    def potential(self) -> EnergyPotential:
        return EnergyPotential(
            v=lambda E, x: E - 2 * E * exp(x * x) - 0.5 * exp(x * x),
            dv_dE=lambda E, x: 1.0 - 2 * exp(x * x),
        )

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
    contiguous rule dM/dz = (a/b) M(a+1; b+1; z).  f, f1 and f2 accept
    a float or an ndarray of x.  A derivative whose coefficient is
    exactly 0 (a = 0, or a = -1 for the second) never reads its Kummer
    factor; see ``_times_factor``.
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
    """z -> coef M(a; b; z), with M not read when coef is exactly 0.

    coef is 0 only at a = 1 or 2 here; with b > 0 and z = x^2 >= 0,
    M > 0, so the product is the zero of coef's sign.  That zero is
    returned, a float for a float z.
    """
    if coef != 0.0:
        factor = _kummer(a, b)
        return lambda z: coef * factor(z)
    return lambda z: coef * (np.zeros_like(z) if isinstance(z, np.ndarray) else 0.0)


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

    f, f1 and f2 accept a float or an ndarray of x.  Where x^2 or the
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

    def f(x):
        with np.errstate(over="ignore", invalid="ignore"):
            return exp(-x * x) * poly(x)

    def f1(x):
        with np.errstate(over="ignore", invalid="ignore"):
            return exp(-x * x) * (dpoly(x) - 2 * x * poly(x))

    def f2(x):
        with np.errstate(over="ignore", invalid="ignore"):
            return exp(-x * x) * (ddpoly(x) - 4 * x * dpoly(x) + (4 * x * x - 2) * poly(x))

    return ParityFunction(f=f, f1=f1, f2=f2, parity=delta)


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
        return MassProfile(m=lambda x: 0.5, m1=lambda x: 0.0,
                           m2=lambda x: 0.0, parity=1)

    def potential(self) -> EnergyPotential:
        return EnergyPotential(
            v=lambda E, x: x * x / E,
            dv_dE=lambda E, x: -x * x / (E * E),
        )

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
        with np.errstate(over="ignore", invalid="ignore"):
            return 0.25 - E * exp(2 * y) + exp(4 * y) / E

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
        return MassProfile(m=lambda x: 0.5 * x * x, m1=lambda x: x,
                           m2=lambda x: 1.0, parity=1)

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


def _row_group(kernel, rows, ahead=()) -> list:
    """One closure z -> row i of kernel(rows, z) per row, the group read through ``memoised``.

    kernel(unique, z) gives the group's distinct rows on the ndarray z, a
    row listed twice being one row of the call; a float z is the
    one-point grid [z] and gets a float back.  The key is (kernel,
    unique), so within a memo scope every closure over the same rows
    shares one kernel call per grid.  Rows belong together only when
    every caller reads all of them on each grid: a chain's members, and
    with them the seed Phi that the chain transforms (``seeded_chain``).
    A kernel row does not depend on the rows beside it, so grouping
    never changes a bit.  A package error of that call is raised by
    whichever row is read, and nothing is stored.  The group is read on
    each ndarray z of ``ahead`` now, in one kernel call, and stored in
    the open memo (``libm.memoise_parts``), or not at all outside one.
    """
    unique = tuple(dict.fromkeys(rows))
    memoise_parts((kernel, unique), ahead, kernel, unique)

    def read(i, z):
        grid = z if isinstance(z, np.ndarray) else np.array([z], dtype=float)
        values = memoised((kernel, unique), grid, kernel, unique, grid)
        return values[i] if grid is z else float(values[i][0])

    return [lambda z, i=unique.index(row): read(i, z) for row in rows]


def _kummer_values(rows, z):
    """M(a; b; z) as a one-row group, rows = ((a, b),)."""
    (a, b), = rows
    return kummer_m_grid(a, b, z).values[None]


# The tag of a Laguerre group row (degree, alpha, _SLOPE): d/d(degree) of L_degree^alpha.
_SLOPE = "d/d(degree)"


def _laguerre_values(rows, z):
    """L_degree^alpha(z) per (degree, alpha) row, in one kernel call.

    A row (degree, alpha, ``_SLOPE``) is d/d(degree) L_degree^alpha(z),
    derived from its (degree, alpha) row in the same call; such rows come
    last, in the order of their (degree, alpha) rows.
    """
    if len(rows[-1]) == 2:      # no slope rows
        return assoc_laguerre_grid(*zip(*rows), z).values
    plain = [row for row in rows if len(row) == 2]
    values, slopes = assoc_laguerre_grid(*zip(*plain), z, degree_derivative=[
        row + (_SLOPE,) in rows for row in plain])
    return np.concatenate([values.values, slopes.values])


def _kummer(a: float, b: float):
    """z -> M(a; b; z) for a float or an ndarray z, one ``_row_group`` row."""
    return _row_group(_kummer_values, ((a, b),))[0]


def _laguerre_rows(*rows, ahead=()):
    """One closure z -> L_degree^alpha(z) per (degree, alpha) row, one ``_row_group``."""
    return _row_group(_laguerre_values, rows, ahead)


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
    growing sign does not solve the equation).  f, f1 and f2 accept a
    float or an ndarray of x.
    """
    if E <= 0:
        raise DomainError("harmonic_initial_solution: E must be positive")
    r = discriminant_root(params)
    beta = 1.0 / math.sqrt(E)
    degree, alpha = _mapped_degree(E, r), 0.5 * r
    # L, -L' = L_{d-1}^{a+1} and L'' = L_{d-2}^{a+2}, a factor each, so
    # each is evaluated only where it is read (density reads only psi)
    u, lower, upp = (_laguerre_rows((degree - k, alpha + k))[0] for k in range(3))

    def up(z):
        return -lower(z)

    return _decaying_state(monomial_exponent(params), beta, beta, u, up, upp,
                           params.delta)


def _mapped_z(E: float, y):
    """z = e^{2y}/sqrt(E), the Laguerre argument of the mapped family at y."""
    return (1.0 / math.sqrt(E)) * exp(2 * y)


def _family_lags(E: float, rs: Sequence[float], seed: Optional[DunklParams] = None,
                 grids: Sequence = (), slopes: bool = False) -> tuple:
    """(closures, Phi): L_d^{r/2} and L_{d-1}^{r/2+1} = -L' per index r of rs, one group.

    Without a seed, Phi is None.  With one, the ``_laguerre_rows`` group
    also holds Phi's two rows, the mapped family at r =
    discriminant_root(seed), after those of rs (which are formed, and
    refused, first), and Phi is that member as an ``OdeSolution`` whose
    spectral parameter is the Dunkl constant delta nu - nu^2.  With
    slopes, the group's last rows, and closures, are the degree
    derivatives of the rows of rs, in their order, from the same kernel
    call.  The group is read ahead at z = ``_mapped_z(E, y)`` of each
    ndarray y of grids, in one kernel call, into the open memo.
    """
    def pair(r):
        degree = _mapped_degree(E, r)
        return [(degree, 0.5 * r), (degree - 1, 0.5 * r + 1)]

    rows = [row for r in rs for row in pair(r)]
    if seed is not None:
        r = discriminant_root(seed)
        rows += pair(r)
    if slopes:
        rows += [row + (_SLOPE,) for row in rows[:2 * len(rs)]]
    with np.errstate(over="ignore"):   # z = inf at a subnormal E: the kernel refuses it
        ahead = [_mapped_z(E, y) for y in grids]
    lags = _laguerre_rows(*rows, ahead=ahead)
    if seed is None:
        return lags, None
    phi, phi1 = _family_member(E, r, *lags[2 * len(rs):2 * len(rs) + 2])
    return lags, OdeSolution(f=phi, f1=phi1, eps=seed.delta * seed.nu - seed.nu**2)


def _family_member(E: float, r: float, u, lower):
    """(Phi, Phi') of the mapped family at index r, on its two closures of ``_family_lags``.

    Phi(y) = e^{-z/2 + (r/2) y} L_d^{r/2}(z), z = e^{2y}/sqrt(E),
    d = -1/2 + E^{3/2}/4 - r/4, solves the mapped equation at spectral
    parameter (1 - r^2)/4.  Phi and Phi' accept a float or an ndarray of y.
    A product that overflows is inf or NaN, which the callers refuse.
    """
    def phi(y):
        z = _mapped_z(E, y)
        scale, lag = exp(-0.5 * z + 0.5 * r * y), u(z)
        with np.errstate(over="ignore", invalid="ignore"):
            return scale * lag

    def phi1(y):
        z = _mapped_z(E, y)
        scale, lag, low = exp(-0.5 * z + 0.5 * r * y), u(z), lower(z)
        with np.errstate(over="ignore", invalid="ignore"):
            return scale * ((0.5 * r - z) * lag - 2 * z * low)

    return phi, phi1


def _mapped_family(E: float, rs: Sequence[float], lags: list) -> list:
    """[(Phi, Phi'), ...] at indices rs, on ``lags``, two ``_family_lags`` closures per index."""
    return [_family_member(E, r, *lags[2 * i:2 * i + 2]) for i, r in enumerate(rs)]


def mapped_initial_solution(params: DunklParams, E: float, grids: Sequence = ()) -> OdeSolution:
    """The initial solution in mapped coordinates, with spectral parameter.

    The mapped family at r = sqrt(1 - 4 delta nu + 4 nu^2); its parameter
    is the Dunkl constant delta nu - nu^2.  ``seeded_chain`` gives the
    same Phi in a chain's group.  Its rows are read ahead on grids, the
    ndarrays of y a caller in an open memo scope will read, in one kernel
    call (``_family_lags``).
    """
    return _family_lags(E, [], params, grids)[1]


STANDARD_CHAIN_EPS = (0.25, -0.75)


def _standard_u1p(E: float, lag, lower):
    """u1' = z (2 L' - L) e^{-z/2} of the standard chain, on the closures L and -L' at r = 0.

    u1 is the mapped family at r = 0, but u1' keeps this form: the
    family's (r/2 - z) L + 2 z L' rounds differently, and where Phi is u2
    (delta nu - nu^2 = -3/4) the transformed state is pure rounding noise
    that any change would move.
    """
    def u1p(y):
        z = _mapped_z(E, y)
        return exp(-0.5 * z) * z * (2 * (-lower(z)) - lag(z))

    return u1p


def _validated(chain: DarbouxChain, validate: bool) -> DarbouxChain:
    """The standard chain, refused unless its residuals are at most 1e-7 when validate is set."""
    if validate:
        validate_chain(chain, np.linspace(-2.0, 1.0, 40), 1e-7)
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
# at the grid's stencil nodes (``residual_grids``).
CONFLUENT_CHECK_GRID = np.linspace(-2.0, 1.0, 25)

# (kind, order) of each chain built here -> the public builder its E refusal names
_CHAINS = {(KIND_STANDARD, 1): "standard_chain_order1",
           (KIND_STANDARD, 2): "standard_chain_u12",
           (KIND_CONFLUENT, 2): "confluent_chain"}


def seeded_chain(params: Optional[DunklParams], E: float, kind: str = KIND_STANDARD,
                 order: int = 2, eps1: float = CONFLUENT_EPS1, grids: Sequence = (),
                 slopes: bool = False) -> tuple:
    """(chain, Phi): the one builder of the chains, each built once, with its seed.

    The chain is the unvalidated standard chain of ``order`` 1 or 2 (the
    mapped family at r = 0 and 2, eps = 1/4 and -3/4), or the confluent
    chain at eps1 (order 2): u1 is the family at eps1, the family at eps
    having r = sqrt(1 - 4 eps), and u2 is ``numerics.parameter_derivative``
    of its value and y-derivative, on the members at the stencil's four
    probes.  Any other kind or order is refused.  Phi is the seed
    ``mapped_initial_solution(params, E)``, or None when params is None,
    and its two rows join the chain's group (``_family_lags``), so the
    chain and Phi read one kernel call per grid, bit for bit as each
    would read alone.  That group is read ahead in one kernel call, on
    the confluent chain's validation grids
    (``residual_grids(CONFLUENT_CHECK_GRID)``) and on each ndarray of
    ``grids``, the y its caller will read the chain on: a caller in an
    open memo scope (``cli.run`` opens one per command) then reads the
    group from the memo, as the validation does.  The confluent chain is
    refused if u2 vanishes on the 25-point grid, or unless the residuals
    there are at most 1e-7 (u1) and 1e-5 (u2).  The build-time refusals
    (kind and order, eps1, E <= 0, the family degree) come before Phi's
    nu; a kernel refusal is the first the read-ahead meets, on any of its
    grids, and comes before the validation's.

    With slopes (the order-2 standard chain only), the group also holds
    the degree derivatives of the chain's four rows, and the result is
    (chain, Phi, dV-hat/dE): x -> ``_vhat_dE`` at the points x > 0, read
    at y = ln x from the group, so a caller that reads the chain on ln x
    in an open memo scope pays no kernel call for it.
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
    checks = residual_grids(CONFLUENT_CHECK_GRID) if kind == KIND_CONFLUENT else []
    with memo_scope():      # the scale check and the validation read the rows read ahead
        lags, phi = _family_lags(E, rs, params, [*checks, *grids], slopes)
        (u1, u1p), *members = _mapped_family(E, rs, lags)
        if kind == KIND_STANDARD:
            funcs = ((u1, _standard_u1p(E, *lags[:2])), *members)
        else:
            probed = dict(zip(probes, members))

            def u2(y):
                return parameter_derivative(lambda e, t: probed[e][0](t), eps1, y)

            def u2p(y):
                return parameter_derivative(lambda e, t: probed[e][1](t), eps1, y)

            funcs = ((u1, u1p), (u2, u2p))
        chain = DarbouxChain(kind=kind, funcs=funcs, eps=eps,
                             background=ScenarioHarmonicEnergy.form(), energy=E)
        if kind == KIND_CONFLUENT:
            grid = CONFLUENT_CHECK_GRID
            scale1 = np.max(abs(u1(grid)))
            if np.max(abs(u2(grid))) < 1e-12 * max(scale1, 1.0):
                raise ConstructionError("family does not depend on eps: degenerate chain")
            validate_chain(chain, grid, (1e-7, 1e-5))
    if not slopes:
        return chain, phi

    def vhat_dE(x):
        z = _mapped_z(E, log(x))
        return _vhat_dE(E, x, z, [f(z) for f in lags[:4]], [f(z) for f in lags[-4:]])

    return chain, phi, vhat_dE


# ---------------------------------------------------------------------------
# Transformed closed forms and pipeline helpers
# ---------------------------------------------------------------------------

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
    chain's four Laguerre rows (r = 0, then r = 2, as ``_family_lags``
    gives them) and their degree derivatives at z.
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


def standard_vhat_dE(E: float, x):
    """dV-hat/dE of the order-2 standard chain (``_vhat_dE``), in closed form.

    The chain's four Laguerre rows and their degree derivatives come from
    one kernel call at z = x^2/sqrt(E).  x is a float or an ndarray of
    positive points.  ``seeded_chain(..., slopes=True)`` gives the same
    quantity from the chain's own read.
    """
    if E <= 0:
        raise DomainError("standard_vhat_dE: E must be positive")
    if np.any(x <= 0):
        raise DomainError("standard_vhat_dE: x must be positive")
    xs = x if isinstance(x, np.ndarray) else np.array([x], dtype=float)
    z = (1.0 / math.sqrt(E)) * (xs * xs)
    degrees = [_mapped_degree(E, r) - k for r in (0.0, 2.0) for k in (0.0, 1.0)]
    lag, lag_dd = assoc_laguerre_grid(degrees, [0.0, 1.0, 1.0, 2.0], z,
                                      degree_derivative=True)
    out = _vhat_dE(E, xs, z, lag.values, lag_dd.values)
    return out if isinstance(x, np.ndarray) else float(out[0])


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
