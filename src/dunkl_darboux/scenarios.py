"""Executable reconstructions of the worked solvable systems.

Three named scenarios are exposed:

* ``gaussian-mass``      — Gaussian mass profile m = p e^{-q x^2} with an
  energy-dependent potential, mapped to standard form by x = sqrt(y);
  bound states in terms of the Kummer function.
* ``harmonic-energy``    — constant mass 1/2 with V = x^2/E, mapped by
  x = exp(y); seeds the standard and confluent Darboux chains, with
  closed-form transformed states in terms of Bessel I0/I1.
* ``harmonic-energy-pdm`` — position-dependent-mass re-realization of the
  same mapped potential (m = x^2/2), equivalent after a redefinition of
  the deformation parameter.

Energies always come from the quantization rules, never hard-coded, so
parameter sweeps stay consistent.  Closed forms carry analytic first
and second derivatives, built from the contiguous-derivative identities
of the Kummer and Laguerre functions.  Their Kummer and Laguerre
factors go through ``_last_grid``, which evaluates a float as a
one-point grid and remembers the last grid's values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .darboux import (DarbouxChain, KIND_STANDARD, OdeSolution,
                      build_confluent_chain, transformed_potential,
                      transformed_solution, validate_chain)
from .errors import ContractError, DomainError, DunklDarbouxError, SingularityError
from .libm import exp, log, power
from .model import (DunklParams, DunklSystem, EnergyPotential, MassProfile,
                    ParityFunction)
from .numerics import DEFAULT_PARAM_STEP_SCALE, parameter_derivative
from .pointmap import CoordinateChange, SchrodingerForm, exp_map, sqrt_map
from .specfun import assoc_laguerre_grid, bessel_i, kummer_m, kummer_m_grid

# Validation grids: cover the figures' visible support while staying
# clear of x = 0 and the Wronskian tails.
DUNKL_GRID = np.linspace(0.1, 4.0, 400)
MAPPED_GRID = np.linspace(-2.0, 1.0, 400)

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


def _parity_extend(core, core1, core2, delta: int) -> ParityFunction:
    """Extend a half-line closed form to the punctured line by parity.

    The extended functions take a float or an ndarray of x; on an
    ndarray the core is evaluated once, on the reflected grid.
    """

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
    """Gaussian mass profile with its energy-dependent companion potential."""

    p: float = 1.0
    q: float = 1.0
    default_rule = "ene0"

    def mass(self) -> MassProfile:
        p, q = self.p, self.q

        def m(x):
            return p * exp(-q * x * x)

        return MassProfile(
            m=m,
            m1=lambda x: -2 * q * x * m(x),
            m2=lambda x: (4 * q * q * x * x - 2 * q) * m(x),
            parity=1,
        )

    def potential(self) -> EnergyPotential:
        p, q = self.p, self.q
        return EnergyPotential(
            v=lambda E, x: E - 2 * p * E * exp(q * x * x) - 0.5 * p * exp(q * x * x),
            dv_dE=lambda E, x: 1.0 - 2 * p * exp(q * x * x),
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
    a float or an ndarray of x.
    """
    if not gaussian_admissible(params):
        raise ContractError(f"(delta, nu) = ({params.delta}, {params.nu}) not admissible")
    r = discriminant_root(params)
    s = monomial_exponent(params)
    a = 0.5 - E + 0.5 * params.delta * params.nu + 0.25 * r
    b = 1.0 + 0.5 * r

    u = _kummer(a, b)
    u_next = _kummer(a + 1, b + 1)
    u_next2 = _kummer(a + 2, b + 2)

    def up(z):
        return (a / b) * u_next(z)

    def upp(z):
        return (a * (a + 1)) / (b * (b + 1)) * u_next2(z)

    def g(x):
        return power(x, s) * u(x * x)

    def g1(x):
        return s * power(x, s - 1) * u(x * x) + 2 * power(x, s + 1) * up(x * x)

    def g2(x):
        return (s * (s - 1) * power(x, s - 2) * u(x * x)
                + (4 * s + 2) * power(x, s) * up(x * x)
                + 4 * power(x, s + 2) * upp(x * x))

    def core(x):
        return exp(-x * x) * g(x)

    def core1(x):
        return exp(-x * x) * (g1(x) - 2 * x * g(x))

    def core2(x):
        return exp(-x * x) * (g2(x) - 4 * x * g1(x) + (4 * x * x - 2) * g(x))

    return _parity_extend(core, core1, core2, params.delta)


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

    f, f1 and f2 accept a float or an ndarray of x.
    """
    try:
        coeffs = _PRINTED_STATES[(delta, n)]
    except KeyError:
        raise DomainError(f"no printed state for (delta, n) = ({delta}, {n})") from None
    poly = np.polynomial.Polynomial(coeffs)
    dpoly = poly.deriv()
    ddpoly = dpoly.deriv()

    def f(x):
        return exp(-x * x) * poly(x)

    def f1(x):
        return exp(-x * x) * (dpoly(x) - 2 * x * poly(x))

    def f2(x):
        return exp(-x * x) * (ddpoly(x) - 4 * x * dpoly(x) + (4 * x * x - 2) * poly(x))

    return ParityFunction(f=f, f1=f1, f2=f2, parity=delta)


def bound_state_energy(n: int, params: DunklParams, rule: str) -> float:
    """Quantized energies: polynomial truncation of the solution factor."""
    if n < 0 or n != int(n):
        raise DomainError("bound_state_energy: n must be a nonnegative integer")
    r = discriminant_root(params)
    if rule == "ene0":
        return n + 0.5 * (1.0 + params.delta * params.nu) + 0.25 * r
    if rule == "ene1":
        return (4.0 * n + 2.0 + r) ** (2.0 / 3.0)
    raise DomainError(f"bound_state_energy: unknown rule {rule!r}")


@dataclass(frozen=True)
class ParityClassification:
    exponent: float
    classification: str


def parity_exponent(params: DunklParams) -> ParityClassification:
    """Parity of the closed forms, set by the leading monomial exponent."""
    value = monomial_exponent(params)
    if params.delta == -1:
        label = PARITY_ODD if params.nu > -0.5 else PARITY_NONE
    else:
        label = PARITY_EVEN if params.nu >= 0.5 else PARITY_NONE
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
        """U_E(y) of the mapped standard form (note the 1/E on e^{4y})."""
        return 0.25 - E * exp(2 * y) + exp(4 * y) / E

    def form(self, params: DunklParams) -> SchrodingerForm:
        eps = params.delta * params.nu - params.nu**2
        return SchrodingerForm(u_e=self.mapped_potential, epsilon_shift=eps)


@dataclass(frozen=True)
class ScenarioHarmonicEnergyPdm:
    """m = x^2/2 realization of the same mapped potential.

    It has no closed-form psi of its own: it is checked against the
    constant-mass route.
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

    def system(self, params: DunklParams) -> DunklSystem:
        return DunklSystem(params=params, mass=self.mass(), potential=self.potential())


def pdm_equivalence_nu(nu_bar: float, delta_bar: int, delta: int) -> float:
    """Deformation parameter making the PDM route match the constant-mass one.

    Chosen so 3 delta nu - nu^2 equals delta_bar nu_bar - nu_bar^2.
    """
    radicand = 9.0 - 4.0 * delta_bar * nu_bar + _four_nu_squared(nu_bar)
    return 1.5 * delta + 0.5 * math.sqrt(radicand)


def _last_grid(evaluate, count: int = 1):
    """(i, z) -> row i of evaluate(rows, z), reusing the last grid's rows.

    evaluate(rows, z) returns the values of the listed rows on the
    ndarray z, one row each.  A float z is the one-point grid [z], and
    its row entry comes back as a float.  A new grid gets all ``count``
    rows in one call.  If that call raises a package error, only the
    requested row is evaluated, so each row raises its own error when it
    is read, as separate calls would.  The key is a copy of the grid's
    dtype, shape and exact bytes (so -0.0 is not 0.0, and a grid changed
    in place is evaluated afresh); a grid that fails a guard is never
    stored.  Hits share one array, so it is made read-only.
    """
    last_key, last_rows = None, [None] * count

    def on_grid(i, z):
        nonlocal last_key, last_rows
        key = (z.dtype.str, z.shape, z.tobytes())
        fresh = key != last_key
        if not fresh and last_rows[i] is not None:
            return last_rows[i]
        wanted = range(count) if fresh else (i,)
        try:
            values = evaluate(wanted, z)
        except DunklDarbouxError:
            if len(wanted) == 1:
                raise
            wanted = (i,)
            values = evaluate(wanted, z)
        values.flags.writeable = False
        if fresh:
            last_key, last_rows = key, [None] * count
        for j, row in zip(wanted, values):
            last_rows[j] = row
        return last_rows[i]

    # Not recursive: a closure that calls itself is a reference cycle,
    # which would keep every memo alive until the cyclic collector runs.
    def get(i, z):
        if isinstance(z, np.ndarray):
            return on_grid(i, z)
        return float(on_grid(i, np.array([z], dtype=float))[0])

    return get


def _kummer(a: float, b: float):
    """z -> M(a; b; z) for a float or an ndarray z, memoised by ``_last_grid``."""
    grid = _last_grid(lambda rows, z: kummer_m_grid(a, b, z).values[None])
    return lambda z: grid(0, z)


def _laguerre_rows(*rows):
    """One closure z -> L_degree^alpha(z) per (degree, alpha) row.

    The first closure called on a grid (a float z is a one-point grid)
    evaluates every row in one ``assoc_laguerre_grid`` call, and the
    others then reuse it on the same grid (see ``_last_grid``), so rows
    belong together only when every caller reads all of them on each
    grid.
    """
    def evaluate(wanted, z):
        return assoc_laguerre_grid(tuple(rows[j][0] for j in wanted),
                                   tuple(rows[j][1] for j in wanted), z).values

    grid = _last_grid(evaluate, len(rows))
    return [lambda z, i=i: grid(i, z) for i in range(len(rows))]


def _laguerre(degree: float, alpha: float):
    """z -> L_degree^alpha(z), a factor of its own."""
    return _laguerre_rows((degree, alpha))[0]


def _laguerre_pair(degree: float, alpha: float):
    """L and L' in the argument, via dL_d^a/dz = -L_{d-1}^{a+1}, evaluated together."""
    lag, lower = _laguerre_rows((degree, alpha), (degree - 1, alpha + 1))

    def up(z):
        return -lower(z)

    return lag, up


def _laguerre_trio(degree: float, alpha: float):
    """L, L', L'' in the argument, each evaluated only where it is read."""
    lower = _laguerre(degree - 1, alpha + 1)

    def up(z):
        return -lower(z)

    return _laguerre(degree, alpha), up, _laguerre(degree - 2, alpha + 2)


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
    s = monomial_exponent(params)
    beta = 1.0 / math.sqrt(E)
    alpha = 0.5 * r
    degree = -0.5 + 0.25 * E**1.5 - 0.25 * r
    u, up, upp = _laguerre_trio(degree, alpha)

    def g(x):
        return power(x, s) * u(beta * x * x)

    def g1(x):
        return (s * power(x, s - 1) * u(beta * x * x)
                + 2 * beta * power(x, s + 1) * up(beta * x * x))

    def g2(x):
        z = beta * x * x
        return (s * (s - 1) * power(x, s - 2) * u(z)
                + (4 * s + 2) * beta * power(x, s) * up(z)
                + 4 * beta * beta * power(x, s + 2) * upp(z))

    def core(x):
        return exp(-0.5 * beta * x * x) * g(x)

    def core1(x):
        return exp(-0.5 * beta * x * x) * (g1(x) - beta * x * g(x))

    def core2(x):
        return exp(-0.5 * beta * x * x) * (
            g2(x) - 2 * beta * x * g1(x) + (beta * beta * x * x - beta) * g(x))

    return _parity_extend(core, core1, core2, params.delta)


def mapped_initial_solution(params: DunklParams, E: float) -> OdeSolution:
    """The initial solution in mapped coordinates, with spectral parameter.

    Phi(y) = e^{-z/2 + (r/2) y} L_d^alpha(z), z = e^{2y}/sqrt(E);
    its parameter is the Dunkl constant delta nu - nu^2.  Phi and Phi'
    accept a float or an ndarray of y.
    """
    r = discriminant_root(params)
    beta = 1.0 / math.sqrt(E)
    alpha = 0.5 * r
    degree = -0.5 + 0.25 * E**1.5 - 0.25 * r
    u, up = _laguerre_pair(degree, alpha)

    def phi(y):
        z = beta * exp(2 * y)
        return exp(-0.5 * z + 0.5 * r * y) * u(z)

    def phi1(y):
        z = beta * exp(2 * y)
        return exp(-0.5 * z + 0.5 * r * y) * ((0.5 * r - z) * u(z) + 2 * z * up(z))

    eps = params.delta * params.nu - params.nu**2
    return OdeSolution(f=phi, f1=phi1, eps=eps)


STANDARD_CHAIN_EPS = (0.25, -0.75)


def _standard_chain_functions(E: float):
    """The two closed-form chain members at eps = 1/4 and -3/4.

    Each member and its derivative accept a float or an ndarray of y.
    """
    beta = 1.0 / math.sqrt(E)
    c = 0.25 * E**1.5
    u, up = _laguerre_pair(c - 0.5, 0.0)
    v, vp = _laguerre_pair(c - 1.0, 1.0)

    def u1(y):
        z = beta * exp(2 * y)
        return exp(-0.5 * z) * u(z)

    def u1p(y):
        z = beta * exp(2 * y)
        return exp(-0.5 * z) * z * (2 * up(z) - u(z))

    def u2(y):
        z = beta * exp(2 * y)
        return exp(y - 0.5 * z) * v(z)

    def u2p(y):
        z = beta * exp(2 * y)
        return exp(y - 0.5 * z) * ((1.0 - z) * v(z) + 2 * z * vp(z))

    return (u1, u1p), (u2, u2p)


def _chain_background() -> SchrodingerForm:
    return ScenarioHarmonicEnergy().form(DunklParams(nu=0.0, delta=1, mu=1))


def standard_chain_u12(E: float, validate: bool = True) -> DarbouxChain:
    """The order-2 standard chain at transformation energies (1/4, -3/4)."""
    if E <= 0:
        raise DomainError("standard_chain_u12: E must be positive")
    pair1, pair2 = _standard_chain_functions(E)
    chain = DarbouxChain(kind=KIND_STANDARD, funcs=(pair1, pair2),
                         eps=STANDARD_CHAIN_EPS,
                         background=_chain_background(),
                         energy=E)
    if validate:
        validate_chain(chain, np.linspace(-2.0, 1.0, 40), 1e-7)
    return chain


def standard_chain_order1(E: float, validate: bool = True) -> DarbouxChain:
    """The order-1 standard chain using only the eps = 1/4 member."""
    if E <= 0:
        raise DomainError("standard_chain_order1: E must be positive")
    pair1, _ = _standard_chain_functions(E)
    chain = DarbouxChain(kind=KIND_STANDARD, funcs=(pair1,),
                         eps=STANDARD_CHAIN_EPS[:1],
                         background=_chain_background(),
                         energy=E)
    if validate:
        validate_chain(chain, np.linspace(-2.0, 1.0, 40), 1e-7)
    return chain


CONFLUENT_EPS1 = -2.0


def confluent_solution_family(E: float):
    """Parametric solution family of the mapped equation, in eps.

    Returns (value, y-derivative) callables of (eps, y), with y a float
    or an ndarray; the indices of the Laguerre factor vary smoothly
    with eps.  The two Laguerre factors are made once per eps, so both
    callables share their last-grid memos at every probe eps.
    """
    beta = 1.0 / math.sqrt(E)
    c = 0.25 * E**1.5

    factors = {}

    def laguerre_pair(eps):
        """(r1, L_d^alpha, L') at eps, made once per eps."""
        pair = factors.get(eps)
        if pair is None:
            r1 = math.sqrt(1.0 - 4.0 * eps)
            pair = factors[eps] = (r1, *_laguerre_pair(-0.5 + c - 0.25 * r1, 0.5 * r1))
        return pair

    def family(eps, y):
        r1, lag, _ = laguerre_pair(eps)
        z = beta * exp(2 * y)
        return exp(-0.5 * z + 0.5 * r1 * y) * lag(z)

    def family_dy(eps, y):
        r1, lag, up = laguerre_pair(eps)
        z = beta * exp(2 * y)
        lz = lag(z)
        lzp = up(z)
        return (exp(-0.5 * z + 0.5 * r1 * y)
                * ((0.5 * r1 - z) * lz + 2 * z * lzp))

    return family, family_dy


def confluent_chain(E: float, eps1: float = CONFLUENT_EPS1) -> DarbouxChain:
    """Order-2 confluent chain seeded by the parametric solution family."""
    h_eps = DEFAULT_PARAM_STEP_SCALE * max(1.0, abs(eps1))
    if not eps1 + 2 * h_eps <= 0.25:
        raise DomainError(f"confluent chain: eps = {eps1:g} is out of range: it must be "
                          f"finite and at most {0.25 - 2 * DEFAULT_PARAM_STEP_SCALE:g}, as u2 "
                          f"samples the family two stencil steps above it and sqrt(1 - 4 eps) "
                          f"is real up to 1/4")
    family, family_dy = confluent_solution_family(E)
    return build_confluent_chain(family, family_dy, eps1, _chain_background(), E,
                                 validation_grid=np.linspace(-2.0, 1.0, 25),
                                 h_eps=h_eps)


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


def hatv_from_ue(E: float, u_hat: Callable, p: float, q: float, x):
    """Transformed potential in the original variable, from U-hat.

    V-hat(x) = E - x^{-q-2} [(q+1)^2/(8p) - U-hat(log x)/(2p)].
    """
    if np.any(x <= 0):
        raise DomainError("hatv_from_ue: x must be positive")
    return E - power(x, -q - 2.0) * ((q + 1.0) ** 2 / (8.0 * p)
                                     - u_hat(log(x)) / (2.0 * p))


# The pipeline helpers below take x as a float or an ndarray; an ndarray
# is evaluated as one grid and equals the per-float calls bit for bit.

def pipeline_hatpsi(params: DunklParams, E: float, chain: DarbouxChain, x):
    """Transformed bound state in the original variable (x > 0 branch)."""
    if np.any(x <= 0):
        raise DomainError("pipeline_hatpsi: x must be positive")
    phi = mapped_initial_solution(params, E)
    return power(x, 0.5 - params.nu) * transformed_solution(chain, phi, log(x))


def pipeline_vhat(E: float, chain: DarbouxChain, x):
    """Transformed potential in the original variable via the chain."""
    return hatv_from_ue(E, lambda y: transformed_potential(chain, y), 0.5, 0.0, x)


def standard_vhat_dE(E: float, x):
    """dV-hat/dE of the standard chain, rebuilt at each of the four probe energies."""
    return parameter_derivative(
        lambda e, xx: pipeline_vhat(e, standard_chain_u12(e, validate=False), xx),
        E, x, h_eps=1e-4 * max(1.0, abs(E)))


# Scenario registry: each has mass(), potential(), coord(), system(params),
# a ``default_rule`` of its energies and ``solution(params, E)`` (or None).
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
