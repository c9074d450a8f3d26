"""Standard and confluent Darboux transformations on standard-form equations.

The central engineering decision: Wronskian matrices never sample
second or higher derivatives of the transformation functions.  All
rows beyond the first derivative are reduced through the governing
equation, so closed-form (u, u') pairs keep the determinants exact in
their inputs.  Matrices are at most 3 x 3 (an order-2 chain plus the
transformed solution) and use explicit determinant formulas; U-hat and
W' are analytic for chains of order 1 and 2, and higher orders raise
``CapabilityError``.

``wronskian``, ``wronskian_first_derivative``, ``transformed_potential``
and ``transformed_solution`` take a float or an ndarray of points y and
pass it unchanged to the chain functions, so a float gives a float and
an ndarray is evaluated elementwise, equal to the per-point calls bit
for bit.  ``chain_residuals`` evaluates the chain functions on the
whole grid it is given, so they must accept arrays there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import (CapabilityError, ConstructionError, DomainError,
                     SingularityError)
from .libm import power
from .numerics import derivative, parameter_derivative
from .pointmap import SchrodingerForm

MAX_MATRIX_SIZE = 3
DEFAULT_W_FLOOR = 1e-12

KIND_STANDARD = "standard"
KIND_CONFLUENT = "confluent"


@dataclass(frozen=True)
class OdeSolution:
    """Solution of a standard-form equation: value, derivative, spectral parameter."""

    f: Callable[[float], float]
    f1: Callable[[float], float]
    eps: float


@dataclass(frozen=True)
class DarbouxChain:
    """Ordered transformation functions with their spectral parameters.

    ``energy`` fixes the energy at which the background potential is
    evaluated; the chain functions solve the background equation at
    their ``eps`` parameters (standard) or form a Jordan chain at the
    single eps (confluent).
    """

    kind: str
    funcs: Tuple[Tuple[Callable[[float], float], Callable[[float], float]], ...]
    eps: Tuple[float, ...]
    background: SchrodingerForm
    energy: float

    def __post_init__(self):
        if self.kind not in (KIND_STANDARD, KIND_CONFLUENT):
            raise DomainError(f"DarbouxChain: unknown kind {self.kind!r}")
        if self.kind == KIND_STANDARD:
            if len(self.eps) != len(self.funcs):
                raise DomainError("DarbouxChain: one eps per function required")
            if len(set(self.eps)) != len(self.eps):
                raise DomainError("DarbouxChain: standard eps must be pairwise distinct")
        else:
            if len(self.eps) != 1:
                raise DomainError("DarbouxChain: confluent chain has a single eps")

    @property
    def order(self) -> int:
        return len(self.funcs)

    def potential(self, y: float) -> float:
        return self.background.u_e(self.energy, y)


@dataclass(frozen=True)
class DarbouxOutput:
    """Transformed solution and potential on a validated domain."""

    phi_hat: Callable[[float], float]
    u_hat: Callable[[float], float]
    wronskian_floor: float


def _column(f0, f1, eps: float, u, nrows: int, lower=None) -> list:
    """Derivative ladder d^r f for r < nrows, reduced via the ODE.

    ``lower`` is the value of the previous Jordan-chain member for the
    confluent inhomogeneity; omitted for standard columns.
    """
    col = [f0, f1]
    if nrows >= 3:
        d2 = (u - eps) * f0
        if lower is not None:
            d2 = d2 - lower
        col.append(d2)
    return col[:nrows]


def _columns(chain: DarbouxChain, y, include: Optional[OdeSolution]) -> list:
    """Columns of the Wronskian matrix of the chain (plus ``include``)."""
    nrows = chain.order + (1 if include is not None else 0)
    if nrows > MAX_MATRIX_SIZE:
        raise CapabilityError(
            f"Wronskian size {nrows} exceeds supported maximum {MAX_MATRIX_SIZE}")
    u = chain.potential(y) if nrows >= 3 else None
    cols = []
    for j, (f, f1) in enumerate(chain.funcs):
        eps = chain.eps[j] if chain.kind == KIND_STANDARD else chain.eps[0]
        lower = cols[-1][0] if chain.kind == KIND_CONFLUENT and j > 0 else None
        cols.append(_column(f(y), f1(y), eps, u, nrows, lower=lower))
    if include is not None:
        cols.append(_column(include.f(y), include.f1(y), include.eps, u, nrows))
    return cols


def _minor(cols: list, r1: int, r2: int, c1: int, c2: int):
    """2 x 2 determinant of rows r1 < r2 and columns c1 < c2."""
    return cols[c1][r1] * cols[c2][r2] - cols[c2][r1] * cols[c1][r2]


def _expand(cols: list, pivot: int):
    """3 x 3 cofactor expansion along column ``pivot``; zero entries skipped."""
    c1, c2 = [c for c in range(3) if c != pivot]
    total = 0.0
    for r in range(3):
        r1, r2 = [q for q in range(3) if q != r]
        entry = cols[pivot][r]
        sign = -1.0 if (r + pivot) % 2 else 1.0
        term = sign * entry * _minor(cols, r1, r2, c1, c2)
        if isinstance(entry, np.ndarray):
            total = np.where(entry == 0.0, total, total + term)
        elif entry != 0.0:
            total += term
    return total


def _det(cols: list):
    """Determinant of the matrix with the given columns (size 1 to 3).

    The 3 x 3 case expands along the column of largest absolute sum,
    chosen per point.
    """
    n = len(cols)
    if n == 1:
        return cols[0][0]
    if n == 2:
        return _minor(cols, 0, 1, 0, 1)
    sums = [(abs(c[0]) + abs(c[1])) + abs(c[2]) for c in cols]
    pivot = np.argmax(np.stack(sums), axis=0)
    if pivot.ndim == 0:
        return _expand(cols, int(pivot))
    return np.choose(pivot, [_expand(cols, p) for p in range(3)])


def _scale(cols: list):
    """Product over columns of their largest magnitude (1 for a zero column)."""
    scale = 1.0
    for col in cols:
        norm = abs(col[0])
        for entry in col[1:]:
            norm = np.maximum(norm, abs(entry))
        scale = scale * np.where(norm > 0, norm, 1.0)
    return scale


def _below_floor(w, floor, y) -> None:
    low = abs(w) < floor
    if np.any(low):
        at = float(np.broadcast_to(y, np.shape(low))[low][0])
        raise SingularityError(f"Wronskian below floor at y={at}")


def wronskian(chain: DarbouxChain, y, include: Optional[OdeSolution] = None):
    """Wronskian of the chain functions (optionally with an extra solution)."""
    if chain.order == 0 and include is None:
        return 1.0
    return _det(_columns(chain, y, include))


def wronskian_first_derivative(chain: DarbouxChain, y):
    """W'(y) from the Abel-type reduction (chains of order 1 and 2)."""
    if chain.order == 1:
        return chain.funcs[0][1](y)
    if chain.order == 2:
        (f1, d1), (f2, d2) = chain.funcs
        if chain.kind == KIND_STANDARD:
            return (chain.eps[0] - chain.eps[1]) * f1(y) * f2(y)
        return -power(f1(y), 2)
    raise CapabilityError(f"W' is supported for chains of order 1 and 2, not {chain.order}")


def transformed_potential(chain: DarbouxChain, y, w_floor: float = DEFAULT_W_FLOOR):
    """U-hat(y) = U(y) - 2 (log W)''.

    W' and W'' are analytic for orders <= 2 (Abel reduction of the
    chain equations); higher orders raise ``CapabilityError``.
    """
    n = chain.order
    if n > 2:
        raise CapabilityError(f"U-hat is supported for chains of order up to 2, not {n}")
    u = chain.potential(y)
    if n == 0:
        return u
    if n == 1:
        f, d = chain.funcs[0]
        w, wp = f(y), d(y)
        wpp = (u - chain.eps[0]) * w
        scale = np.maximum(np.maximum(abs(w), abs(wp)), 1.0)
    else:
        (f1, d1), (f2, d2) = chain.funcs
        v1, v2, g1, g2 = f1(y), f2(y), d1(y), d2(y)
        w = v1 * g2 - g1 * v2
        if chain.kind == KIND_STANDARD:
            de = chain.eps[0] - chain.eps[1]
            wp = de * v1 * v2
            wpp = de * (g1 * v2 + v1 * g2)
        else:
            wp = -v1 * v1
            wpp = -2.0 * v1 * g1
        scale = (np.maximum(np.maximum(abs(v1), abs(g1)), 1.0)
                 * np.maximum(np.maximum(abs(v2), abs(g2)), 1.0))
    _below_floor(w, w_floor * scale, y)
    with np.errstate(all="ignore"):     # overflow stays inf/NaN, reported downstream
        return u - 2.0 * (wpp * w - wp * wp) / (w * w)


def transformed_solution(chain: DarbouxChain, phi: OdeSolution, y,
                         w_floor: float = DEFAULT_W_FLOOR):
    """Phi-hat(y) = W(u_1..u_n, Phi) / W(u_1..u_n).

    The chain functions are evaluated once: the denominator matrix is
    the leading block of the numerator matrix.
    """
    cols = _columns(chain, y, phi)
    block = [col[:chain.order] for col in cols[:-1]]
    den = _det(block) if block else 1.0
    _below_floor(den, w_floor * _scale(block), y)
    return _det(cols) / den


def transform(chain: DarbouxChain, phi: OdeSolution, grid) -> DarbouxOutput:
    """Bundle the transformation as callables and record the Wronskian floor."""
    grid = np.asarray(grid, dtype=float)
    floor = float(np.min(abs(wronskian(chain, grid))))
    if floor <= 0:
        raise SingularityError("Wronskian vanishes on the requested domain")
    return DarbouxOutput(
        phi_hat=lambda t: transformed_solution(chain, phi, t),
        u_hat=lambda t: transformed_potential(chain, t),
        wronskian_floor=floor,
    )


def intertwining_residual(chain: DarbouxChain, output: DarbouxOutput,
                          e_eff: float, y: float, h: float = 1e-3) -> float:
    """Residual of the transformed equation at y (stencil second derivative)."""
    phh = derivative(output.phi_hat, y, 2, h)
    return phh + (e_eff - output.u_hat(y)) * output.phi_hat(y)


def chain_residuals(chain: DarbouxChain, grid, h: float = 5e-4) -> np.ndarray:
    """Max-normalized residuals of the chain equations on a grid.

    Standard: u_j'' + (eps_j - U) u_j.  Confluent: the Jordan-chain
    system with inhomogeneity -u_{j-1}.  Second derivatives come from
    stencils on the first-derivative channel.  The chain functions are
    evaluated on the whole grid at once.
    """
    grid = np.asarray(grid, dtype=float)
    u = chain.potential(grid)
    # Every member is read on the grid before any stencil samples its
    # derivative off the grid, so memoised factors are not evaluated twice.
    values = [f(grid) for f, _ in chain.funcs]
    out = np.zeros(len(chain.funcs))
    for j, (_, d) in enumerate(chain.funcs):
        eps = chain.eps[j] if chain.kind == KIND_STANDARD else chain.eps[0]
        second = derivative(d, grid, 1, h)
        term = (eps - u) * values[j]
        res = second + term
        scale = abs(second) + abs(term)
        if chain.kind == KIND_CONFLUENT and j > 0:
            prev = values[j - 1]
            res = res + prev
            scale = scale + abs(prev)
        out[j] = np.fmax.reduce(abs(res) / np.maximum(scale, 1e-30), initial=0.0)
    return out


def validate_chain(chain: DarbouxChain, grid, tol: float) -> None:
    res = chain_residuals(chain, grid)
    if np.any(res > tol):
        raise ConstructionError(
            f"chain residuals {res} exceed tolerance {tol}")


def build_confluent_chain(family: Callable[[float, float], float],
                          family_dy: Callable[[float, float], float],
                          eps1: float,
                          background: SchrodingerForm,
                          energy: float,
                          validation_grid,
                          order: int = 2,
                          h_eps: Optional[float] = None,
                          residual_tol: float = 1e-5) -> DarbouxChain:
    """Confluent chain from a parametric solution family.

    u_1 is the family at eps1; u_2 is its parametric derivative there
    (value and y-derivative channels), which solves the Jordan-chain
    equation exactly when the family solves the background equation.
    The family is evaluated on the whole validation grid at once, so it
    must accept arrays of y.
    """
    if order != 2:
        raise CapabilityError("only second-order confluent chains are supported")

    def u1(y: float) -> float:
        return family(eps1, y)

    def u1p(y: float) -> float:
        return family_dy(eps1, y)

    def u2(y: float) -> float:
        return parameter_derivative(family, eps1, y, h_eps)

    def u2p(y: float) -> float:
        return parameter_derivative(family_dy, eps1, y, h_eps)

    grid = np.asarray(validation_grid, dtype=float)
    scale1 = np.max(abs(u1(grid)))
    scale2 = np.max(abs(u2(grid)))
    if scale2 < 1e-12 * max(scale1, 1.0):
        raise ConstructionError("family does not depend on eps: degenerate chain")

    chain = DarbouxChain(kind=KIND_CONFLUENT, funcs=((u1, u1p), (u2, u2p)),
                         eps=(eps1,), background=background, energy=energy)
    res = chain_residuals(chain, grid)
    if res[0] > 1e-7 or res[1] > residual_tol:
        raise ConstructionError(
            f"confluent chain residuals {res} exceed tolerances (1e-7, {residual_tol})")
    return chain
