"""Standard and confluent Darboux transformations on standard-form equations.

The central engineering decision: Wronskians never sample second or
higher derivatives of the transformation functions.  The program builds
chains of order 1 and 2, and one routine (``_wronskian``) gives W, W'
and W'' of a chain of order 0 to 2 from its members' closed-form
(u, u') pairs: W' and W'' come from Abel's identity, and higher orders
raise ``CapabilityError``.  The same routine gives the floor scale
that U-hat, Phi-hat and ``transform`` all apply, |W| < 1e-12 times the
product over members of max(|u_j|, |u_j'|), which a rescaled member
moves with W, and W = 0 also where that product underflows.  The one
matrix left is the 3 x 3 numerator of the order-2 Phi-hat, whose third
row is reduced through the chain equation and expanded by an explicit
cofactor formula.  ``residuals`` is the one residual routine of
standard-form equations, and ``require_residuals`` the one refusal on it.
The chains themselves are built in ``scenarios``, where their family lives.

A chain is one jet, y -> its members' (u_j, u_j'), and a solution Phi
is a jet y -> (Phi, Phi').  ``read`` reads the chain (and Phi) at the
points y, an ndarray as one ``libm.Grid``, into a ``ChainRead``:
``wronskian``, ``transformed_potential``, ``transformed_solution`` and
``transformed_pair`` (U-hat and Phi-hat for callers that need both) take
points y, a float or an ndarray.  An ndarray is evaluated elementwise,
equal to the per-point calls bit for bit.
``chain_residuals`` reads the chain on its grid and the members' u' on
the stencil nodes, and ``residuals`` takes those arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from .errors import (CapabilityError, ConstructionError, DomainError, EvaluationError,
                     SingularityError)
from .libm import Grid
from .numerics import derivative, sampled_derivative, stencil_nodes
from .pointmap import SchrodingerForm

DEFAULT_W_FLOOR = 1e-12

KIND_STANDARD = "standard"
KIND_CONFLUENT = "confluent"


@dataclass(frozen=True)
class OdeSolution:
    """Solution of a standard-form equation: its jet y -> (phi, phi'), with views f and f1,
    and its spectral parameter."""

    jet: Callable[[float], Tuple[float, float]]
    eps: float

    def f(self, y):
        return self.jet(y)[0]

    def f1(self, y):
        return self.jet(y)[1]


@dataclass(frozen=True)
class DarbouxChain:
    """Ordered transformation functions with their spectral parameters.

    ``jet`` maps y to the list of the ``order`` members' (u_j, u_j'), and
    ``funcs`` holds their views, (u_j, u_j') pairs of functions of y.
    ``energy`` fixes the energy at which the background potential is
    evaluated; the members solve the background equation at their ``eps``
    parameters (standard) or form a Jordan chain at the single eps
    (confluent).
    """

    kind: str
    jet: Callable[[float], list]
    order: int
    eps: Tuple[float, ...]
    background: SchrodingerForm
    energy: float

    def __post_init__(self):
        if self.kind not in (KIND_STANDARD, KIND_CONFLUENT):
            raise DomainError(f"DarbouxChain: unknown kind {self.kind!r}")
        if self.kind == KIND_STANDARD:
            if len(self.eps) != self.order:
                raise DomainError("DarbouxChain: one eps per function required")
            if len(set(self.eps)) != len(self.eps):
                raise DomainError("DarbouxChain: standard eps must be pairwise distinct")
        else:
            if len(self.eps) != 1:
                raise DomainError("DarbouxChain: confluent chain has a single eps")

    @property
    def funcs(self) -> tuple:
        return tuple((lambda y, j=j: self.jet(y)[j][0], lambda y, j=j: self.jet(y)[j][1])
                     for j in range(self.order))

    def potential(self, y: float) -> float:
        return self.background.u_e(self.energy, y)


@dataclass(frozen=True)
class DarbouxOutput:
    """Transformed solution and potential on a validated domain."""

    phi_hat: Callable[[float], float]
    u_hat: Callable[[float], float]
    wronskian_floor: float


class ChainRead(NamedTuple):
    """A chain read at the points y: U(y), each member's (u_j, u_j'), and (Phi, Phi') or None."""

    y: object
    u: object
    members: list
    solution: Optional[tuple] = None


def read(chain: DarbouxChain, y, phi: Optional[OdeSolution] = None) -> ChainRead:
    """The chain read at y (an ndarray as a ``libm.Grid``): U, its jet, phi's (if given)."""
    y = Grid(y) if isinstance(y, np.ndarray) else y
    return ChainRead(y, chain.potential(y), chain.jet(y), None if phi is None else phi.jet(y))


def _wronskian(chain: DarbouxChain, u, members: list):
    """(W, W', W'', floor scale) of a chain of order 0, 1 or 2 from its members at y.

    U(y) = u, and ``members`` holds each member's (u_j, u_j') at y.
    Order 0: W = 1.  Order 1: W = u1, W' = u1', W'' = (U - eps1) u1.
    Order 2: W = u1 u2' - u1' u2 with, by Abel's identity, W' = (eps1 -
    eps2) u1 u2 and W'' = (eps1 - eps2)(u1' u2 + u1 u2') (standard), or
    W' = -u1^2 and W'' = -2 u1 u1' (confluent).  The scale is the product
    over members of max(|u_j|, |u_j'|), a zero member counting as 1, so
    the floor moves with W when a member is rescaled.  A product that
    overflows is inf or NaN, which ``_checked_read`` refuses.
    """
    n = len(members)
    if n > 2:
        raise CapabilityError(f"Wronskians are supported for chains of order 0 to 2, not {n}")
    with np.errstate(over="ignore", invalid="ignore"):
        scale = 1.0
        for v, g in members:
            norm = np.maximum(abs(v), abs(g))
            scale = scale * np.where(norm > 0, norm, 1.0)
        if n == 0:
            return 1.0, 0.0, 0.0, scale
        if n == 1:
            (w, wp), = members
            return w, wp, (u - chain.eps[0]) * w, scale
        (v1, g1), (v2, g2) = members
        if chain.kind == KIND_STANDARD:
            de = chain.eps[0] - chain.eps[1]
            wp, wpp = de * v1 * v2, de * (g1 * v2 + v1 * g2)
        else:
            wp, wpp = -v1 * v1, -2.0 * v1 * g1
        return v1 * g2 - g1 * v2, wp, wpp, scale


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
    """3 x 3 determinant, expanded along the column of largest absolute sum per point."""
    sums = [(abs(c[0]) + abs(c[1])) + abs(c[2]) for c in cols]
    pivot = np.argmax(np.stack(sums), axis=0)
    if pivot.ndim == 0:
        return _expand(cols, int(pivot))
    return np.choose(pivot, [_expand(cols, p) for p in range(3)])


def _refuse(bad, y, error, text: str) -> None:
    """Raise error(text) naming the first y where bad holds, if it holds anywhere."""
    if np.any(bad):
        at = float(np.broadcast_to(y, np.shape(bad))[bad][0])
        raise error(f"{text} at y={at}")


def wronskian(chain: DarbouxChain, y):
    """Wronskian of the chain functions (chains of order 0 to 2)."""
    return _wronskian(chain, *read(chain, y)[1:3])[0]


def wronskian_first_derivative(chain: DarbouxChain, y):
    """W'(y) from Abel's identity (chains of order 0 to 2)."""
    return _wronskian(chain, *read(chain, y)[1:3])[1]


def _checked_read(chain: DarbouxChain, y, phi: Optional[OdeSolution] = None):
    """The chain's read at y (``read``, with phi) and (W, W', W'').

    A W, W' or W'' that is not finite is refused by name, then a W = 0 or
    |W| < DEFAULT_W_FLOOR * scale, each at its first y: the floor of U-hat
    and Phi-hat.
    """
    at = read(chain, y, phi)
    w, wp, wpp, scale = _wronskian(chain, at.u, at.members)
    for name, part in (("W", w), ("W'", wp), ("W''", wpp)):
        _refuse(~np.isfinite(part), at.y, EvaluationError, f"Wronskian {name} is not finite")
    _refuse((w == 0.0) | (abs(w) < DEFAULT_W_FLOOR * scale), at.y, SingularityError,
            "Wronskian below floor")
    return at, (w, wp, wpp)


def _potential_hat(u, w, wp, wpp):
    """U-hat = U - 2 (log W)'' = U - 2 (W'' W - W'^2) / W^2."""
    with np.errstate(all="ignore"):     # overflow stays inf/NaN, reported downstream
        return u - 2.0 * (wpp * w - wp * wp) / (w * w)


def _solution_hat(chain: DarbouxChain, phi_eps: float, u, members: list, w, v, g):
    """Phi-hat = W(u_1..u_n, Phi) / W from the chain read at y, Phi = v and Phi' = g there.

    The order-2 numerator is the 3 x 3 determinant of the columns (u,
    u', u''), with u'' reduced through the chain equation: (U - eps_j)
    u_j, minus u_{j-1} for a confluent u_2.  A product that overflows,
    in the pivot the determinant takes or in one it drops, stays inf or
    NaN, as in U-hat.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if chain.order == 0:
            return v / w
        if chain.order == 1:
            (v1, g1), = members
            return (v1 * g - v * g1) / w
        (v1, g1), (v2, g2) = members
        e1, e2 = chain.eps if chain.kind == KIND_STANDARD else chain.eps * 2
        d2 = (u - e2) * v2
        if chain.kind == KIND_CONFLUENT:
            d2 = d2 - v1
        cols = [[v1, g1, (u - e1) * v1], [v2, g2, d2], [v, g, (u - phi_eps) * v]]
        return _det(cols) / w


def transformed_potential(chain: DarbouxChain, y):
    """U-hat(y) = U(y) - 2 (log W)'', with W, W' and W'' from ``_wronskian``."""
    at, wronskians = _checked_read(chain, y)
    return _potential_hat(at.u, *wronskians)


def transformed_solution(chain: DarbouxChain, phi: OdeSolution, y):
    """Phi-hat(y) = W(u_1..u_n, Phi) / W(u_1..u_n), under the floor of U-hat."""
    at, (w, _, _) = _checked_read(chain, y, phi)
    return _solution_hat(chain, phi.eps, at.u, at.members, w, *at.solution)


def transformed_pair(chain: DarbouxChain, phi: OdeSolution, y):
    """(U-hat(y), Phi-hat(y)) from one read of the chain and one Wronskian.

    Equal to ``transformed_potential(chain, y)`` and
    ``transformed_solution(chain, phi, y)`` bit for bit, and refused
    where either is: the floor is the same.
    """
    at, wronskians = _checked_read(chain, y, phi)
    return (_potential_hat(at.u, *wronskians),
            _solution_hat(chain, phi.eps, at.u, at.members, wronskians[0], *at.solution))


def transform(chain: DarbouxChain, phi: OdeSolution, grid) -> DarbouxOutput:
    """The transformation as callables, with min |W| on a grid that passes U-hat's floor."""
    grid = np.asarray(grid, dtype=float)
    _, (w, _, _) = _checked_read(chain, grid)
    return DarbouxOutput(
        phi_hat=lambda t: transformed_solution(chain, phi, t),
        u_hat=lambda t: transformed_potential(chain, t),
        wronskian_floor=float(np.min(abs(w))),
    )


def intertwining_residual(chain: DarbouxChain, output: DarbouxOutput,
                          e_eff: float, y: float) -> float:
    """Residual of the transformed equation at y (stencil second derivative, step 1e-3)."""
    phh = derivative(output.phi_hat, y, 2, 1e-3)
    return phh + (e_eff - output.u_hat(y)) * output.phi_hat(y)


def residual_grids(grid: np.ndarray, h: Optional[float] = 5e-4) -> list:
    """The grids ``chain_residuals(chain, grid, h)`` reads the chain on: the grid, then
    the stencil nodes of its second derivatives (``numerics.stencil_nodes``)."""
    return [grid, stencil_nodes(grid, 1, h)]


def chain_residuals(chain: DarbouxChain, grid, h: Optional[float] = 5e-4) -> np.ndarray:
    """Max-normalized residuals of the chain equations on a grid (NaN if any is NaN).

    Standard: u_j'' + (eps_j - U) u_j.  Confluent: the Jordan-chain
    system with inhomogeneity -u_{j-1}.  Second derivatives come from
    stencils of step h (None: ``numerics.default_step``) on the
    first-derivative channel.  The chain is read on the whole grid at
    once, and its members' u' on all the stencil nodes at once: the two
    ``residual_grids`` (``residuals`` takes reads a caller already has).
    """
    grid = np.asarray(grid, dtype=float)
    on_grid = read(chain, grid)
    return residuals(chain, on_grid, [g for _, g in chain.jet(stencil_nodes(grid, 1, h))], h)


def residuals(chain: DarbouxChain, on_grid: ChainRead, slopes: list,
              h: Optional[float] = 5e-4) -> np.ndarray:
    """``chain_residuals`` from the chain's read on the grid and each member's u' on its nodes."""
    seconds = [sampled_derivative(g, on_grid.y, 1, h) for g in slopes]
    out = np.zeros(chain.order)
    for j, second in enumerate(seconds):
        eps = chain.eps[j] if chain.kind == KIND_STANDARD else chain.eps[0]
        value = on_grid.members[j][0]
        with np.errstate(all="ignore"):     # inf - inf and inf / inf are NaN: the check fails
            term = (eps - on_grid.u) * value
            res = second + term
            scale = abs(second) + abs(term)
            if chain.kind == KIND_CONFLUENT and j > 0:
                prev = on_grid.members[j - 1][0]
                res = res + prev
                scale = scale + abs(prev)
            out[j] = np.max(abs(res) / np.maximum(scale, 1e-30), initial=0.0)
    return out


def require_residuals(res: np.ndarray, tol) -> None:
    """ConstructionError unless every entry of res is at most tol (a float, or one per entry)."""
    if not np.all(res <= tol):
        raise ConstructionError(
            f"chain residuals {res} exceed tolerance {tol}")
