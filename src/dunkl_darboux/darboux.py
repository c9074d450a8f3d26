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
cofactor formula.  ``chain_residuals`` is the one residual routine of
standard-form equations, and ``validate_chain`` the one refusal on it.
The chains themselves are built in ``scenarios``, where their family lives.

``wronskian``, ``wronskian_first_derivative``, ``transformed_potential``,
``transformed_solution`` and ``transformed_pair`` (U-hat and Phi-hat
from one read of the chain, for callers that need both) take a float
or an ndarray of points y and pass it unchanged to the chain
functions, so a float gives a float and an ndarray is evaluated
elementwise, equal to the per-point calls bit for bit.
``chain_residuals`` evaluates the chain functions on the whole grid it
is given, so they must accept arrays there.  The routines
that read several chain closures at the same points do so in one
``libm.memo_scope``, so members that share special-function rows
evaluate them once per grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import (CapabilityError, ConstructionError, DomainError, EvaluationError,
                     SingularityError)
from .libm import memo_scope
from .numerics import derivative, stencil_nodes
from .pointmap import SchrodingerForm

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


def _read(chain: DarbouxChain, y):
    """U(y), then [(u_j(y), u_j'(y)), ...] of the members in chain order, in one memo scope."""
    with memo_scope():
        return chain.potential(y), [(f(y), d(y)) for f, d in chain.funcs]


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
    return _wronskian(chain, *_read(chain, y))[0]


def wronskian_first_derivative(chain: DarbouxChain, y):
    """W'(y) from Abel's identity (chains of order 0 to 2)."""
    return _wronskian(chain, *_read(chain, y))[1]


def _checked_read(chain: DarbouxChain, y, phi: Optional[OdeSolution] = None):
    """One read of the chain (and of phi) at y, under the floor of U-hat and Phi-hat.

    A W, W' or W'' that is not finite is refused by name, then a W = 0 or
    |W| < DEFAULT_W_FLOOR * scale, each at its first y.  Returns U(y), the
    members' (u_j, u_j') at y, (Phi, Phi') at y (None without phi) and
    (W, W', W'') from ``_wronskian``.
    """
    with memo_scope():
        u, members = _read(chain, y)
        solution = None if phi is None else (phi.f(y), phi.f1(y))
    w, wp, wpp, scale = _wronskian(chain, u, members)
    for name, part in (("W", w), ("W'", wp), ("W''", wpp)):
        _refuse(~np.isfinite(part), y, EvaluationError, f"Wronskian {name} is not finite")
    _refuse((w == 0.0) | (abs(w) < DEFAULT_W_FLOOR * scale), y, SingularityError,
            "Wronskian below floor")
    return u, members, solution, (w, wp, wpp)


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
    u, _, _, wronskians = _checked_read(chain, y)
    return _potential_hat(u, *wronskians)


def transformed_solution(chain: DarbouxChain, phi: OdeSolution, y):
    """Phi-hat(y) = W(u_1..u_n, Phi) / W(u_1..u_n), under the floor of U-hat."""
    u, members, (v, g), (w, _, _) = _checked_read(chain, y, phi)
    return _solution_hat(chain, phi.eps, u, members, w, v, g)


def transformed_pair(chain: DarbouxChain, phi: OdeSolution, y):
    """(U-hat(y), Phi-hat(y)) from one read of the chain and one Wronskian.

    Equal to ``transformed_potential(chain, y)`` and
    ``transformed_solution(chain, phi, y)`` bit for bit, and refused
    where either is: the floor is the same.
    """
    u, members, (v, g), wronskians = _checked_read(chain, y, phi)
    return (_potential_hat(u, *wronskians),
            _solution_hat(chain, phi.eps, u, members, wronskians[0], v, g))


def transform(chain: DarbouxChain, phi: OdeSolution, grid) -> DarbouxOutput:
    """The transformation as callables, with min |W| on a grid that passes U-hat's floor."""
    grid = np.asarray(grid, dtype=float)
    _, _, _, (w, _, _) = _checked_read(chain, grid)
    return DarbouxOutput(
        phi_hat=lambda t: transformed_solution(chain, phi, t),
        u_hat=lambda t: transformed_potential(chain, t),
        wronskian_floor=float(np.min(abs(w))),
    )


def intertwining_residual(chain: DarbouxChain, output: DarbouxOutput,
                          e_eff: float, y: float) -> float:
    """Residual of the transformed equation at y (stencil second derivative, step 1e-3)."""
    with memo_scope():
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
    first-derivative channel.  The chain functions are evaluated on the
    whole grid at once, and their derivatives on all the stencil nodes at
    once: the two ``residual_grids``, which a caller may have read ahead.
    """
    grid = np.asarray(grid, dtype=float)
    with memo_scope():      # members that share factors read them once per grid
        u = chain.potential(grid)
        values = [f(grid) for f, _ in chain.funcs]
        seconds = [derivative(d, grid, 1, h) for _, d in chain.funcs]
    out = np.zeros(len(chain.funcs))
    for j, second in enumerate(seconds):
        eps = chain.eps[j] if chain.kind == KIND_STANDARD else chain.eps[0]
        with np.errstate(all="ignore"):     # inf - inf and inf / inf are NaN: the check fails
            term = (eps - u) * values[j]
            res = second + term
            scale = abs(second) + abs(term)
            if chain.kind == KIND_CONFLUENT and j > 0:
                prev = values[j - 1]
                res = res + prev
                scale = scale + abs(prev)
            out[j] = np.max(abs(res) / np.maximum(scale, 1e-30), initial=0.0)
    return out


def validate_chain(chain: DarbouxChain, grid, tol) -> None:
    """ConstructionError unless every residual is at most tol (a float, or one per member)."""
    res = chain_residuals(chain, grid)
    if not np.all(res <= tol):
        raise ConstructionError(
            f"chain residuals {res} exceed tolerance {tol}")
