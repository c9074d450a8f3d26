"""Finite-difference derivatives and real-line quadrature.

Step-size defaults balance truncation against rounding at double
precision; every stencil applies one Richardson extrapolation step.
``sampled_derivative`` takes the values of f at ``stencil_nodes`` of an
ndarray of points; ``derivative`` is its one-point case at a float y,
calling f node by node.  ``parameter_derivative`` accepts an ndarray of
points as well as a float.  Both work elementwise, equal to the
per-point calls bit for bit.  ``parameter_derivative`` has
two users: the confluent chain, whose u2 is the eps-derivative of the
mapped family (``scenarios.seeded_chain``, which builds the members at
``parameter_probes`` itself), and ``pointmap.energy_relation_residual``,
where the numerical dU/dE is the independent side of the check.
Figure 4's dV-hat/dE is analytic (``scenarios._vhat_dE``, on its
chain's degree-derivative rows).

Quadrature over the real line uses the double-exponential (exp-sinh)
rule of Takahasi & Mori, Publ. RIMS 9 (1974) 721, and Mori & Sugihara,
J. Comput. Appl. Math. 127 (2001) 287, on each half line, so no node
sits at or straddles the |x|^w kink of the weight function at x = 0.
The integrand takes an ndarray of nodes: a whole level is one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import AccuracyError, DomainError, EvaluationError
from .libm import power

DEFAULT_SPATIAL_STEP_SCALE = 1e-4
DEFAULT_PARAM_STEP_SCALE = 1e-5
QUAD_TOL = 1e-10


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    est_abs_error: float
    n_evals: int

    def __post_init__(self):
        if self.est_abs_error < 0 or self.n_evals <= 0:
            raise DomainError("QuadratureResult: invalid error estimate or eval count")


def default_step(y: np.ndarray) -> np.ndarray:
    return DEFAULT_SPATIAL_STEP_SCALE * np.maximum(1.0, np.abs(y))


def _check_finite(val, node, what: str):
    """val (a float or an ndarray), or EvaluationError at its first non-finite entry."""
    bad = ~np.isfinite(val)
    if bad.any():
        where = float(np.broadcast_to(node, np.shape(val))[bad][0])
        raise EvaluationError(f"non-finite {what}{where}", node=where)
    return val


# Sample offsets of each central stencil, in units of the step.
_SHIFTS = {1: (1, -1), 2: (1, 0, -1)}


def _stencil(order: int, s, step):
    """Central difference from the samples s[k] = f(y + k step)."""
    if order == 1:
        return (s[1] - s[-1]) / (2 * step)
    return (s[1] - 2 * s[0] + s[-1]) / power(step, 2)


def _layout(y: np.ndarray, order: int, h) -> tuple:
    """(coarse and fine step, the nodes f is sampled at) of ``sampled_derivative``,
    with its refusals of order and h."""
    if order not in (1, 2):
        raise DomainError(f"derivative: unsupported order {order}")
    if h is None:
        h = default_step(y)
    if np.any(h <= 0):
        raise DomainError("derivative: step must be positive")
    steps = (h, h / 2)
    return steps, np.concatenate([y + k * step if k else y for step in steps
                                  for k in _SHIFTS[order]])


def stencil_nodes(y: np.ndarray, order: int, h=None) -> np.ndarray:
    """The points at which ``sampled_derivative(values, y, order, h)`` reads f."""
    return _layout(y, order, h)[1]


def derivative(f: Callable[[float], float], y: float, order: int, h=None) -> float:
    """Central-difference derivative of order 1 or 2 at the float y: the
    one-point ``sampled_derivative``, f called at each stencil node in turn."""
    at = np.array([y])
    values = [_check_finite(f(node), node, "sample at ")
              for node in stencil_nodes(at, order, h).tolist()]
    return float(sampled_derivative(np.array(values), at, order, h)[0])


def sampled_derivative(values: np.ndarray, y: np.ndarray, order: int, h=None):
    """Central-difference derivative of order 1 or 2, the orders in use, of f at
    the ndarray y from values = f(``stencil_nodes(y, order, h)``), h a float or
    an array of per-point steps.  One Richardson extrapolation step is applied,
    giving O(h^4) truncation."""
    steps, nodes = _layout(y, order, h)
    shifts = _SHIFTS[order]
    parts = np.split(_check_finite(values, nodes, "sample at "), 2 * len(shifts))
    coarse, fine = (_stencil(order, dict(zip(shifts, parts[i * len(shifts):])), steps[i])
                    for i in (0, 1))
    return (4 * fine - coarse) / 3


def default_param_step(eps0: float) -> float:
    """The step of ``parameter_derivative`` at eps0."""
    return DEFAULT_PARAM_STEP_SCALE * max(1.0, abs(eps0))


# Probe offsets of the eps stencil, in units of its step.
PARAM_STENCIL_OFFSETS = (-2, -1, 1, 2)


def parameter_probes(eps0: float) -> list:
    """The eps at which ``parameter_derivative`` samples its family, in offset order."""
    return [eps0 + k * default_param_step(eps0) for k in PARAM_STENCIL_OFFSETS]


def parameter_derivative(family: Callable[[float, float], float], eps0: float, y):
    """d/d(eps) of family(eps, y) at eps0, by a 4-point central stencil.

    The 4-point rule, of step ``default_param_step(eps0)``, is the
    Richardson extrapolation of the 2-point central difference, with
    O(h^4) truncation error.  family is called at ``parameter_probes(eps0)``,
    with y; an ndarray y is passed whole at each probe eps.
    """
    h_eps = default_param_step(eps0)
    samples = {k: _check_finite(family(eps, y), eps, "family sample at eps=")
               for k, eps in zip(PARAM_STENCIL_OFFSETS, parameter_probes(eps0))}
    return (8 * (samples[1] - samples[-1]) - (samples[2] - samples[-2])) / (12 * h_eps)


# Exp-sinh nodes x = exp(pi/2 sinh t) of one half line, t on [-4, 2]:
# x runs from 2.4e-19 to 297.9, past the point where a Gaussian-decaying
# density has underflowed to exactly 0.  Nodes and weights h dx/dt come
# from the scalar libm routines, so they are the same bits on every
# machine.
QUAD_STEP = 1.0 / 64
# Halving stops here: each halving doubles the nodes, and a step of
# 1/1024 resolves a peak e^{-((x - c)/0.5)^2} out to c = 30 (not 60),
# past the peaks near x = sqrt(nu) < 11 of every density whose
# |x|^(2 nu) factor does not overflow.
QUAD_MIN_STEP = 1.0 / 1024
_T_LO, _T_HI = -4, 2


def _exp_sinh(ks, step):
    """Nodes and weights of one half line at t = k step, k in ks."""
    ts = [k * step for k in ks]
    nodes = [math.exp(0.5 * math.pi * math.sinh(t)) for t in ts]
    weights = [step * 0.5 * math.pi * math.cosh(t) * x for t, x in zip(ts, nodes)]
    return np.array(nodes), np.array(weights)


_NODES, _WEIGHTS = _exp_sinh(range(_T_LO * 64, _T_HI * 64 + 1), QUAD_STEP)
_ADDED = {}     # step -> the nodes and weights it adds, made on first use


def _added_nodes(step):
    """The nodes and weights that the step ``step`` adds to the step 2 step."""
    if step not in _ADDED:
        n = round(1 / step)
        _ADDED[step] = _exp_sinh(range(_T_LO * n + 1, _T_HI * n, 2), step)
    return _ADDED[step]


# Allowance, relative to the sum of |terms|, for the integrand's own
# rounding, which the difference of two step sizes cannot see once
# they agree to the last bits.  It is measured, not derived: over the
# norms of tests/test_norm_oracle.py the rounding error of the weighted
# sum of densities is at most 5.9e-15 = 2^-47.3 of the sum of |terms|,
# except gaussian-mass near nu = 170 (2^-46.9), where it grows with nu.
# An integrand that rounds worse than this can get too small an estimate.
QUAD_ROUNDING = 2.0 ** -44


def _fold(f, nodes):
    """f on -nodes and on nodes, in one call: (values on -nodes, on nodes)."""
    x = np.concatenate([-nodes, nodes])
    neg, pos = np.split(_check_finite(f(x), x, "integrand at "), 2)
    return neg, pos


def _fsum(terms: list) -> float:
    """math.fsum, or a DomainError where its exact partial sums overflow."""
    try:
        return math.fsum(terms)
    except OverflowError:
        raise DomainError("quadrature: the integral overflows the float range") from None


def integrate_real_line(f: Callable[[np.ndarray], np.ndarray]) -> QuadratureResult:
    """Integral over the real line of f, which maps an ndarray of x elementwise.

    Each half line is integrated by the exp-sinh trapezoid rule, first
    at steps 1/32 and 1/64 in t; while two successive steps differ by
    more than the tolerance the step is halved, down to 1/1024, reusing
    every node already evaluated.  The last difference estimates the
    error.  f is called first on the two outermost nodes, +-297.9,
    alone, so an integrand that fails far out fails on two nodes; then
    once on all the other nodes of step 1/64, and once on the nodes each
    halving adds.  The integrand must be negligible at both ends of the
    window, which is never truncated silently.
    """
    far_neg, far_pos = _fold(f, _NODES[-1:])
    neg, pos = _fold(f, _NODES[:-1])
    n_evals = 2 * _NODES.size
    terms = _WEIGHTS * np.append(neg + pos, far_neg + far_pos)
    listed = terms.tolist()
    total = _fsum(listed)
    coarse = 2.0 * _fsum(listed[::2])
    scale = max(1.0, abs(total))
    # |integrand in t| at the window's ends: it bounds what lies beyond
    # them for anything that decays at least like e^{-|t|} there.
    ends = float(_WEIGHTS[0] * (abs(neg[0]) + abs(pos[0]))
                 + _WEIGHTS[-1] * (abs(far_neg[0]) + abs(far_pos[0]))) / QUAD_STEP
    if ends > QUAD_TOL * scale:
        raise AccuracyError(f"quadrature window truncates the integrand: "
                            f"{ends:.3g} at its ends", best_estimate=total)
    step = QUAD_STEP
    diff = abs(total - coarse)
    while diff > QUAD_TOL * scale:
        if step == QUAD_MIN_STEP:
            raise AccuracyError(f"quadrature did not converge: steps 1/{round(0.5 / step)} "
                                f"and 1/{round(1 / step)} differ by {diff:.3g}",
                                best_estimate=total)
        step /= 2
        nodes, weights = _added_nodes(step)
        neg, pos = _fold(f, nodes)
        n_evals += 2 * nodes.size
        # Halving the old terms is exact: they now carry the weight of the new step.
        listed = [v * 0.5 for v in listed] + (weights * (neg + pos)).tolist()
        coarse, total = total, _fsum(listed)
        scale = max(1.0, abs(total))
        diff = abs(total - coarse)
    err = diff + ends + QUAD_ROUNDING * float(np.abs(listed).sum())
    if err > 1e-9 * scale:
        raise AccuracyError("quadrature error estimate above tolerance",
                            best_estimate=total)
    return QuadratureResult(total, err, n_evals)
