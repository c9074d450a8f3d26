"""Finite-difference derivatives and real-line quadrature.

Step-size defaults balance truncation against rounding at double
precision; every stencil applies one Richardson extrapolation step.
``derivative`` and ``parameter_derivative`` accept an ndarray of points
as well as a float and then work elementwise, equal to the per-point
calls bit for bit.  Quadrature over the real line is delegated to
adaptive Gauss-Kronrod integration (QAGI variable substitution onto a
finite interval), with the integration split exactly at x = 0 so that
no panel straddles the |x|^w kink of the weight function.  SciPy is
imported by the first ``integrate_real_line`` call, not with the
package, so commands that compute no norm never pay for loading it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

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


def default_step(y):
    if isinstance(y, np.ndarray):
        return DEFAULT_SPATIAL_STEP_SCALE * np.maximum(1.0, np.abs(y))
    return DEFAULT_SPATIAL_STEP_SCALE * max(1.0, abs(y))


def _check_finite(val, node, what: str):
    """val, or EvaluationError at its first non-finite entry."""
    if isinstance(val, np.ndarray):
        bad = ~np.isfinite(val)
        if bad.any():
            where = float(np.broadcast_to(node, val.shape)[bad][0])
            raise EvaluationError(f"non-finite {what}{where}", node=where)
    elif not math.isfinite(val):
        raise EvaluationError(f"non-finite {what}{node}", node=node)
    return val


# Sample offsets of each central stencil, in units of the step.
_SHIFTS = {1: (1, -1), 2: (1, 0, -1), 3: (2, 1, -1, -2)}


def _stencil(order: int, s, step):
    """Central difference from the samples s[k] = f(y + k step)."""
    if order == 1:
        return (s[1] - s[-1]) / (2 * step)
    if order == 2:
        return (s[1] - 2 * s[0] + s[-1]) / power(step, 2)
    return (s[2] - 2 * s[1] + 2 * s[-1] - s[-2]) / (2 * power(step, 3))


def derivative(f: Callable[[float], float], y, order: int, h=None):
    """Central-difference derivative of the given order (1..3).

    One Richardson extrapolation step is applied, giving O(h^4)
    truncation for orders 1 and 2.  For an ndarray y (h a float or an
    array of per-point steps), f must work elementwise: it is called
    once, on the stencil nodes of all points together.
    """
    if order not in (1, 2, 3):
        raise DomainError(f"derivative: unsupported order {order}")
    if h is None:
        h = default_step(y)
    if np.any(h <= 0) if isinstance(h, np.ndarray) else h <= 0:
        raise DomainError("derivative: step must be positive")
    shifts = _SHIFTS[order]
    steps = (h, h / 2)
    if isinstance(y, np.ndarray):
        nodes = np.concatenate([y + k * step if k else y for step in steps for k in shifts])
        parts = np.split(_check_finite(f(nodes), nodes, "sample at "), 2 * len(shifts))
        samples = [dict(zip(shifts, parts[i * len(shifts):])) for i in (0, 1)]
    else:
        samples = []
        for step in steps:
            s = {}
            for k in shifts:
                node = y + k * step if k else y
                s[k] = _check_finite(f(node), node, "sample at ")
            samples.append(s)
    coarse = _stencil(order, samples[0], steps[0])
    fine = _stencil(order, samples[1], steps[1])
    return (4 * fine - coarse) / 3


def parameter_derivative(family: Callable[[float, float], float], eps0: float, y,
                         h_eps: Optional[float] = None):
    """d/d(eps) of family(eps, y) at eps0, by a 4-point central stencil.

    The 4-point rule is the Richardson extrapolation of the 2-point
    central difference, with O(h^4) truncation error.  y may be an
    ndarray; family then gets the whole array at each probe eps.
    """
    if h_eps is None:
        h_eps = DEFAULT_PARAM_STEP_SCALE * max(1.0, abs(eps0))
    if h_eps <= 0:
        raise DomainError("parameter_derivative: step must be positive")
    samples = {}
    for k in (-2, -1, 1, 2):
        eps = eps0 + k * h_eps
        samples[k] = _check_finite(family(eps, y), eps, "family sample at eps=")
    return (8 * (samples[1] - samples[-1]) - (samples[2] - samples[-2])) / (12 * h_eps)


def integrate_real_line(f: Callable[[float], float]) -> QuadratureResult:
    """Integral of f over the whole real line.

    Assumes Gaussian-type decay outside a finite core (the caller's
    contract).  The integral is split at 0 and each half handled by
    adaptive quadrature with infinite-interval substitution.
    """
    from scipy import integrate as _integrate

    counter = {"n": 0}

    def wrapped(x: float) -> float:
        counter["n"] += 1
        if x == 0.0:
            return 0.0
        val = f(x)
        if not math.isfinite(val):
            raise EvaluationError(f"non-finite integrand at {x}", node=x)
        return val

    total = 0.0
    err = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", _integrate.IntegrationWarning)
        try:
            for lo, hi in ((-np.inf, 0.0), (0.0, np.inf)):
                val, abserr = _integrate.quad(wrapped, lo, hi, epsabs=QUAD_TOL,
                                              epsrel=QUAD_TOL, limit=200)
                total += val
                err += abserr
        except _integrate.IntegrationWarning as exc:
            raise AccuracyError(f"quadrature did not converge: {exc}",
                                best_estimate=total) from exc
    if err > 1e-9 * max(1.0, abs(total)):
        raise AccuracyError("quadrature error estimate above tolerance", best_estimate=total)
    return QuadratureResult(total, err, counter["n"])
