"""exp, log and power that work per element through the C library.

Each takes a float or an ndarray.  A float goes straight to the scalar
routine, exactly as ``math.exp(x)``, ``math.log(x)`` or ``x ** p`` would
evaluate it.  An ndarray is mapped element by element through the same
scalar routine.  NumPy's vectorised exp, log and power may differ from
libm in the last ulp (on AVX-512 hardware for several per cent of exp
and power samples), so grid evaluation uses these helpers wherever it
must reproduce the per-point float path bit for bit.

Where the scalar routine fails (a result that overflows, the log of a
nonpositive number, zero to a negative power), the helper raises a
``DomainError`` that names the function and the first failing argument.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import DomainError


def _error(name, exc, *args) -> DomainError:
    """The DomainError for the scalar routine's failure exc at args."""
    shown = ", ".join(repr(float(v)) for v in args)
    reason = "result overflows" if isinstance(exc, OverflowError) else str(exc)
    return DomainError(f"{name}({shown}): {reason}")


def _per_element(name, fn, x, *args):
    flat = x.ravel().tolist()
    try:
        values = np.fromiter(map(fn, flat, *map(itertools.repeat, args)),
                             dtype=float, count=len(flat))
    except (ArithmeticError, ValueError):
        for v in flat:      # find the first failing element
            try:
                fn(v, *args)
            except (ArithmeticError, ValueError) as exc:
                raise _error(name, exc, v, *args) from None
        raise
    return values.reshape(x.shape)


# Each helper tests for an ndarray itself, so a float costs one call.

def exp(x):
    if isinstance(x, np.ndarray):
        return _per_element("exp", math.exp, x)
    try:
        return math.exp(x)
    except OverflowError as exc:
        raise _error("exp", exc, x) from None


def log(x):
    if isinstance(x, np.ndarray):
        return _per_element("log", math.log, x)
    try:
        return math.log(x)
    except ValueError as exc:
        raise _error("log", exc, x) from None


def power(x, p):
    """x ** p, for a scalar exponent p."""
    if isinstance(x, np.ndarray):
        return _per_element("power", pow, x, p)
    try:
        return pow(x, p)
    except ArithmeticError as exc:
        raise _error("power", exc, x, p) from None
