"""exp, log and power that work per element through the C library.

Each takes a float or an ndarray.  A float goes straight to the scalar
routine, exactly as ``math.exp(x)``, ``math.log(x)`` or ``x ** p`` would
evaluate it.  An ndarray is mapped element by element through the same
scalar routine.  NumPy's vectorised exp, log and power may differ from
libm in the last ulp (on AVX-512 hardware for several per cent of exp
and power samples), so grid evaluation uses these helpers wherever it
must reproduce the per-point float path bit for bit.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def _per_element(fn, x, *args):
    flat = x.ravel().tolist()
    out = map(fn, flat, *map(itertools.repeat, args))
    return np.fromiter(out, dtype=float, count=len(flat)).reshape(x.shape)


# Each helper tests for an ndarray itself, so a float costs one call.

def exp(x):
    return _per_element(math.exp, x) if isinstance(x, np.ndarray) else math.exp(x)


def log(x):
    return _per_element(math.log, x) if isinstance(x, np.ndarray) else math.log(x)


def power(x, p):
    """x ** p, for a scalar exponent p."""
    return _per_element(pow, x, p) if isinstance(x, np.ndarray) else pow(x, p)
