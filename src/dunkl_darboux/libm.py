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

While a ``memo_scope()`` is open (``cli.run`` opens one around each
command), the ndarray path evaluates each (function, extra arguments,
input) once: the key is the function's name, its extra arguments and a
copy of the input's dtype, shape and exact bytes, the rule of
``scenarios._last_grid``, so -0.0 is not 0.0 and an array changed in
place is evaluated afresh.  A hit returns the stored result itself, so
results are stored read-only; an evaluation that raises stores nothing,
and a float never reaches the memo.  The memo is one dict per scope, in
a ``ContextVar``, and is dropped when the scope closes, so nothing
outlives the command.  Outside a scope every call evaluates afresh and
returns a new, writeable array.
"""

from __future__ import annotations

import contextlib
import contextvars
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


# The open scope's memo, key -> read-only result; None outside a scope.
_MEMO = contextvars.ContextVar("libm_memo", default=None)


@contextlib.contextmanager
def memo_scope():
    """Evaluate each ndarray (function, arguments, input) once within the block."""
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


def _on_array(name, fn, x, *args):
    """_per_element(name, fn, x, *args), looked up first in the open memo."""
    memo = _MEMO.get()
    if memo is None:
        return _per_element(name, fn, x, *args)
    key = (name, args, x.dtype.str, x.shape, x.tobytes())
    values = memo.get(key)
    if values is None:
        values = _per_element(name, fn, x, *args)
        values.flags.writeable = False
        memo[key] = values
    return values


# Each helper tests for an ndarray itself, so a float costs one call.

def exp(x):
    if isinstance(x, np.ndarray):
        return _on_array("exp", math.exp, x)
    try:
        return math.exp(x)
    except OverflowError as exc:
        raise _error("exp", exc, x) from None


def log(x):
    if isinstance(x, np.ndarray):
        return _on_array("log", math.log, x)
    try:
        return math.log(x)
    except ValueError as exc:
        raise _error("log", exc, x) from None


def power(x, p):
    """x ** p, for a scalar exponent p."""
    if isinstance(x, np.ndarray):
        return _on_array("power", pow, x, p)
    try:
        return pow(x, p)
    except ArithmeticError as exc:
        raise _error("power", exc, x, p) from None
