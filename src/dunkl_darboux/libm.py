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

While a ``memo_scope()`` is open, ``memoised(key, x, evaluate, *args)``
returns evaluate(*args) once per (key, input): the input's key is a copy
of x's dtype, shape and exact bytes, so -0.0 is not 0.0 and an array
changed in place is evaluated afresh.  The ndarray path of exp, log and
power goes through it keyed by (function name, extra arguments), and
``scenarios`` stores its special-function row groups in it, so one
memo serves every repeated evaluation.  ``memoise_parts`` stores one
evaluation on several inputs joined as the entry of each input, so a
caller that knows the grids it will read pays one evaluation for all.
A hit returns the stored result itself, so results are stored
read-only; an evaluation that raises stores nothing, and a float never
reaches the memo.  The memo is one
dict per scope, in a ``ContextVar``.  A scope opened inside an open one
joins it, and the outermost exit drops the dict, so nothing outlives
the outermost scope: ``cli.run`` opens one per command, and the library
entry points that read several closures at the same points open their
own.  Outside a scope every call evaluates afresh and returns a new,
writeable array.
"""

from __future__ import annotations

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


class memo_scope:
    """Evaluate each ``memoised`` (key, input) once within the block.

    Inside an open scope it joins that scope; only the outermost exit
    drops the memo.  A plain class: a generator context manager costs
    several times more per entry, and library calls enter one per read.
    """

    __slots__ = ("_token",)

    def __enter__(self):
        self._token = _MEMO.set({}) if _MEMO.get() is None else None

    def __exit__(self, *exc):
        if self._token is not None:
            _MEMO.reset(self._token)


def _full_key(key, x) -> tuple:
    return key, x.dtype.str, x.shape, x.tobytes()


def memoised(key, x, evaluate, *args):
    """evaluate(*args), looked up first in the open memo under key and the ndarray x."""
    memo = _MEMO.get()
    if memo is None:
        return evaluate(*args)
    full = _full_key(key, x)
    values = memo.get(full)
    if values is None:
        values = evaluate(*args)
        values.flags.writeable = False
        memo[full] = values
    return values


def memoise_parts(key, parts, evaluate, *args) -> None:
    """Store evaluate(*args, joined), joined the 1-D ndarrays of parts end to end, in the
    open memo as each part's entry under key: its last axis runs over joined.  Outside a
    scope nothing is evaluated."""
    memo = _MEMO.get()
    if memo is None or not parts:
        return
    values = evaluate(*args, np.concatenate(parts))
    values.flags.writeable = False
    start = 0
    for part in parts:
        memo[_full_key(key, part)] = values[..., start:start + part.size]
        start += part.size


def _on_array(name, fn, x, *args):
    """_per_element(name, fn, x, *args) through ``memoised``."""
    return memoised((name, args), x, _per_element, name, fn, x, *args)


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
