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

A ``Grid`` is an ndarray of points that keeps what is evaluated on it:
exp, log and power of a Grid, e^{k x} (``exp_scaled``) and e^{c x^2}
(``exp_square``), and what readers key on it with ``Grid.kept``.  So
the factors that independent readers take at the same points (the
residual's x^2 and a state's x^(s+1) at s = 1, the gaussian mass's and
state's e^{-x^2}, e^{2y} of three energies' chains) are evaluated once.
A kept result is a Grid too; arithmetic, and any other ndarray, evaluate
afresh, and nothing outlives the Grid.
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


class Grid(np.ndarray):
    """Points that keep the results evaluated on them (see the module docstring).

    ``Grid(x)`` views x as a Grid, or is x itself if x is one.  Slices and
    views of a Grid are Grids that keep nothing yet; a Grid is not changed
    in place.
    """

    def __new__(cls, x):
        return x if isinstance(x, Grid) else np.asarray(x, dtype=float).view(cls)

    def __array_finalize__(self, obj):
        self._kept = {}

    def __array_wrap__(self, array, context=None, return_scalar=False):
        out = array.view(np.ndarray)        # arithmetic gives plain arrays
        return out[()] if return_scalar else out

    def kept(self, key, evaluate):
        """evaluate(), the first time key is asked for on this Grid; an ndarray
        result is kept as a Grid.  An evaluation that raises keeps nothing."""
        if key not in self._kept:
            value = evaluate()
            self._kept[key] = Grid(value) if isinstance(value, np.ndarray) else value
        return self._kept[key]

    def absolute(self):
        """(a, at): the Grid a of |x| and the index at with |x| = a[at] (None: |x| = a).

        A Grid of positive points is its own a, so a half-line form read on
        |x| shares its factors; the Grid of ``reflected`` reads its a.
        """
        if ("absolute",) not in self._kept and np.all(self > 0):
            return self, None
        return self.kept(("absolute",), lambda: (Grid(np.where(self > 0, self, -self)), None))

    def reflected(self):
        """These points, then -x for each x > 0 of them, as a Grid whose |x| is
        read from this Grid's ``absolute``: each |x| once."""
        pos = self > 0
        out = Grid(np.concatenate([self, -self[pos]]))
        a, at = self.absolute()
        at = np.arange(self.size) if at is None else at
        out._kept[("absolute",)] = (a, np.concatenate([at, at[pos]]))
        return out


# Each helper tests for an ndarray itself, so a float costs one call.

def exp(x):
    if isinstance(x, Grid):
        return x.kept(("exp", 1.0), lambda: _per_element("exp", math.exp, x))
    if isinstance(x, np.ndarray):
        return _per_element("exp", math.exp, x)
    try:
        return math.exp(x)
    except OverflowError as exc:
        raise _error("exp", exc, x) from None


def exp_scaled(x, k: float):
    """e^{k x}, kept on a Grid x."""
    if isinstance(x, Grid):
        return x.kept(("exp", k), lambda: exp(k * x))
    return exp(k * x)


def exp_square(x, c: float):
    """e^{c x^2}, formed as exp((c x) x), kept on a Grid x.  Where (c x) x
    overflows it is inf, so c < 0 gives 0."""
    def evaluate():
        with np.errstate(over="ignore"):
            arg = c * x * x
        return exp(arg)

    return x.kept(("exp_square", c), evaluate) if isinstance(x, Grid) else evaluate()


def log(x):
    if isinstance(x, Grid):
        return x.kept(("log",), lambda: _per_element("log", math.log, x))
    if isinstance(x, np.ndarray):
        return _per_element("log", math.log, x)
    try:
        return math.log(x)
    except ValueError as exc:
        raise _error("log", exc, x) from None


def power(x, p):
    """x ** p, for a scalar exponent p."""
    if isinstance(x, Grid):
        return x.kept(("power", p), lambda: _per_element("power", pow, x, p))
    if isinstance(x, np.ndarray):
        return _per_element("power", pow, x, p)
    try:
        return pow(x, p)
    except ArithmeticError as exc:
        raise _error("power", exc, x, p) from None
