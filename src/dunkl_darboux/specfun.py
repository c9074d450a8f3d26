"""Special functions needed by the closed-form solutions.

Provides the Kummer confluent hypergeometric function M = 1F1, the
associated Laguerre function with real (non-integer) degree, and the
modified Bessel functions I0 and I1.  All routines are self-contained
double-precision evaluations; each returns the value together with a
conservative absolute error estimate.

``kummer_m_grid`` and ``assoc_laguerre_grid`` take scalar parameters
and an ndarray of arguments and return a ``SpecialGrid``;
``assoc_laguerre_grid`` also takes sequences of degrees and alphas and
then returns one row per pair.  ``kummer_m`` and ``assoc_laguerre`` are
one-point calls of them that return a ``SpecialValue``, so each branch,
check and error message has one implementation.  ``bessel_i`` is scalar.

The Kummer series of a point is term_0 = 1, term_{k+1} = term_k (a + k)
z / ((b + k)(k + 1)), stopped at the first term_{k+1} with k > 2 below
1e-18 of the largest term so far; its value is the correctly rounded
sum of the terms, which is what ``math.fsum`` returns.  All columns
(one per row and point) are one cumulative product over a (terms x
columns) ratio matrix, summed by one error-free extraction
(``_fsum_columns``) that hands the columns it cannot certify to
``math.fsum`` itself.  A series that has not met its stop rule within
``KUMMER_MAX_TERMS`` terms raises ``AccuracyError`` instead of returning
a partial sum, and a terminating polynomial of degree above
``KUMMER_MAX_TERMS`` is refused with a ``DomainError`` before its
coefficients are built.

The e^z factor of the reflected branch goes through ``libm.exp``, the
scalar libm routine per element: numpy's vectorised exp can differ from
it in the last ulp, and the values would then depend on the hardware
and on how many points share a call.

The Tricomi function U (second-kind confluent hypergeometric) is
intentionally not implemented: bounded solutions discard it, so only
its first-kind companion is ever evaluated here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, DomainError
from .libm import exp

# Direct summation of the 1F1 series alternates for negative arguments
# and loses about |z|/ln 10 digits to cancellation; below this z the
# e^z-prefactor identity reroutes through a same-sign series.
KUMMER_SERIES_Z_MIN = -1.0
KUMMER_Z_MAX = 700.0
KUMMER_MAX_TERMS = 600

# I0/I1 seam between ascending series and asymptotic expansion.  At 18
# the optimally truncated asymptotic tail is below 1e-14 relative, so
# both branches agree to better than 1e-12.
BESSEL_SERIES_CUTOFF = 18.0
BESSEL_Z_MAX = 600.0

_EPS = 2.2204460492503131e-16
# Terms of the grid series: every column gets the first block (most
# stop within it: median 25 terms on the benchmark workloads); columns
# still unconverged after a block continue in blocks of the second size.
_FIRST_BLOCK = 32
_SERIES_BLOCK = 48
# Series index k and k + 1 as floats, and the term index, for every possible term.
_K = np.arange(KUMMER_MAX_TERMS, dtype=float)
_K1 = _K + 1.0
_TERM_INDEX = np.arange(KUMMER_MAX_TERMS + 1)[:, None]
# k ** 0.5 (libm pow, as a float ** computes it) for every possible series length k.
_SQRT_COUNT = np.array([k ** 0.5 for k in range(KUMMER_MAX_TERMS + 2)])
_NOT_CONVERGED = f"kummer_m: series not converged within {KUMMER_MAX_TERMS} terms"
# Largest m * peak (m terms of magnitude at most peak) for which no
# partial sum of the exact summation or of fsum can overflow.
_FSUM_SAFE = 2.0 ** 1021
# Exponent range of the extraction's sigma in which eps sigma is a
# normal number and sigma + x (|x| < sigma / 4) cannot overflow.
_SIGMA_MIN_EXP = -970
_SIGMA_MAX_EXP = 1023


@dataclass(frozen=True)
class SpecialValue:
    """Function value with a conservative absolute error estimate."""

    value: float
    est_abs_error: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise DomainError("special function value is not finite")
        if self.est_abs_error < 0:
            raise DomainError("error estimate must be nonnegative")


@dataclass(frozen=True)
class SpecialGrid:
    """Function values on a grid with conservative absolute error estimates."""

    values: np.ndarray
    est_abs_errors: np.ndarray

    def __post_init__(self):
        if not np.isfinite(self.values).all():
            raise DomainError("special function value is not finite")
        if (self.est_abs_errors < 0).any():
            raise DomainError("error estimate must be nonnegative")


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0 and x == math.floor(x)


def _one_point(grid: SpecialGrid) -> SpecialValue:
    return SpecialValue(float(grid.values[0]), float(grid.est_abs_errors[0]))


def kummer_m(a: float, b: float, z: float) -> SpecialValue:
    """Confluent hypergeometric function M(a; b; z) = 1F1(a; b; z).

    For nonpositive integer a the series truncates and the exact
    polynomial is evaluated by Horner's rule.  For z below
    ``KUMMER_SERIES_Z_MIN`` the identity M(a;b;z) = e^z M(b-a;b;-z)
    routes the evaluation through a non-alternating series.
    """
    return _one_point(kummer_m_grid(a, b, np.array([z], dtype=float)))


def _kummer_polynomial(n: int, b: float, z: np.ndarray) -> np.ndarray:
    """M(-n; b; z) elementwise.

    Degrees above ``KUMMER_MAX_TERMS`` are refused before any
    coefficient is built, as a series that long would be.
    """
    if n > KUMMER_MAX_TERMS:
        raise DomainError(f"kummer_m: polynomial degree {n:g} exceeds the limit "
                          f"of {KUMMER_MAX_TERMS}")
    # Coefficients c_k = (-n)_k / ((b)_k k!), summed by Horner's rule.
    coeffs = [1.0]
    c = 1.0
    for k in range(n):
        c *= (-n + k) / ((b + k) * (k + 1))
        coeffs.append(c)
    acc = 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # SpecialGrid refuses inf/NaN
        for c in reversed(coeffs):
            acc = acc * z + c
    return acc


def kummer_m_grid(a: float, b: float, z: np.ndarray) -> SpecialGrid:
    """``kummer_m`` at every entry of the ndarray z (scalar a and b).

    The |z| range guard rejects the whole grid if any point is outside it.
    """
    z = np.asarray(z, dtype=float)
    for name, val in (("a", a), ("b", b)):
        if not math.isfinite(val):
            raise DomainError(f"kummer_m: argument {name} is not finite")
    if not np.isfinite(z).all():
        raise DomainError("kummer_m: argument z is not finite")
    values, est = _kummer_rows([a], [b], z)
    return SpecialGrid(values[0], est[0])


def _kummer_rows(a: list, b: list, z: np.ndarray):
    """M(a[i]; b[i]; z) for every row i: (values, estimates), each (rows, *z.shape).

    Each row takes its own branch (polynomial or series); the series rows
    are evaluated together, in one call of the series kernel.  z must be
    finite; the result is not validated.
    """
    rows = []      # (values, estimates) of a polynomial row, None for a series row
    for ai, bi in zip(a, b):
        if _is_nonpositive_integer(bi):
            raise DomainError("kummer_m: b must not be a nonpositive integer")
        if _is_nonpositive_integer(ai):
            n = int(-ai)
            acc = _kummer_polynomial(n, bi, z)
            rows.append((acc, (n + 1) * _EPS * np.maximum(1.0, np.abs(acc))))
        else:
            rows.append(None)
    series = [i for i, row in enumerate(rows) if row is None]
    if series:
        if (np.abs(z) > KUMMER_Z_MAX).any():
            raise DomainError(f"kummer_m: |z| exceeds supported range {KUMMER_Z_MAX}")
        sa = np.array([a[i] for i in series])[:, None]
        sb = np.array([b[i] for i in series])[:, None]
        flat = z.reshape(-1)
        low = flat < KUMMER_SERIES_Z_MIN
        if low.any():
            # M(a; b; z) = e^z M(b - a; b; -z) at the low points.
            sa = np.where(low, sb - sa, sa)
            flat = np.where(low, -flat, flat)
        values, est = _kummer_series_grid(sa, sb, flat)
        if low.any():
            scale = exp(z.reshape(-1)[low])
            est[:, low] = scale * est[:, low] + _EPS * np.abs(scale * values[:, low])
            values[:, low] *= scale
        shape = (len(series),) + z.shape
        if len(series) == len(rows):
            return values.reshape(shape), est.reshape(shape)
        for j, i in enumerate(series):
            rows[i] = values[j].reshape(z.shape), est[j].reshape(z.shape)
    shape = (len(rows),) + z.shape
    return (np.array([row[0] for row in rows]).reshape(shape),
            np.array([row[1] for row in rows]).reshape(shape))


def _series_ratios(ks: slice, a, b, z, out=None):
    """term_{k+1} / term_k = (a + k) z / ((b + k)(k + 1)) for k in ks, down axis 0.

    Computed in the order of the module docstring's recurrence; a and b
    broadcast against z along the remaining axes.
    """
    shape = (-1,) + (1,) * max(np.ndim(z), np.ndim(a))
    k = _K[ks].reshape(shape)
    out = np.multiply(k + a, z, out=out)
    out /= (k + b) * _K1[ks].reshape(shape)
    return out


def _kummer_series_grid(a: np.ndarray, b: np.ndarray, z: np.ndarray):
    """The Kummer series per column: (values, error estimates), each (rows, points).

    Column (i, j) is the series of M(a[i, j]; b[i]; z[j]): a has shape
    (rows, 1) or (rows, points), b (rows, 1), z (points,).  terms[k, c]
    is term k of column c, built by the series recurrence as a
    cumulative product: the first ``_FIRST_BLOCK`` ratios of all columns
    in place in the term buffer, then blocks of ``_SERIES_BLOCK`` for the
    columns that have not stopped.  Terms past a column's stop are
    zeroed, which leaves its sum exact.
    """
    rows, n = a.shape[0], z.shape[0]
    size = rows * n
    cols = np.arange(size)
    terms = np.empty((KUMMER_MAX_TERMS + 1, size))
    terms[0] = 1.0
    head = terms[:_FIRST_BLOCK + 1]
    with np.errstate(over="ignore", invalid="ignore"):
        first = head[1:].reshape(_FIRST_BLOCK, rows, n)
        np.cumprod(_series_ratios(slice(0, _FIRST_BLOCK), a, b, z, out=first),
                   axis=0, out=first)
        mag = np.abs(head)
        running = np.fmax.accumulate(mag, axis=0)    # term 0 = 1 starts the peak
        # Stop at the first term k + 1 with k > 2 below 1e-18 of the peak.
        stops = mag[4:] < running[4:] * 1e-18
        last = stops.argmax(axis=0) + 4
        hit = stops[last - 4, cols]
        last[~hit] = _FIRST_BLOCK
        peak = running[last, cols]
        active = (~hit).nonzero()[0]
        if active.size:
            a_cols = np.broadcast_to(a, (rows, n)).reshape(-1)
            b_cols = np.repeat(b[:, 0], n)
            z_cols = np.tile(z, rows)
        k0 = _FIRST_BLOCK
        while active.size and k0 < KUMMER_MAX_TERMS:
            ks = slice(k0, min(k0 + _SERIES_BLOCK, KUMMER_MAX_TERMS))
            factors = _series_ratios(ks, a_cols[active], b_cols[active], z_cols[active])
            factors[0] *= terms[k0, active]
            block = np.cumprod(factors, axis=0)
            mag = np.abs(block)
            block_peak = np.fmax(np.fmax.accumulate(mag, axis=0), peak[active])
            stops = mag < 1e-18 * block_peak
            terms[ks.start + 1:ks.stop + 1, active] = block
            hit = stops.any(axis=0)
            first = stops.argmax(axis=0)
            peak[active] = np.where(hit, block_peak[first, np.arange(active.size)],
                                    block_peak[-1])
            last[active[hit]] = k0 + 1 + first[hit]
            active = active[~hit]
            k0 = ks.stop
    if active.size:
        raise AccuracyError(_NOT_CONVERGED)
    kept = terms[:last.max(initial=0) + 1]
    np.putmask(kept, _TERM_INDEX[:len(kept)] > last, 0.0)
    # Truncation bound from the last term plus rounding at the series peak.
    est = np.abs(terms[last, cols]) + _EPS * peak * _SQRT_COUNT[last + 1]
    return _fsum_columns(kept, peak).reshape(rows, n), est.reshape(rows, n)


def _fsum_columns(x: np.ndarray, peak: np.ndarray) -> np.ndarray:
    """``math.fsum`` of every column of the (rows >= 1, points) array x, bit for bit.

    peak[j] must be at least max |x[:, j]|.  One error-free extraction
    (ExtractVector of Rump, Ogita & Oishi, SIAM J. Sci. Comput. 31 (2008)
    189) splits each column at sigma = 2^M 2^ceil(log2 peak), with
    2^M >= m + 2 for m rows: q = fl(sigma + x) - sigma and p = x - q are
    exact, every q is a multiple of eps sigma / 2 below sigma / 2^M, so
    tau = sum(q) is exact in any order, and the column sum S equals
    tau + sum(p).  res = fl(tau + fl(sum(p))) is then the correctly
    rounded S, which is what fsum returns, whenever res's TwoSum
    remainder r plus the bound 2 m eps sum|p| on the error of fl(sum(p))
    stays below half the gap from res to its neighbour towards zero (the
    smaller gap).  Zero and subnormal results never pass: half their gap
    rounds to zero.  Every column that fails the test -- non-finite
    terms or results, a peak large enough for fsum's partial sums or
    sigma to overflow, a sigma so small that eps sigma is subnormal,
    zeros and near-ties -- is summed by fsum itself, which also keeps
    its exceptions.
    """
    m, n = x.shape
    exponent = np.frexp(peak)[1] + (m + 1).bit_length()   # peak < 2^frexp exponent
    # parts[0] holds every q, parts[1] every p and parts[2] its |p|, so
    # that one reduction gives tau, sum(p) and sum|p|.
    parts = np.empty((3, m, n))
    with np.errstate(over="ignore", invalid="ignore"):
        sigma = np.ldexp(1.0, exponent)
        q = np.add(x, sigma, out=parts[0])
        q -= sigma
        np.subtract(x, q, out=parts[1])
        np.abs(parts[1], out=parts[2])
        tau, t, bound = parts.sum(axis=1)
        bound *= 2 * m * _EPS
        res = tau + t
        v = res - tau
        r = (tau - (res - v)) + (t - v)
        # m * peak bounds every partial sum, here and inside fsum.
        ok = ((np.abs(r) + bound < 0.5 * np.abs(res - np.nextafter(res, 0.0)))
              & (peak < _FSUM_SAFE / m)
              & (exponent >= _SIGMA_MIN_EXP) & (exponent <= _SIGMA_MAX_EXP))
    if np.count_nonzero(ok) < n:
        bad = (~ok).nonzero()[0]
        res[bad] = [math.fsum(x[:, j].tolist()) for j in bad]
    return res


def _laguerre_prefactor(degree: float, alpha: float) -> float:
    """binom(degree+alpha, degree) by Gamma-function ratios."""
    try:
        lg_num, sign_num = math.lgamma(degree + alpha + 1.0), _gamma_sign(degree + alpha + 1.0)
        lg_den1, sign_den1 = math.lgamma(degree + 1.0), _gamma_sign(degree + 1.0)
        lg_den2, sign_den2 = math.lgamma(alpha + 1.0), _gamma_sign(alpha + 1.0)
    except ValueError as exc:
        raise DomainError(f"assoc_laguerre: Gamma pole in prefactor: {exc}") from exc
    return sign_num * sign_den1 * sign_den2 * exp(lg_num - lg_den1 - lg_den2)


def assoc_laguerre(degree: float, alpha: float, z: float) -> SpecialValue:
    """Associated Laguerre function L_degree^alpha(z) for real degree.

    Evaluated through L_n^a(z) = binom(n+a, n) * M(-n; a+1; z), with the
    binomial extended to real degree by Gamma-function ratios.
    """
    return _one_point(assoc_laguerre_grid(degree, alpha, np.array([z], dtype=float)))


def assoc_laguerre_grid(degree, alpha, z: np.ndarray) -> SpecialGrid:
    """``assoc_laguerre`` at every entry of the ndarray z.

    degree and alpha are floats, or equal-length sequences of floats:
    one row of values per (degree, alpha) pair, shape (rows, *z.shape),
    with the series rows summed in one call of the series kernel.  Each
    row passes the checks of ``assoc_laguerre``, stage by stage, and
    the Gamma-ratio prefactor is computed once per row.  A call with
    several rows raises the first error any row meets.
    """
    z = np.asarray(z, dtype=float)
    single = np.ndim(degree) == 0
    rows = ([(float(degree), float(alpha))] if single
            else list(zip(map(float, degree), map(float, alpha))))
    for d, al in rows:
        for name, val in (("degree", d), ("alpha", al)):
            if not math.isfinite(val):
                raise DomainError(f"assoc_laguerre: argument {name} is not finite")
    if not np.isfinite(z).all():
        raise DomainError("assoc_laguerre: argument z is not finite")
    live, prefactors = [], []
    for i, (d, al) in enumerate(rows):
        if _is_nonpositive_integer(al + 1.0):
            raise DomainError("assoc_laguerre: alpha+1 must not be a nonpositive integer")
        # At a Gamma(degree+1) pole the row vanishes identically.
        if not _is_nonpositive_integer(d + 1.0):
            live.append(i)
            prefactors.append(_laguerre_prefactor(d, al))
    hyp, hyp_est = _kummer_rows([-rows[i][0] for i in live],
                                [rows[i][1] + 1.0 for i in live], z)
    scale = np.array(prefactors).reshape((-1,) + (1,) * z.ndim)
    with np.errstate(over="ignore", invalid="ignore"):  # SpecialGrid refuses inf/NaN
        values = scale * hyp
        est = np.abs(scale) * hyp_est + _EPS * np.abs(values)
    if len(live) < len(rows):
        live_values, live_est = values, est
        values = np.zeros((len(rows),) + z.shape)
        est = np.zeros_like(values)
        values[live], est[live] = live_values, live_est
    if single:
        values, est = values[0], est[0]
    return SpecialGrid(values, est)


def _gamma_sign(x: float) -> float:
    """Sign of Gamma(x): positive for x > 0, alternating between poles."""
    if x > 0:
        return 1.0
    if x == math.floor(x):
        raise ValueError(f"Gamma pole at {x}")
    return 1.0 if math.floor(x) % 2 == 0 else -1.0


def bessel_i(order: int, z: float) -> SpecialValue:
    """Modified Bessel function of the first kind, I0 or I1.

    Ascending power series below ``BESSEL_SERIES_CUTOFF`` (all terms
    positive, no cancellation), asymptotic expansion above it.
    """
    if order not in (0, 1):
        raise DomainError(f"bessel_i: unsupported order {order}")
    if not math.isfinite(z):
        raise DomainError("bessel_i: z is not finite")
    if abs(z) > BESSEL_Z_MAX:
        raise DomainError(f"bessel_i: |z| exceeds supported range {BESSEL_Z_MAX}")

    sign = -1.0 if (z < 0 and order == 1) else 1.0
    az = abs(z)
    if az < BESSEL_SERIES_CUTOFF:
        res = _bessel_series(order, az)
    else:
        res = _bessel_asymptotic(order, az)
    return SpecialValue(sign * res.value, res.est_abs_error)


def _bessel_series(order: int, z: float) -> SpecialValue:
    q = 0.25 * z * z
    term = (0.5 * z) ** order / math.factorial(order)
    terms = [term]
    k = 0
    while abs(term) > 1e-18 * abs(terms[0]) or k < 4:
        k += 1
        term *= q / (k * (k + order))
        terms.append(term)
        if k > 200:
            break
    value = math.fsum(terms)
    return SpecialValue(value, abs(term) + _EPS * value * len(terms) ** 0.5)


def _bessel_asymptotic(order: int, z: float) -> SpecialValue:
    # I_nu(z) ~ e^z / sqrt(2 pi z) * sum_k (-1)^k a_k(nu) / z^k,
    # a_k = prod_{j=1..k} (4 nu^2 - (2j-1)^2) / (8 k!) ... truncated at
    # the smallest term.
    mu = 4.0 * order * order
    term = 1.0
    total = term
    smallest = abs(term)
    for k in range(1, 60):
        term *= -(mu - (2 * k - 1) ** 2) / (8.0 * k * z)
        if abs(term) > smallest:
            break
        smallest = abs(term)
        total += term
    scale = math.exp(z) / math.sqrt(2.0 * math.pi * z)
    value = scale * total
    return SpecialValue(value, scale * smallest + _EPS * abs(value))
