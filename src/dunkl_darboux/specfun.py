"""Special functions needed by the closed-form solutions.

Provides the Kummer confluent hypergeometric function M = 1F1, the
associated Laguerre function with real (non-integer) degree, and the
modified Bessel functions I0 and I1.  All routines are self-contained
double-precision evaluations; each returns the value together with a
conservative absolute error estimate.

``kummer_m``, ``assoc_laguerre`` and ``bessel_i`` take Python floats and
return a ``SpecialValue``.  ``kummer_m_grid`` and ``assoc_laguerre_grid``
take scalar parameters and an ndarray of arguments and return a
``SpecialGrid``; each entry equals the scalar routine's value and error
estimate at that point bit for bit.  The grid series is one cumulative
product over a (terms x points) factor matrix, stopped per point by the
scalar rule.  The scalar series is summed with ``math.fsum``, the
correctly rounded sum; the grid series gets the same bits from an exact
summation of all points at once (``_fsum_columns``), which hands only the
points it cannot certify (zero or subnormal sums, near-ties, overflow,
non-finite terms) to ``math.fsum``.  A series that has not met its stop
rule within ``KUMMER_MAX_TERMS`` terms raises ``AccuracyError`` on both
paths instead of returning a partial sum.

The e^z factor of the reflected branch goes through ``libm.exp``, the
scalar libm routine per element: numpy's vectorised exp can differ from
it in the last ulp, which would break that equality.

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
# Terms added per cumulative-product block of the grid series; points
# still unconverged after a block continue in the next one.
_SERIES_BLOCK = 48
# k ** 0.5 for every possible series length k, as the scalar series computes it.
_SQRT_COUNT = np.array([k ** 0.5 for k in range(KUMMER_MAX_TERMS + 2)])
_NOT_CONVERGED = f"kummer_m: series not converged within {KUMMER_MAX_TERMS} terms"
# Largest m * peak (m terms of magnitude at most peak) for which no
# partial sum of the exact summation or of fsum can overflow.
_FSUM_SAFE = 2.0 ** 1021


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
        if not np.all(np.isfinite(self.values)):
            raise DomainError("special function value is not finite")
        if np.any(self.est_abs_errors < 0):
            raise DomainError("error estimate must be nonnegative")


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0 and x == math.floor(x)


def kummer_m(a: float, b: float, z: float) -> SpecialValue:
    """Confluent hypergeometric function M(a; b; z) = 1F1(a; b; z).

    For nonpositive integer a the series truncates and the exact
    polynomial is evaluated by Horner's rule.  For z below
    ``KUMMER_SERIES_Z_MIN`` the identity M(a;b;z) = e^z M(b-a;b;-z)
    routes the evaluation through a non-alternating series.
    """
    for name, val in (("a", a), ("b", b), ("z", z)):
        if not math.isfinite(val):
            raise DomainError(f"kummer_m: argument {name} is not finite")
    if _is_nonpositive_integer(b):
        raise DomainError("kummer_m: b must not be a nonpositive integer")
    if _is_nonpositive_integer(a):
        # Terminating series: the polynomial has no argument restriction
        # (beyond overflow, caught by the finiteness contract).
        n = int(-a)
        acc = _kummer_polynomial(n, b, z)
        return SpecialValue(acc, (n + 1) * _EPS * max(1.0, abs(acc)))
    if abs(z) > KUMMER_Z_MAX:
        raise DomainError(f"kummer_m: |z| exceeds supported range {KUMMER_Z_MAX}")
    if z < KUMMER_SERIES_Z_MIN:
        inner = _kummer_series(b - a, b, -z)
        scale = math.exp(z)
        return SpecialValue(scale * inner.value,
                            scale * inner.est_abs_error + _EPS * abs(scale * inner.value))
    return _kummer_series(a, b, z)


def _kummer_polynomial(n: int, b: float, z):
    """M(-n; b; z) for a float z, or elementwise for an ndarray z."""
    # Coefficients c_k = (-n)_k / ((b)_k k!), summed by Horner's rule.
    coeffs = [1.0]
    c = 1.0
    for k in range(n):
        c *= (-n + k) / ((b + k) * (k + 1))
        coeffs.append(c)
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _kummer_series(a: float, b: float, z: float) -> SpecialValue:
    term = 1.0
    terms = [term]
    peak = 1.0
    for k in range(KUMMER_MAX_TERMS):
        term *= (a + k) * z / ((b + k) * (k + 1))
        terms.append(term)
        peak = max(peak, abs(term))
        if abs(term) < 1e-18 * peak and k > 2:
            break
    else:
        raise AccuracyError(_NOT_CONVERGED)
    value = math.fsum(terms)
    # Truncation bound from the last term plus rounding at the series peak.
    est = abs(terms[-1]) + _EPS * peak * len(terms) ** 0.5
    return SpecialValue(value, est)


def kummer_m_grid(a: float, b: float, z: np.ndarray) -> SpecialGrid:
    """``kummer_m`` at every entry of the ndarray z (scalar a and b).

    Same branches, checks and error messages as the scalar routine; the
    |z| range guard rejects the whole grid if any point is outside it.
    """
    z = np.asarray(z, dtype=float)
    for name, val in (("a", a), ("b", b)):
        if not math.isfinite(val):
            raise DomainError(f"kummer_m: argument {name} is not finite")
    if not np.all(np.isfinite(z)):
        raise DomainError("kummer_m: argument z is not finite")
    if _is_nonpositive_integer(b):
        raise DomainError("kummer_m: b must not be a nonpositive integer")
    if _is_nonpositive_integer(a):
        n = int(-a)
        acc = _kummer_polynomial(n, b, z)
        return SpecialGrid(acc, (n + 1) * _EPS * np.maximum(1.0, np.abs(acc)))
    if np.any(np.abs(z) > KUMMER_Z_MAX):
        raise DomainError(f"kummer_m: |z| exceeds supported range {KUMMER_Z_MAX}")
    low = z < KUMMER_SERIES_Z_MIN
    if not low.any():
        return SpecialGrid(*_kummer_series_grid(a, b, z))
    values = np.empty_like(z)
    est = np.empty_like(z)
    inner_value, inner_est = _kummer_series_grid(b - a, b, -z[low])
    scale = exp(z[low])
    values[low] = scale * inner_value
    est[low] = scale * inner_est + _EPS * np.abs(scale * inner_value)
    high = ~low
    values[high], est[high] = _kummer_series_grid(a, b, z[high])
    return SpecialGrid(values, est)


def _kummer_series_grid(a: float, b: float, z: np.ndarray):
    """``_kummer_series`` per point: (values, error estimates) arrays.

    terms[k, i] is term k at point i, built by the scalar recurrence
    term_{k+1} = term_k * ((a+k) z / ((b+k)(k+1))) as a cumulative
    product, block by block for the points that have not stopped.
    Terms past a point's stop are zeroed, which leaves its sum exact.
    """
    n = z.size
    terms = np.empty((KUMMER_MAX_TERMS + 1, n))
    terms[0] = 1.0
    peak = np.ones(n)
    last = np.full(n, KUMMER_MAX_TERMS)   # index of the last term summed
    active = np.arange(n)
    k0 = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while active.size and k0 < KUMMER_MAX_TERMS:
            ks = np.arange(k0, min(k0 + _SERIES_BLOCK, KUMMER_MAX_TERMS))
            factors = (np.multiply.outer(a + ks, z[active])
                       / ((b + ks) * (ks + 1))[:, None])
            factors[0] *= terms[k0, active]
            block = np.cumprod(factors, axis=0)
            size = np.abs(block)
            block_peak = np.fmax(np.fmax.accumulate(size, axis=0), peak[active])
            stops = (size < 1e-18 * block_peak) & (ks > 2)[:, None]
            terms[k0 + 1:k0 + 1 + len(ks), active] = block
            hit = stops.any(axis=0)
            first = stops.argmax(axis=0)
            peak[active] = np.where(hit, block_peak[first, np.arange(active.size)],
                                    block_peak[-1])
            last[active[hit]] = k0 + 1 + first[hit]
            active = active[~hit]
            k0 += len(ks)
    if active.size:
        raise AccuracyError(_NOT_CONVERGED)
    kept = terms[:last.max(initial=0) + 1]
    kept[np.arange(len(kept))[:, None] > last] = 0.0
    # Truncation bound from the last term plus rounding at the series peak.
    est = np.abs(terms[last, np.arange(n)]) + _EPS * peak * _SQRT_COUNT[last + 1]
    return _fsum_columns(kept, peak), est


def _fsum_columns(x: np.ndarray, peak: np.ndarray) -> np.ndarray:
    """``math.fsum`` of every column of the (rows >= 1, points) array x, bit for bit.

    peak[j] must be at least max |x[:, j]|.  A pairwise TwoSum tree
    (Ogita, Rump & Oishi, SIAM J. Sci. Comput. 26 (2005) 1955) turns each
    column into hi plus the exact rounding errors e of its additions, so
    the column sum S equals hi + sum(e) exactly.  res = fl(hi + fl(sum(e)))
    is then the correctly rounded S, which is what fsum returns, whenever
    res's TwoSum remainder r plus the bound 2 m eps sum|e| on the error of
    fl(sum(e)) stays below half the gap from res to its neighbour towards
    zero (the smaller gap).  Zero and subnormal results never pass: half
    their gap rounds to zero.  Every column that fails the test --
    non-finite terms or results, a peak large enough for fsum's partial
    sums to overflow, zeros and near-ties -- is summed by fsum itself,
    which also keeps its exceptions.
    """
    m, n = x.shape
    # err[0] holds every e and err[1] its |e|, so that one reduction
    # gives both sum(e) and sum|e|.
    err = np.empty((2, m - 1, n))
    virtual = np.empty((m // 2, n))
    level, k = x, 0
    with np.errstate(over="ignore", invalid="ignore"):
        while len(level) > 1:
            rows = len(level)
            h = rows // 2
            a, b, e, v = level[:h], level[h:2 * h], err[0, k:k + h], virtual[:h]
            sums = np.empty((h + rows % 2, n))
            if rows % 2:
                sums[h] = level[-1]
            s = np.add(a, b, sums[:h])
            # TwoSum: v = s - a is the part of b that s holds, and
            # e = (a - (s - v)) + (b - v) = a + b - s exactly.
            np.subtract(s, a, v)
            np.subtract(s, v, e)
            np.subtract(a, e, e)
            np.subtract(b, v, v)
            np.add(e, v, e)
            level, k = sums, k + h
        hi = level[0]
        np.abs(err[0], err[1])
        t, bound = err.sum(axis=1)
        bound *= 2 * m * _EPS
        res = hi + t
        v = res - hi
        r = (hi - (res - v)) + (t - v)
        # m * peak bounds every partial sum, here and inside fsum.
        ok = ((np.abs(r) + bound < 0.5 * np.abs(res - np.nextafter(res, 0.0)))
              & (peak < _FSUM_SAFE / m))
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
    return sign_num * sign_den1 * sign_den2 * math.exp(lg_num - lg_den1 - lg_den2)


def assoc_laguerre(degree: float, alpha: float, z: float) -> SpecialValue:
    """Associated Laguerre function L_degree^alpha(z) for real degree.

    Evaluated through L_n^a(z) = binom(n+a, n) * M(-n; a+1; z), with the
    binomial extended to real degree by Gamma-function ratios.
    """
    for name, val in (("degree", degree), ("alpha", alpha), ("z", z)):
        if not math.isfinite(val):
            raise DomainError(f"assoc_laguerre: argument {name} is not finite")
    if _is_nonpositive_integer(alpha + 1.0):
        raise DomainError("assoc_laguerre: alpha+1 must not be a nonpositive integer")
    if _is_nonpositive_integer(degree + 1.0):
        # Gamma(degree+1) pole: the prefactor vanishes identically.
        return SpecialValue(0.0, 0.0)
    prefactor = _laguerre_prefactor(degree, alpha)
    hyp = kummer_m(-degree, alpha + 1.0, z)
    value = prefactor * hyp.value
    est = abs(prefactor) * hyp.est_abs_error + _EPS * abs(value)
    return SpecialValue(value, est)


def assoc_laguerre_grid(degree: float, alpha: float, z: np.ndarray) -> SpecialGrid:
    """``assoc_laguerre`` at every entry of the ndarray z.

    The Gamma-ratio prefactor is computed once per call.
    """
    z = np.asarray(z, dtype=float)
    for name, val in (("degree", degree), ("alpha", alpha)):
        if not math.isfinite(val):
            raise DomainError(f"assoc_laguerre: argument {name} is not finite")
    if not np.all(np.isfinite(z)):
        raise DomainError("assoc_laguerre: argument z is not finite")
    if _is_nonpositive_integer(alpha + 1.0):
        raise DomainError("assoc_laguerre: alpha+1 must not be a nonpositive integer")
    if _is_nonpositive_integer(degree + 1.0):
        return SpecialGrid(np.zeros_like(z), np.zeros_like(z))
    prefactor = _laguerre_prefactor(degree, alpha)
    hyp = kummer_m_grid(-degree, alpha + 1.0, z)
    values = prefactor * hyp.values
    est = abs(prefactor) * hyp.est_abs_errors + _EPS * np.abs(values)
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
