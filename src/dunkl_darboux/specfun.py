"""Special functions needed by the closed-form solutions.

Provides the Kummer confluent hypergeometric function M = 1F1, the
associated Laguerre function with real (non-integer) degree, and the
modified Bessel functions I0 and I1.  All routines are self-contained
double-precision evaluations, and each refuses a value that is not
finite with a ``DomainError`` naming the first such z (``_finite``).

``kummer_m_grid`` and ``assoc_laguerre_grid`` take scalar parameters
and an ndarray of arguments and return an ndarray of values;
``assoc_laguerre_grid`` also takes sequences of degrees and alphas and
then returns one row per pair.  ``kummer_m`` is a one-point call of
``kummer_m_grid`` that returns a float, so each branch, check and error
message has one implementation.  ``bessel_i`` is scalar and refuses |z|
from ``BESSEL_SERIES_CUTOFF`` on.

The Kummer series of a point is term_0 = 1, term_{k+1} = term_k (a + k)
z / ((b + k)(k + 1)), and its value is the correctly rounded sum of the
terms up to its stop, which is what ``math.fsum`` returns.  All columns
(one per row and point) are one cumulative product over a (terms x
columns) ratio matrix, built in one block from term 0, and summed by one
error-free extraction (``_fsum_columns``) that hands the columns it
cannot certify to ``math.fsum`` itself.  One scan per stop rule
(``_stop_scan``) then finds each column's stop; the value's is the first
term k > 3 below 1e-18 of the largest term so far.  The block is sized
per call (``_first_block``): each row's series is probed on Python
floats at the call's largest |z|, where it stops last, so the block
holds every column's terms.  A column still open after it (a rounding
tie, a reflected point whose a differs from the far point's, or an
a-derivative that stops after its value) has the call rebuilt once with
every possible term.  Products and running peaks are built one row per
ufunc call on wide blocks and by numpy's accumulate on narrow ones
(``_accumulate``): the same operations in the same order, so the block
size and the loops never change a bit.  A series that has
not met its rules within ``KUMMER_MAX_TERMS`` terms raises
``AccuracyError`` instead of returning a partial sum, and a terminating
polynomial of degree above ``KUMMER_MAX_TERMS`` is refused with a
``DomainError`` before its coefficients are built.

``assoc_laguerre_grid(..., degree_derivative=...)`` also returns
d/d(degree) of the rows it names (True for every row, or one bool per
row), built from the same term matrix: the prefactor contributes
psi(degree + alpha + 1) - psi(degree + 1) (``_digamma_difference``,
DLMF 5.5.2 and 5.11.2), and dM/da of the series (Ancarani & Gasaneo,
J. Math. Phys. 49 (2008) 063508) has term k equal to term_k H_k, H_k =
sum_{j<k} 1/(a + j).  These rows are summed by ``_fsum_columns`` as
the values are, so a grid still equals its one-point calls bit for
bit.  The derivative work (H_k and A_k, ``_harmonic_sums``; the
weighted stop scan; the H_k-weighted sums) runs on the derivative rows'
columns alone: a value row keeps its terms and its value stop, so its
bits and its cost are those of a call without derivatives, and a
derivative row's bits are those of a call that derives every row.
Their stop rule, the scan's second, is the first k > 3 with |term_k|
A_k at most 1e-18 of the largest |term_j| A_j so far, A_k = sum_{j<k}
1/|a + j|: near an integer degree the terms past it are about 1e-16 of
the peak while H_k is about 1e16, so the value's rule would stop the
derivative early.  At an integer degree n, where the value is a
polynomial, the derivative is still a series: its terms past n drop
the vanishing factor a + n and carry the multiplier 1.

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

import numpy as np

from .errors import AccuracyError, DomainError
from .libm import exp

# Direct summation of the 1F1 series alternates for negative arguments
# and loses about |z|/ln 10 digits to cancellation; below this z the
# e^z-prefactor identity reroutes through a same-sign series.
KUMMER_SERIES_Z_MIN = -1.0
KUMMER_Z_MAX = 700.0
KUMMER_MAX_TERMS = 600

# I0/I1 come from their ascending series, which serves |z| below this;
# the only callers, the E = 4 closed forms, pass z = x^2/4.
BESSEL_SERIES_CUTOFF = 18.0

_EPS = 2.2204460492503131e-16
# From this many columns, running products and peaks are built row by
# row (``_accumulate``): numpy's accumulate along axis 0 is a scalar
# loop, slower than one call per row from about 150-250 columns on.
_ROW_LOOP_COLUMNS = 200
# Series index k and k + 1 as floats, and the term index, for every possible term.
_K = np.arange(KUMMER_MAX_TERMS, dtype=float)
_K1 = _K + 1.0
_K_LIST = _K.tolist()      # the probe's k, as Python floats
_TERM_INDEX = np.arange(KUMMER_MAX_TERMS + 1)[:, None]
_NOT_CONVERGED = f"kummer_m: series not converged within {KUMMER_MAX_TERMS} terms"
# Largest m * peak (m terms of magnitude at most peak) for which no
# partial sum of the exact summation or of fsum can overflow.
_FSUM_SAFE = 2.0 ** 1021
# Exponent range of the extraction's sigma in which eps sigma is a
# normal number and sigma + x (|x| < sigma / 4) cannot overflow.
_SIGMA_MIN_EXP = -970
_SIGMA_MAX_EXP = 1023


def _finite(what: str, values, z):
    """values (z's shape, or rows of it), unless one is not finite: then the first such z."""
    bad = ~np.isfinite(values)
    if bad.any():
        at = np.asarray(z)[bad.reshape((-1,) + np.shape(z)).any(axis=0)][0]
        raise DomainError(f"{what} is not finite at z={float(at)}")
    return values


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0 and x == math.floor(x)


def kummer_m(a: float, b: float, z: float) -> float:
    """Confluent hypergeometric function M(a; b; z) = 1F1(a; b; z).

    For nonpositive integer a the series truncates and the exact
    polynomial is evaluated by Horner's rule.  For z below
    ``KUMMER_SERIES_Z_MIN`` the identity M(a;b;z) = e^z M(b-a;b;-z)
    routes the evaluation through a non-alternating series.
    """
    return float(kummer_m_grid(a, b, np.array([z], dtype=float))[0])


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
    with np.errstate(over="ignore", invalid="ignore"):  # _finite refuses inf/NaN
        for c in reversed(coeffs):
            acc = acc * z + c
    return acc


def kummer_m_grid(a: float, b: float, z: np.ndarray) -> np.ndarray:
    """``kummer_m`` at every entry of the ndarray z (scalar a and b).

    The |z| range guard rejects the whole grid if any point is outside it.
    """
    z = np.asarray(z, dtype=float)
    for name, val in (("a", a), ("b", b)):
        if not math.isfinite(val):
            raise DomainError(f"kummer_m: argument {name} is not finite")
    if not np.isfinite(z).all():
        raise DomainError("kummer_m: argument z is not finite")
    return _finite("kummer_m: value", _kummer_rows([a], [b], z)[0], z)


def _kummer_rows(a: list, b: list, z: np.ndarray, da=False):
    """M(a[i]; b[i]; z) for every row i, shape (rows, *z.shape).

    Each row takes its own branch (polynomial or series); the series rows
    are evaluated together, in one call of the series kernel.  da is a
    bool, or a sequence of one per row: the rows it sets are derivative
    rows, and with any of them the result is (values, a-derivatives), one
    a-derivative row per derivative row in row order, from the same
    kernel call (a polynomial's derivative is a series).  With any
    derivative row, z must be at least
    ``KUMMER_SERIES_Z_MIN``, and no derivative row's a may be subnormal.
    z must be finite; the result is not validated.
    """
    derive = [da] * len(a) if isinstance(da, bool) else list(da)
    rows = []      # the values of a polynomial row, None for a series row
    for ai, bi in zip(a, b):
        if _is_nonpositive_integer(bi):
            raise DomainError("kummer_m: b must not be a nonpositive integer")
        rows.append(_kummer_polynomial(int(-ai), bi, z) if _is_nonpositive_integer(ai)
                    else None)
    series = [i for i, row in enumerate(rows) if row is None or derive[i]]
    if series:
        if (np.abs(z) > KUMMER_Z_MAX).any():
            raise DomainError(f"kummer_m: |z| exceeds supported range {KUMMER_Z_MAX}")
        sa = np.array([a[i] for i in series])[:, None]
        sb = np.array([b[i] for i in series])[:, None]
        flat = z.reshape(-1)
        low = flat < KUMMER_SERIES_Z_MIN
        if any(derive):
            sd = np.array([derive[i] for i in series], dtype=bool)
            if low.any():
                raise DomainError(f"kummer_m: the a-derivative needs z >= "
                                  f"{KUMMER_SERIES_Z_MIN:g}")
            if ((sa[sd] != 0.0) & (np.abs(sa[sd]) < np.finfo(float).tiny)).any():  # 1/a overflows
                raise DomainError("kummer_m: the a-derivative refuses a subnormal a")
            values, slopes = _kummer_series_grid(sa, sb, flat, sd)
            slopes = slopes.reshape((np.count_nonzero(sd),) + z.shape)
        else:
            if low.any():
                # M(a; b; z) = e^z M(b - a; b; -z) at the low points.
                sa = np.where(low, sb - sa, sa)
                flat = np.where(low, -flat, flat)
            values = _kummer_series_grid(sa, sb, flat)
            if low.any():
                values[:, low] *= exp(z.reshape(-1)[low])
            if len(series) == len(rows):
                return values.reshape((len(series),) + z.shape)
        for j, i in enumerate(series):
            if rows[i] is None:
                rows[i] = values[j].reshape(z.shape)
    values = np.array(rows).reshape((len(rows),) + z.shape)
    return (values, slopes) if any(derive) else values


def _series_ratios(ks: slice, a, b, z, out=None, removed: bool = False):
    """term_{k+1} / term_k = (a + k) z / ((b + k)(k + 1)) for k in ks, down axis 0.

    Computed in the order of the module docstring's recurrence; a and b
    broadcast against z along the remaining axes.  With removed, a factor
    a + k = 0 (a = -k, a polynomial) is replaced by 1.
    """
    shape = (-1,) + (1,) * max(np.ndim(z), np.ndim(a))
    k = _K[ks].reshape(shape)
    num = k + a
    if removed:
        num = np.where(num == 0.0, 1.0, num)
    out = np.multiply(num, z, out=out)
    out /= (k + b) * _K1[ks].reshape(shape)
    return out


def _accumulate(ufunc, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """ufunc.accumulate(x, axis=0, out=out) for a 2-D x; out may be x.

    From ``_ROW_LOOP_COLUMNS`` columns on, one ufunc call per row
    (out[j] = ufunc(out[j - 1], x[j])): the same operations in the same
    order, so the same bits, and faster than numpy's scalar loop there.
    """
    if x.shape[1] < _ROW_LOOP_COLUMNS:
        return ufunc.accumulate(x, axis=0, out=out)
    out[0] = x[0]
    for j in range(1, len(x)):
        ufunc(out[j - 1], x[j], out=out[j])
    return out


def _series_stop(a: float, b: float, z: float, removed: bool = False) -> int:
    """The value stop of the series of M(a; b; z), or ``KUMMER_MAX_TERMS`` if later.

    The kernel's recurrence (``_series_ratios``, removed as there) and
    value stop rule (``_stop_scan``) on Python floats, which round as
    float64 does.
    """
    term = peak = 1.0
    for k in _K_LIST:
        num = k + a
        if removed and num == 0.0:
            num = 1.0
        term *= num * z / ((k + b) * (k + 1.0))
        mag = term if term >= 0.0 else -term
        if mag > peak:
            peak = mag
        elif k >= 3.0 and mag < peak * 1e-18:
            return int(k) + 1
    return KUMMER_MAX_TERMS


def _first_block(a: np.ndarray, b: np.ndarray, z: np.ndarray, da: bool = False) -> int:
    """Ratios in the first pass's block of ``_kummer_series_grid`` (arguments as there).

    Each row's series is run at the point of largest |z|, with that
    point's a, and the block holds one term past the latest stop, at
    most ``KUMMER_MAX_TERMS`` terms.  For fixed a and b the stop index
    does not decrease as |z| grows (every ratio |term_k / term_j|, j < k,
    grows with |z|), so the block holds every column of a row whose a is
    the same at all points, up to rounding ties.  With da a polynomial's
    series runs on past its degree, as its a-derivative does.  An empty
    grid takes 4, so that the scan has a row for the first possible
    stop, term 4.
    """
    if not z.size:
        return 4
    far = int(np.abs(z).argmax())
    a_far = a[:, min(far, a.shape[1] - 1)].tolist()
    z_far = float(z[far])
    last = max(_series_stop(ai, bi, z_far, da)
               for ai, bi in zip(a_far, b[:, 0].tolist()))
    return min(last + 1, KUMMER_MAX_TERMS)


def _kummer_series_grid(a: np.ndarray, b: np.ndarray, z: np.ndarray, da=None):
    """The Kummer series per column, shape (rows, points).

    Column (i, j) is the series of M(a[i, j]; b[i]; z[j]): a has shape
    (rows, 1) or (rows, points), b (rows, 1), z (points,).  terms[k, c]
    is term k of column c, built by the series recurrence as a
    cumulative product (``_accumulate``) of as many ratios as
    ``_first_block`` gives, or of ``KUMMER_MAX_TERMS`` if a column has
    not met every stop rule it needs within them.  Terms past a column's
    stop are zeroed, which leaves its sum exact.  The block size decides
    only which products are computed, never their values, so a column's
    bits do not depend on it.

    da is None or a bool per row (a of shape (rows, 1)); with any row set
    the result is (values, a-derivatives), the a-derivatives (sums of
    term_k H_k) one row per row set.  H_k, A_k, the derivative stop scan
    and the derivative sums run on those rows' columns alone, so a value
    row costs and rounds as in a call without derivatives.  A derivative
    row whose a is a nonpositive integer has no value of its own: the
    caller takes it from the polynomial.
    """
    rows, n = a.shape[0], z.shape[0]
    size = rows * n
    cols = np.arange(size)
    derived = np.flatnonzero(da) if da is not None else cols[:0]
    # Each column's last term and peak: by the value's stop rule on the
    # columns it scans (valued), and by the derivative's on the
    # derivative rows' columns (dcols).
    last, peak = np.empty(size, dtype=int), np.empty(size)
    valued = cols
    if derived.size:
        ad = a[derived, 0]
        poly = (ad <= 0) & (ad == np.floor(ad))
        if poly.any():      # a polynomial's value is the caller's: term 0 alone, not summed for use
            poly_cols = np.repeat(np.isin(np.arange(rows), derived[poly]), n)
            last[poly_cols], peak[poly_cols] = 0, 1.0
            valued = cols[~poly_cols]
        dcols = np.arange(derived.size * n)
        dlast, dpeak = np.empty_like(dcols), np.empty(dcols.size)
    with np.errstate(over="ignore", invalid="ignore"):
        for count in (_first_block(a, b, z, derived.size > 0), KUMMER_MAX_TERMS):
            terms = np.empty((count + 1, size))
            terms[0] = 1.0
            head = terms[1:]
            _series_ratios(slice(0, count), a, b, z, out=head.reshape(count, rows, n),
                           removed=derived.size > 0)
            _accumulate(np.multiply, head, head)
            mag = np.abs(terms)
            part = mag if valued is cols else mag[:, valued]
            going = _stop_scan(part, last, peak, valued, True)
            if derived.size:
                h_sum, a_sum = _harmonic_sums(ad, poly, count)
                part = (mag.reshape(count + 1, rows, n)[:, derived]
                        * a_sum[:, :, None]).reshape(count + 1, -1)
                going |= _stop_scan(part, dlast, dpeak, dcols, False)
            if not going or count == KUMMER_MAX_TERMS:
                break
        del mag, part       # freed before the sums allocate theirs
        if going:
            raise AccuracyError(_NOT_CONVERGED)
        if derived.size:       # before the terms past each value stop are zeroed
            count = dlast.max(initial=0) + 1
            kept = (terms[:count].reshape(count, rows, n)[:, derived]
                    * h_sum[:count, :, None]).reshape(count, -1)
            np.putmask(kept, _TERM_INDEX[:count] > dlast, 0.0)
            slopes = _fsum_columns(kept, dpeak).reshape(derived.size, n)
    kept = terms[:last.max(initial=0) + 1]
    np.putmask(kept, _TERM_INDEX[:len(kept)] > last, 0.0)
    values = _fsum_columns(kept, peak).reshape(rows, n)
    return (values, slopes) if derived.size else values


def _harmonic_sums(a: np.ndarray, poly: np.ndarray, count: int) -> np.ndarray:
    """(H, A) of the a-derivative's terms 0 to count, each (count + 1, a.size).

    H[k, i] = sum_{j<k} 1/(a[i] + j) and A[k, i] = sum_{j<k} 1/|a[i] +
    j|; past a polynomial's degree n (poly[i], a[i] = -n) both are 1, the
    multiplier its terms carry there.  Each is a running sum, so its first
    rows do not depend on count.
    """
    with np.errstate(divide="ignore"):
        inv = 1.0 / (_K[:count, None] + a)
    sums = np.zeros((2, count + 1, a.size))
    np.cumsum(inv, axis=0, out=sums[0, 1:])
    np.cumsum(np.abs(inv), axis=0, out=sums[1, 1:])
    np.copyto(sums, 1.0, where=_TERM_INDEX[:count + 1] > np.where(poly, -a, np.inf))
    return sums


def _stop_scan(mag: np.ndarray, stop: np.ndarray, top: np.ndarray,
               scanned: np.ndarray, strict: bool) -> bool:
    """One stop rule on the columns scanned; True if any has not stopped.

    mag[k, c] is the magnitude of term k of column scanned[c] (times A_k
    for the derivative rule).  A column stops at its first term k > 3
    below 1e-18 of the largest magnitude so far, its own included
    (strict), or at most that (not strict).  stop and top get that k and
    that largest magnitude; a column that has not stopped gets the last
    term and the largest magnitude up to it.
    """
    running = _accumulate(np.fmax, mag, np.empty_like(mag))
    limit = running[4:] * 1e-18
    stops = mag[4:] < limit if strict else mag[4:] <= limit
    first = stops.argmax(axis=0)
    index = np.arange(len(scanned))
    going = ~stops[first, index]
    first += 4
    first[going] = len(mag) - 1
    stop[scanned] = first
    top[scanned] = running[first, index]
    return going.any()


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
    """binom(degree+alpha, degree) by Gamma-function ratios.

    At a pole of Gamma(degree + 1), where the binomial vanishes, this is
    its degree derivative instead: 1/Gamma(x) has slope (-1)^m m! at
    x = -m.
    """
    try:
        lg_num, sign_num = math.lgamma(degree + alpha + 1.0), _gamma_sign(degree + alpha + 1.0)
        if _is_nonpositive_integer(degree + 1.0):
            m = -(degree + 1.0)
            lg_den1, sign_den1 = -math.lgamma(m + 1.0), (-1.0 if m % 2 else 1.0)
        else:
            lg_den1, sign_den1 = math.lgamma(degree + 1.0), _gamma_sign(degree + 1.0)
        lg_den2, sign_den2 = math.lgamma(alpha + 1.0), _gamma_sign(alpha + 1.0)
    except ValueError as exc:
        raise DomainError(f"assoc_laguerre: Gamma pole in prefactor: {exc}") from exc
    except OverflowError:
        raise DomainError(f"assoc_laguerre: degree {degree:g} is out of range: "
                          f"lgamma overflows in the prefactor") from None
    return sign_num * sign_den1 * sign_den2 * exp(lg_num - lg_den1 - lg_den2)


def _digamma_tail(x: float) -> float:
    """ln x - 1/(2x) - psi(x): the asymptotic series (DLMF 5.11.2) through its x^-14 term."""
    w = 1.0 / (x * x)
    return w * (1 / 12 - w * (1 / 120 - w * (1 / 252 - w * (1 / 240 - w * (
        1 / 132 - w * (691 / 32760 - w / 12))))))


def _digamma_difference(x: float, alpha: float) -> float:
    """psi(x + alpha) - psi(x) for real x and x + alpha off the poles.

    The recurrence psi(x) = psi(x + 1) - 1/x (DLMF 5.5.2) lifts both
    arguments together until both are at least 10, adding 1/x -
    1/(x + alpha) = alpha / (x (x + alpha)) at each step; there the
    asymptotic series (DLMF 5.11.2), through its x^-14 term, is within
    1e-16 of psi.  Taking the difference term by term keeps it accurate
    where the two psi values nearly cancel; it is 0 for alpha = 0.
    """
    total = 0.0
    while min(x, x + alpha) < 10.0:
        total += alpha / (x * (x + alpha))
        x += 1.0
    return (total + math.log1p(alpha / x) + 0.5 * alpha / (x * (x + alpha))
            - (_digamma_tail(x + alpha) - _digamma_tail(x)))


def assoc_laguerre_grid(degree, alpha, z: np.ndarray, degree_derivative=False):
    """Associated Laguerre function L_degree^alpha(z), real degree, at every entry of z.

    Evaluated through L_n^a(z) = binom(n+a, n) * M(-n; a+1; z), with the
    binomial extended to real degree by Gamma-function ratios.  z is an
    ndarray; degree and alpha are floats, or equal-length sequences of
    floats: one row of values per (degree, alpha) pair, shape (rows,
    *z.shape), with the series rows summed in one call of the series
    kernel.  Each row passes the same checks, stage by stage, and the
    Gamma-ratio prefactor is computed once per row.  A call with several
    rows raises the first error any row meets.

    degree_derivative is a bool, or a sequence of one per row.  With any
    row set, the result is a pair of ndarrays: the values and, one row
    per row set, in row order, d/d(degree) of L_degree^alpha, which is
    binom(degree + alpha, degree) [(psi(degree + alpha + 1) -
    psi(degree + 1)) M - dM/da] at a = -degree, b = alpha + 1 (at a
    Gamma(degree + 1) pole, the binomial's slope times M).  z must then
    be at least ``KUMMER_SERIES_Z_MIN``.  The value rows are those of a
    call without derivatives, and each derivative row that of a call that
    derives every row, bit for bit.
    """
    z = np.asarray(z, dtype=float)
    single = np.ndim(degree) == 0
    rows = ([(float(degree), float(alpha))] if single
            else list(zip(map(float, degree), map(float, alpha))))
    derive = ([degree_derivative] * len(rows) if isinstance(degree_derivative, bool)
              else list(degree_derivative))
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
        if derive[i] or not _is_nonpositive_integer(d + 1.0):
            live.append(i)
            prefactors.append(_laguerre_prefactor(d, al))
    derived = np.array([derive[i] for i in live], dtype=bool)
    hyp = _kummer_rows([-rows[i][0] for i in live], [rows[i][1] + 1.0 for i in live], z,
                       derived)
    if derived.any():
        hyp, dhyp = hyp
    shape = (-1,) + (1,) * z.ndim
    scale = np.array(prefactors).reshape(shape)
    with np.errstate(over="ignore", invalid="ignore"):  # _finite refuses inf/NaN
        values = scale * hyp
        if derived.any():
            # Per derivative row: derivative = scale (c_m M + c_da dM/da).
            pole = np.array([_is_nonpositive_integer(rows[i][0] + 1.0) for i in live])
            c_m = np.array([1.0 if p else _digamma_difference(rows[i][0] + 1.0, rows[i][1])
                            for i, p in zip(np.array(live)[derived], pole[derived])])
            c_m = c_m.reshape(shape)
            c_da = np.where(pole[derived], 0.0, -1.0).reshape(shape)
            dvalues = scale[derived] * (c_m * hyp[derived] + c_da * dhyp)
            values[pole] = 0.0
    if len(live) < len(rows):
        live_values = values
        values = np.zeros((len(rows),) + z.shape)
        values[live] = live_values
    values = _finite("assoc_laguerre: value", values[0] if single else values, z)
    if not derived.any():
        return values
    return values, _finite("assoc_laguerre: d/d(degree)", dvalues[0] if single else dvalues, z)


def _gamma_sign(x: float) -> float:
    """Sign of Gamma(x): positive for x > 0, alternating between poles."""
    if x > 0:
        return 1.0
    if x == math.floor(x):
        raise ValueError(f"Gamma pole at {x}")
    return 1.0 if math.floor(x) % 2 == 0 else -1.0


def bessel_i(order: int, z: float) -> float:
    """Modified Bessel function of the first kind, I0 or I1.

    Ascending power series (all terms positive, no cancellation), which
    serves |z| below ``BESSEL_SERIES_CUTOFF``; larger |z| is refused.
    """
    if order not in (0, 1):
        raise DomainError(f"bessel_i: unsupported order {order}")
    if not math.isfinite(z):
        raise DomainError("bessel_i: z is not finite")
    if abs(z) >= BESSEL_SERIES_CUTOFF:
        raise DomainError(f"bessel_i: |z| = {abs(z):g} is out of range: the series "
                          f"serves |z| < BESSEL_SERIES_CUTOFF = {BESSEL_SERIES_CUTOFF:g}")
    x = abs(z)
    q = 0.25 * x * x
    term = (0.5 * x) ** order / math.factorial(order)
    terms = [term]
    k = 0
    while abs(term) > 1e-18 * abs(terms[0]) or k < 4:
        k += 1
        term *= q / (k * (k + order))
        terms.append(term)
    sign = -1.0 if (z < 0 and order == 1) else 1.0
    return _finite("bessel_i: value", sign * math.fsum(terms), z)
