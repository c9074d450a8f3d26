"""Special-function evaluations against independent oracles.

scipy.special is used here as an oracle only; the package itself stays
self-contained.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special as sp

from dunkl_darboux import specfun
from dunkl_darboux.errors import AccuracyError, DomainError, DunklDarbouxError
from dunkl_darboux.specfun import (BESSEL_SERIES_CUTOFF, KUMMER_Z_MAX, _fsum_columns,
                                   assoc_laguerre_grid, bessel_i, kummer_m,
                                   kummer_m_grid)


def _laguerre(degree, alpha, z):
    """L_degree^alpha(z) at a float z: a one-point call of the grid routine."""
    grid = assoc_laguerre_grid(degree, alpha, np.array([z], dtype=float))
    return specfun.SpecialValue(float(grid.values[0]), float(grid.est_abs_errors[0]))


def test_kummer_terminating_series():
    # M(-1; 2; z) = 1 - z/2, exact polynomial
    assert kummer_m(-1.0, 2.0, 1.0).value == pytest.approx(0.5, abs=1e-14)
    assert kummer_m(-2.0, 2.0, 1.0).value == pytest.approx(1.0 - 1.0 + 1.0 / 6.0,
                                                           abs=1e-14)
    assert kummer_m(0.0, 3.0, 7.0).value == 1.0


def test_kummer_against_scipy():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = rng.uniform(-4.0, 4.0)
        b = rng.uniform(0.3, 5.0)
        z = rng.uniform(-30.0, 30.0)
        want = sp.hyp1f1(a, b, z)
        got = kummer_m(a, b, z)
        assert got.value == pytest.approx(want, rel=1e-10, abs=1e-12)
        assert abs(got.value - want) <= max(got.est_abs_error * 1e3, 1e-10 * abs(want))


def test_kummer_reflection_identity():
    a, b, z = 0.25, 1.5, 2.0
    lhs = kummer_m(a, b, z).value
    rhs = math.exp(z) * kummer_m(b - a, b, -z).value
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_kummer_negative_argument_no_cancellation():
    # strongly negative z routes through the exp-prefactor identity
    got = kummer_m(0.7, 2.3, -60.0)
    want = sp.hyp1f1(0.7, 2.3, -60.0)
    assert got.value == pytest.approx(want, rel=1e-9)


def test_kummer_domain_errors():
    with pytest.raises(DomainError):
        kummer_m(1.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        kummer_m(1.0, -3.0, 1.0)
    with pytest.raises(DomainError):
        kummer_m(0.5, 1.0, 1e4)
    with pytest.raises(DomainError):
        kummer_m(math.nan, 1.0, 1.0)


def test_kummer_polynomial_branch_ignores_range_cap():
    # terminating series evaluates at arguments beyond the series cap
    got = kummer_m(-2.0, 2.0, 900.0)
    assert got.value == pytest.approx(1.0 - 900.0 + 900.0**2 / 6.0, rel=1e-13)


def test_laguerre_integer_degree():
    # L_1(z) = 1 - z; L_2^1(1) = 3 - 3 + 1/2
    assert _laguerre(1.0, 0.0, 2.0).value == pytest.approx(-1.0, abs=1e-13)
    assert _laguerre(2.0, 1.0, 1.0).value == pytest.approx(0.5, abs=1e-13)


def test_laguerre_against_scipy_integer():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(0, 6))
        alpha = rng.uniform(0.0, 3.0)
        z = rng.uniform(0.0, 8.0)
        want = sp.eval_genlaguerre(n, alpha, z)
        assert _laguerre(float(n), alpha, z).value == pytest.approx(
            want, rel=1e-10, abs=1e-12)


def test_laguerre_real_degree_gamma_form():
    # oracle: Gamma(d+a+1)/(Gamma(d+1) Gamma(a+1)) * 1F1(-d; a+1; z)
    rng = np.random.default_rng(13)
    for _ in range(30):
        d = rng.uniform(-0.4, 4.0)
        a = rng.uniform(0.0, 3.0)
        z = rng.uniform(0.0, 8.0)
        want = (math.gamma(d + a + 1.0) / (math.gamma(d + 1.0) * math.gamma(a + 1.0))
                * sp.hyp1f1(-d, a + 1.0, z))
        assert _laguerre(d, a, z).value == pytest.approx(want, rel=1e-9,
                                                              abs=1e-12)


def test_laguerre_half_integer_bessel_reduction():
    # L_{1/2}(z) = e^{z/2} [(1 - z) I0(z/2) + z I1(z/2)]
    for z in (0.3, 1.1, 2.7, 6.0):
        want = math.exp(0.5 * z) * ((1.0 - z) * sp.iv(0, 0.5 * z)
                                    + z * sp.iv(1, 0.5 * z))
        assert _laguerre(0.5, 0.0, z).value == pytest.approx(want, rel=1e-11)


def test_laguerre_negative_integer_degree_vanishes():
    # Gamma pole in the prefactor: the function is identically zero
    res = _laguerre(-1.0, 0.5, 1.3)
    assert res.value == 0.0 and res.est_abs_error == 0.0


def test_laguerre_derivative_identity():
    # d/dz L_d^a(z) = -L_{d-1}^{a+1}(z), valid for real degree
    d, a, z, h = 1.7, 0.3, 2.1, 1e-5
    num = (_laguerre(d, a, z + h).value - _laguerre(d, a, z - h).value) / (2 * h)
    assert num == pytest.approx(-_laguerre(d - 1.0, a + 1.0, z).value, rel=1e-8)


def test_bessel_against_scipy():
    for z in (0.0, 0.3, 1.3, 5.0, 17.9):
        for order in (0, 1):
            want = sp.iv(order, z)
            got = bessel_i(order, z)
            assert got.value == pytest.approx(want, rel=1e-12)


def test_bessel_odd_symmetry():
    assert bessel_i(0, -2.0).value == bessel_i(0, 2.0).value
    assert bessel_i(1, -2.0).value == -bessel_i(1, 2.0).value


def test_bessel_derivative_identity():
    # d/dz I0 = I1
    z, h = 1.3, 1e-6
    num = (bessel_i(0, z + h).value - bessel_i(0, z - h).value) / (2 * h)
    assert num == pytest.approx(bessel_i(1, z).value, abs=1e-8)


def test_bessel_domain_errors():
    with pytest.raises(DomainError):
        bessel_i(2, 1.0)
    with pytest.raises(DomainError):
        bessel_i(0, 1e4)
    with pytest.raises(DomainError):
        bessel_i(0, math.inf)
    # the series serves |z| below the cutoff; there is no asymptotic branch
    assert bessel_i(0, 17.999999).value == pytest.approx(sp.iv(0, 17.999999), rel=1e-12)
    for z in (BESSEL_SERIES_CUTOFF, 18.1, 40.0, 250.0, -40.0):
        for order in (0, 1):
            with pytest.raises(DomainError, match="BESSEL_SERIES_CUTOFF = 18"):
                bessel_i(order, z)


def test_error_estimates_are_conservative():
    for a, b, z in ((0.3, 1.2, 4.0), (1.7, 2.2, -8.0)):
        res = kummer_m(a, b, z)
        assert abs(res.value - sp.hyp1f1(a, b, z)) <= 1e3 * res.est_abs_error + 1e-14


# Grid evaluation: every entry must equal the scalar reference route
# below bit for bit.  The reference evaluates one point at a time: the
# Kummer series by its term recurrence, summed by math.fsum, and the
# same branches, checks and error messages as the package.  It shares
# no code with the grid kernel; the public float routines are one-point
# grids and must equal it too.

_EPS = 2.0 ** -52


def _is_nonpositive_integer(x):
    return x <= 0 and x == math.floor(x)


def _reference_series(a, b, z):
    term = 1.0
    terms = [term]
    peak = 1.0
    for k in range(specfun.KUMMER_MAX_TERMS):
        term *= (a + k) * z / ((b + k) * (k + 1))
        terms.append(term)
        peak = max(peak, abs(term))
        if abs(term) < 1e-18 * peak and k > 2:
            break
    else:
        raise AccuracyError(f"kummer_m: series not converged within "
                            f"{specfun.KUMMER_MAX_TERMS} terms")
    # Truncation bound from the last term plus rounding at the series peak.
    return math.fsum(terms), abs(terms[-1]) + _EPS * peak * len(terms) ** 0.5


def _reference_polynomial(n, b, z):
    if n > specfun.KUMMER_MAX_TERMS:
        raise DomainError(f"kummer_m: polynomial degree {n:g} exceeds the limit "
                          f"of {specfun.KUMMER_MAX_TERMS}")
    coeffs = [1.0]
    c = 1.0
    for k in range(n):
        c *= (-n + k) / ((b + k) * (k + 1))
        coeffs.append(c)
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _reference_kummer_m(a, b, z):
    for name, val in (("a", a), ("b", b), ("z", z)):
        if not math.isfinite(val):
            raise DomainError(f"kummer_m: argument {name} is not finite")
    if _is_nonpositive_integer(b):
        raise DomainError("kummer_m: b must not be a nonpositive integer")
    if _is_nonpositive_integer(a):
        n = int(-a)
        acc = _reference_polynomial(n, b, z)
        return specfun.SpecialValue(acc, (n + 1) * _EPS * max(1.0, abs(acc)))
    if abs(z) > KUMMER_Z_MAX:
        raise DomainError(f"kummer_m: |z| exceeds supported range {KUMMER_Z_MAX}")
    if z < specfun.KUMMER_SERIES_Z_MIN:
        value, est = _reference_series(b - a, b, -z)
        scale = math.exp(z)
        return specfun.SpecialValue(scale * value,
                                    scale * est + _EPS * abs(scale * value))
    return specfun.SpecialValue(*_reference_series(a, b, z))


def _reference_assoc_laguerre(degree, alpha, z):
    for name, val in (("degree", degree), ("alpha", alpha), ("z", z)):
        if not math.isfinite(val):
            raise DomainError(f"assoc_laguerre: argument {name} is not finite")
    if _is_nonpositive_integer(alpha + 1.0):
        raise DomainError("assoc_laguerre: alpha+1 must not be a nonpositive integer")
    if _is_nonpositive_integer(degree + 1.0):
        return specfun.SpecialValue(0.0, 0.0)
    prefactor = specfun._laguerre_prefactor(degree, alpha)
    hyp = _reference_kummer_m(-degree, alpha + 1.0, z)
    value = prefactor * hyp.value
    return specfun.SpecialValue(value, abs(prefactor) * hyp.est_abs_error
                                + _EPS * abs(value))


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def _pointwise(fn, p, q, zs):
    results = [fn(p, q, z) for z in zs]
    return [r.value for r in results], [r.est_abs_error for r in results]


def _assert_grid_matches_reference(reference, fn, grid_fn, p, q, zs):
    """grid_fn on zs, and fn at each point, equal the reference route bit for bit."""
    try:
        want = _pointwise(reference, p, q, zs)
    except DunklDarbouxError as exc:
        with pytest.raises(type(exc)) as grid:
            grid_fn(p, q, np.array(zs))
        assert str(grid.value) == str(exc)
        with pytest.raises(type(exc)) as scalar:
            _pointwise(fn, p, q, zs)
        assert str(scalar.value) == str(exc)
        return
    got = grid_fn(p, q, np.array(zs))
    assert _bits(got.values) == _bits(want[0])
    assert _bits(got.est_abs_errors) == _bits(want[1])
    scalar = _pointwise(fn, p, q, zs)
    assert _bits(scalar[0]) == _bits(want[0])
    assert _bits(scalar[1]) == _bits(want[1])


# Arguments cover the series (z >= -1), reflected (z < -1) and polynomial
# (nonpositive integer a) branches; one example in ten adds a point
# outside the |z| range guard, points whose series do not converge in
# their term budget, or puts b (alpha + 1) on a pole.
_ZS = st.lists(st.one_of(st.floats(-60.0, 60.0), st.floats(-1.5, -0.5),
                         st.sampled_from([0.0, -1.0])), min_size=1, max_size=25)


def _rarely(common, rare):
    """common, or in one example of ten the value ``rare``."""
    return st.integers(0, 9).flatmap(lambda k: st.just(rare) if k == 0 else common)


_OUTSIDE = _rarely(_rarely(st.just([]), [KUMMER_Z_MAX + 5.0]), [-650.0, 650.0])


@settings(max_examples=150, deadline=None)
@given(a=st.one_of(st.floats(-20.0, 20.0), st.integers(-12, 0).map(float)),
       b=_rarely(st.floats(0.05, 20.0), -2.0),
       zs=_ZS, outside=_OUTSIDE)
def test_kummer_grid_equals_scalar_bit_for_bit(a, b, zs, outside):
    _assert_grid_matches_reference(_reference_kummer_m, kummer_m, kummer_m_grid,
                                   a, b, zs + outside)


@settings(max_examples=150, deadline=None)
@given(degree=st.one_of(st.floats(-6.0, 16.0), st.integers(-4, 12).map(float)),
       alpha=_rarely(st.floats(-0.95, 6.0), -2.0),
       zs=_ZS, outside=_OUTSIDE)
def test_laguerre_grid_equals_scalar_bit_for_bit(degree, alpha, zs, outside):
    _assert_grid_matches_reference(_reference_assoc_laguerre, _laguerre,
                                   assoc_laguerre_grid, degree, alpha, zs + outside)


@settings(max_examples=150, deadline=None)
@given(degree=st.one_of(st.floats(-6.0, 16.0), st.integers(-4, 12).map(float)),
       alpha=_rarely(st.floats(-0.95, 6.0), -2.0),
       zs=_ZS, outside=_OUTSIDE)
def test_laguerre_rows_equal_single_rows_bit_for_bit(degree, alpha, zs, outside):
    # The pair a closure evaluates together: L_d^a and L_{d-1}^{a+1}
    rows = ((degree, alpha), (degree - 1.0, alpha + 1.0))
    z = np.array(zs + outside)
    singles = []
    for d, al in rows:
        try:
            singles.append(assoc_laguerre_grid(d, al, z))
        except DunklDarbouxError as exc:
            singles.append(exc)
    errors = {str(single) for single in singles if isinstance(single, Exception)}
    if errors:
        with pytest.raises(DunklDarbouxError) as joint:
            assoc_laguerre_grid(*zip(*rows), z)
        assert str(joint.value) in errors
        return
    joint = assoc_laguerre_grid(*zip(*rows), z)
    assert joint.values.shape == joint.est_abs_errors.shape == (2, len(z))
    for i, single in enumerate(singles):
        assert _bits(joint.values[i]) == _bits(single.values)
        assert _bits(joint.est_abs_errors[i]) == _bits(single.est_abs_errors)


@pytest.mark.parametrize("rows", [
    ((2.0, 0.5), (1.0, 1.5)),       # two polynomials
    ((2.5, 0.5), (2.0, 1.5)),       # a series and a polynomial
    ((0.0, 0.5), (-1.0, 1.5)),      # a polynomial and a Gamma-pole zero row
    ((1.3, 0.5), (0.3, 1.5), (-0.7, 2.5)),
])
def test_laguerre_rows_mix_branches(rows):
    z = np.array([-3.0, -1.0, 0.0, 0.4, 7.5])
    joint = assoc_laguerre_grid(*zip(*rows), z)
    for i, (d, al) in enumerate(rows):
        single = assoc_laguerre_grid(d, al, z)
        assert _bits(joint.values[i]) == _bits(single.values)
        assert _bits(joint.est_abs_errors[i]) == _bits(single.est_abs_errors)


@pytest.mark.parametrize("degree", [601.0, 5e149])
def test_polynomial_degree_limit_on_both_paths(degree):
    # refused before any coefficient is built, with the same message
    z = np.array([0.1, 0.5])
    with pytest.raises(DomainError) as scalar:
        _reference_kummer_m(-degree, 1.5, 0.5)
    with pytest.raises(DomainError) as grid:
        kummer_m_grid(-degree, 1.5, z)
    assert str(grid.value) == str(scalar.value)
    assert f"exceeds the limit of {specfun.KUMMER_MAX_TERMS}" in str(scalar.value)
    with pytest.raises(DomainError) as lag_grid:
        assoc_laguerre_grid(degree, 0.0, z)
    assert str(lag_grid.value) == str(scalar.value)
    # the polynomial at the limit is still evaluated, as its series would be
    assert _bits(kummer_m_grid(-600.0, 1.5, z).values) == _bits(
        [_reference_kummer_m(-600.0, 1.5, float(v)).value for v in z])


def test_grid_range_guard_matches_scalar_message():
    zs = np.array([0.5, 2.0, KUMMER_Z_MAX + 1.0])
    with pytest.raises(DomainError) as scalar:
        _reference_kummer_m(0.3, 1.2, float(zs[-1]))
    with pytest.raises(DomainError) as grid:
        kummer_m_grid(0.3, 1.2, zs)
    assert str(grid.value) == str(scalar.value)
    # the terminating polynomial has no range restriction on either path
    assert (kummer_m_grid(-2.0, 1.2, zs).values[-1]
            == _reference_kummer_m(-2.0, 1.2, float(zs[-1])).value)


@pytest.mark.parametrize("zs", [[100.0], [250.0], [390.0], [-250.0],
                                [0.5, 100.0, 3.0, 250.0, -0.3, 390.0]])
def test_grown_term_buffer_equals_reference_bit_for_bit(zs, monkeypatch):
    # Every call starts with room for the first two blocks of terms
    # (81); series at |z| of 100 and more need more and grow the buffer
    # in the continuation blocks.  The first block is forced to 5 terms,
    # then sized by the probe on every grid (it stops at its 80-term cap
    # here).  In the mixed grid only some columns grow, the others stop
    # early.
    real = specfun._room
    for setting in ({"_first_block": lambda a, b, z: 5}, {"_PROBE_POINTS": 1}):
        grown = []

        def spy(terms, count):
            out = real(terms, count)
            grown.append(out is not terms)
            return out

        with monkeypatch.context() as mp:
            mp.setattr(specfun, "_room", spy)
            for name, value in setting.items():
                mp.setattr(specfun, name, value)
            for a, b in ((0.3, 1.5), (-2.7, 0.5), (5.2, 3.25)):
                _assert_grid_matches_reference(_reference_kummer_m, kummer_m,
                                               kummer_m_grid, a, b, zs)
                _assert_grid_matches_reference(_reference_assoc_laguerre, _laguerre,
                                               assoc_laguerre_grid, -a, b - 1.0, zs)
        assert any(grown)


def _kummer_rows_outcome(a, b, z, da):
    """The arrays of ``_kummer_rows`` as bits, or the type and message of its error."""
    try:
        return [_bits(part) for part in specfun._kummer_rows(a, b, z, da)]
    except DunklDarbouxError as exc:
        return type(exc), str(exc)


# Kernel settings that must not change a bit: the first block sized by
# the probe (run on every grid) or forced to 5 terms, with products and
# peaks built row by row everywhere, and the fixed 32-term first block
# with numpy's accumulate everywhere.
_BLOCK_SETTINGS = [
    {"_PROBE_POINTS": 1, "_ROW_LOOP_COLUMNS": 0},
    {"_first_block": lambda a, b, z: 5, "_ROW_LOOP_COLUMNS": 0},
    {"_first_block": lambda a, b, z: 32, "_ROW_LOOP_COLUMNS": 10 ** 9},
]


@settings(max_examples=120, deadline=None)
@given(rows=st.lists(st.tuples(st.one_of(st.floats(-20.0, 20.0),
                                         st.integers(-12, 0).map(float)),
                               st.floats(0.05, 20.0)), min_size=1, max_size=3),
       zs=st.lists(st.one_of(st.floats(-60.0, 60.0), st.floats(-1.5, -0.5),
                             st.floats(-0.01, 0.01)), max_size=25),
       far=st.integers(0, 9).flatmap(lambda k: st.just([]) if k else st.floats(
           300.0, 520.0).flatmap(lambda r: st.sampled_from([[r], [-r]]))),
       da=st.booleans())
def test_first_block_size_changes_no_bit(rows, zs, far, da):
    # Polynomial and series rows, reflected points (z < -1), empty and
    # one-point grids, and one example in ten with a far point (|z| from
    # 300 to 520: the probe stops at its cap, and from about 496 the
    # series does not converge): values, estimates, a-derivative rows
    # and errors are the same under every setting.
    a, b = [list(col) for col in zip(*rows)]
    z = np.array(zs + far)
    outcomes = []
    for setting in _BLOCK_SETTINGS:
        with pytest.MonkeyPatch.context() as mp:
            for name, value in setting.items():
                mp.setattr(specfun, name, value)
            outcomes.append(_kummer_rows_outcome(a, b, z, da))
    assert outcomes[0] == outcomes[1] == outcomes[2]


def test_probe_sizes_the_first_block_to_the_far_column():
    # At |z| = 12 the series of M(0.3; 1.5; z) stops at term 50, so the
    # block holds 51 terms; a one-point call keeps the fixed block, and
    # the block never exceeds the buffer's first two blocks.
    a, b = np.array([[0.3]]), np.array([[1.5]])
    z = np.linspace(0.0, 12.0, 9)
    stop = specfun._series_stop(0.3, 1.5, 12.0)
    assert specfun._first_block(a, b, z) == stop + 1
    assert specfun._first_block(a, b, z[-1:]) == specfun._FIRST_BLOCK
    assert specfun._first_block(a, b, 40.0 * z) == specfun._MAX_FIRST_BLOCK
    # stop is the kernel's own: the columns at and below |z| = 12 stop by it
    mag = np.abs(np.cumprod(np.r_[1.0, specfun._series_ratios(
        slice(0, stop), 0.3, 1.5, 12.0)]))
    running = np.fmax.accumulate(mag)
    assert mag[stop] < 1e-18 * running[stop]
    assert not (mag[4:stop] < 1e-18 * running[4:stop]).any()


def test_unconverged_series_raises_on_both_paths():
    # At |z| ~ 500 the terms are still well above 1e-18 of the peak when
    # the 600-term budget runs out: no partial sum is returned
    for z in (496.0, -650.0):
        with pytest.raises(AccuracyError) as scalar:
            _reference_kummer_m(0.3, 1.5, z)
        with pytest.raises(AccuracyError) as grid:
            kummer_m_grid(0.3, 1.5, np.array([1.0, z]))
        assert str(grid.value) == str(scalar.value)
        assert "not converged" in str(scalar.value)


# Exact column sums: _fsum_columns must equal math.fsum of every column
# bit for bit, exceptions included.

def _fsum_or_error(column):
    try:
        return math.fsum(column)
    except (OverflowError, ValueError) as exc:
        return type(exc)


def _assert_columns_match_fsum(x):
    x = np.asarray(x, dtype=float)
    want = [_fsum_or_error(col) for col in x.T.tolist()]
    errors = [w for w in want if isinstance(w, type)]
    with np.errstate(invalid="ignore"):
        peak = np.abs(x).max(axis=0, initial=0.0)
    if errors:
        with pytest.raises(errors[0]):
            _fsum_columns(x, peak)
        return
    got = _fsum_columns(x, peak)
    assert _bits(got) == _bits(want)


def _tie_columns():
    """Columns whose sum is, or lies just beside, a halfway point."""
    half = 2.0 ** -53
    columns = [[1.0, half, 0.0, 0.0], [1.0, -half, 0.0, 0.0], [1.0, 3 * half, 0.0, 0.0],
               [3.0, half, 0.0, 0.0], [1.0, half, half ** 3, 0.0],
               [0.5, half / 2, -half ** 3, 0.0],
               # just below 1, where the gap to the next float down is half
               # the gap up: the tree's hi + sum(e) is a tie, the sum is not
               [1.0, -half / 2, -half ** 2 / 4, 0.0], [3.0, half * 2, half ** 2 / 8, 0.0]]
    return np.array(columns).T


_FSUM_CASES = {
    # peak 1, sum down to about 1e-14 of it
    "cancellation": np.array([[1.0, -1.0, 0.5, 1.0], [-1.0 + 3e-14, 1.0 - 1e-14, -0.5, -1.0],
                              [1e-30, 2e-30, 7e-15, 1e-14], [0.0, 0.0, 0.0, 0.0]]),
    "magnitudes": np.array([[1e300, 1e-300, -1e300, 1e-300],
                            [1.0, 1e300, 1e-300, -1e-300],
                            [-1e300, -1e300, 1e300, 5e-324]]),
    "exact-zero": np.array([[0.0, -0.0, 1.0, -0.0], [0.0, -0.0, -1.0, 0.0]]),
    "ties": _tie_columns(),
    "subnormal": np.array([[5e-324, -5e-324, 2.0 ** -1030], [5e-324, 1e-323, 2.0 ** -1060]]),
    "inf-nan": np.array([[math.inf, 1.0, math.nan, -math.inf], [1.0, math.inf, 1.0, 2.0]]),
    "one-row": np.array([[1.5, -0.0, 0.0, 2.0 ** -1074, 1e308]]),
    "empty-grid": np.empty((1, 0)),
    "near-max": np.array([[1e308, 1e308], [-1e308, 1e308], [1e308, -1e308]]),
    # peaks on both sides of the extraction's guards: eps sigma just
    # normal or subnormal, sigma + x just finite or overflowing
    "sigma-range": np.array([[2.0 ** -975, 3 * 2.0 ** -968, 2.0 ** 1017, -2.0 ** 1020],
                             [2.0 ** -1020, 2.0 ** -1000, 2.0 ** 960, 2.0 ** 1000],
                             [-2.0 ** -1060, 2.0 ** -1074, -1.0, 2.0 ** 900]]),
}


@pytest.mark.parametrize("name", sorted(_FSUM_CASES))
def test_fsum_columns_explicit_cases(name):
    _assert_columns_match_fsum(_FSUM_CASES[name])


def test_fsum_columns_raises_as_fsum():
    # fsum's intermediate overflow depends on its left-to-right partials:
    # here 1e308 + 1e308 overflows, while the tree adds 1e308 to -1e308
    # and to 0 and never does
    with pytest.raises(OverflowError):
        _fsum_columns(np.array([[1e308], [1e308], [-1e308], [0.0]]), np.array([1e308]))
    with pytest.raises(ValueError):
        _fsum_columns(np.array([[math.inf], [-math.inf]]), np.array([math.inf]))


def _fallbacks(monkeypatch, x):
    """How many columns of x _fsum_columns hands to math.fsum."""
    calls = []
    fsum = math.fsum
    monkeypatch.setattr(specfun.math, "fsum", lambda values: calls.append(1) or fsum(values))
    _fsum_columns(x, np.abs(x).max(axis=0))
    monkeypatch.undo()
    return len(calls)


def test_fsum_columns_certifies_most_and_falls_back_on_the_rest(monkeypatch):
    x = np.random.default_rng(3).standard_normal((40, 200))
    _assert_columns_match_fsum(x)
    # a few columns whose hi + sum(e) is a float tie cannot be certified
    assert _fallbacks(monkeypatch, x) < 20
    assert _fallbacks(monkeypatch, _tie_columns()) > 0


_COLUMN = st.lists(st.one_of(st.floats(-1e300, 1e300), st.floats(-1.0, 1.0),
                             st.sampled_from([0.0, -0.0, 2.0 ** -53, 2.0 ** -1074])),
                   min_size=1, max_size=12)


@settings(max_examples=200, deadline=None)
@given(columns=st.lists(_COLUMN, min_size=1, max_size=8), cancel=st.booleans(),
       rows=st.integers(1, 12))
def test_fsum_columns_equals_fsum_bit_for_bit(columns, cancel, rows):
    x = np.zeros((rows, len(columns)))
    for j, col in enumerate(columns):
        col = col[:rows]
        x[:len(col), j] = col
        if cancel and len(col) < rows:
            # the last row cancels the column's sum up to its rounding
            x[-1, j] = -math.fsum(col)
    _assert_columns_match_fsum(x)
