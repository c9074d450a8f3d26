"""Finite differences, parameter derivatives, and real-line quadrature."""

import math

import numpy as np
import pytest

from dunkl_darboux.errors import AccuracyError, DomainError, EvaluationError
from dunkl_darboux.libm import exp
from dunkl_darboux.numerics import (QuadratureResult, derivative,
                                    integrate_real_line, parameter_derivative)


def test_first_derivative():
    assert derivative(math.sin, 0.7, 1) == pytest.approx(math.cos(0.7), abs=1e-10)


def test_second_derivative():
    # roundoff-limited near eps / h^2 at the default step
    assert derivative(math.exp, 0.3, 2) == pytest.approx(math.exp(0.3), abs=1e-6)


def test_third_derivative():
    # d^3/dx^3 sin x at 0 is -1
    assert derivative(math.sin, 0.0, 3, 1e-2) == pytest.approx(-1.0, abs=1e-6)


def test_derivative_rejects_bad_order_and_step():
    with pytest.raises(DomainError):
        derivative(math.sin, 0.0, 4)
    with pytest.raises(DomainError):
        derivative(math.sin, 0.0, 1, h=-1.0)


def test_derivative_flags_nonfinite_samples():
    with pytest.raises(EvaluationError):
        derivative(lambda x: math.inf, 1.0, 1)


def test_derivatives_on_ndarray_equal_pointwise_bit_for_bit():
    # f must be elementwise: libm.exp is, and agrees with math.exp per element
    ys = np.linspace(-2.0, 3.0, 11)
    bits = lambda v: np.asarray(v, dtype=float).view(np.uint64).tolist()
    for order, h in ((1, None), (2, None), (3, 1e-2), (1, 1e-3)):
        grid = derivative(exp, ys, order, h)
        assert bits(grid) == bits([derivative(math.exp, float(y), order, h) for y in ys])
    grid = parameter_derivative(lambda eps, y: exp(eps * y), 0.3, ys)
    assert bits(grid) == bits([parameter_derivative(lambda eps, y: math.exp(eps * y), 0.3,
                                                    float(y)) for y in ys])
    with pytest.raises(EvaluationError):
        derivative(lambda y: np.where(y > 1.0, np.inf, y), ys, 1)


def test_parameter_derivative_exponential_family():
    got = parameter_derivative(lambda eps, y: math.exp(eps * y), 0.0, 1.0)
    assert got == pytest.approx(1.0, abs=1e-8)


def test_parameter_derivative_polynomial_exact():
    # 4-point stencil is exact on cubics
    got = parameter_derivative(lambda eps, y: eps**3 + 2 * eps * y, 1.5, 0.7)
    assert got == pytest.approx(3 * 1.5**2 + 2 * 0.7, rel=1e-10)


def test_gaussian_integral():
    res = integrate_real_line(lambda x: math.exp(-x * x))
    assert res.value == pytest.approx(math.sqrt(math.pi), abs=1e-9)
    assert res.est_abs_error < 1e-8
    assert res.n_evals > 0


def test_weighted_gaussian_integral():
    # int |x| e^{-x^2} dx = 1
    res = integrate_real_line(lambda x: abs(x) * math.exp(-x * x))
    assert res.value == pytest.approx(1.0, abs=1e-9)


def test_integrate_flags_nonfinite():
    with pytest.raises(EvaluationError):
        integrate_real_line(lambda x: math.inf)


def test_integrate_nonconvergent_raises_accuracy():
    with pytest.raises(AccuracyError):
        integrate_real_line(lambda x: math.cos(x) / (1.0 + abs(x)) ** 0.6)


def test_quadrature_result_validation():
    with pytest.raises(DomainError):
        QuadratureResult(1.0, -1.0, 10)
    with pytest.raises(DomainError):
        QuadratureResult(1.0, 0.0, 0)
