"""Finite differences, parameter derivatives, and real-line quadrature."""

import math

import numpy as np
import pytest

from dunkl_darboux.errors import AccuracyError, DomainError, EvaluationError
from dunkl_darboux.libm import exp
from dunkl_darboux.numerics import (QuadratureResult, derivative,
                                    integrate_real_line, parameter_derivative,
                                    sampled_derivative, stencil_nodes)


def test_first_derivative():
    assert derivative(math.sin, 0.7, 1) == pytest.approx(math.cos(0.7), abs=1e-10)


def test_second_derivative():
    # roundoff-limited near eps / h^2 at the default step
    assert derivative(math.exp, 0.3, 2) == pytest.approx(math.exp(0.3), abs=1e-6)


def test_derivative_rejects_bad_order_and_step():
    for order in (0, 3):
        with pytest.raises(DomainError):
            derivative(math.sin, 0.0, order)
    with pytest.raises(DomainError):
        derivative(math.sin, 0.0, 1, h=-1.0)


def test_derivative_flags_nonfinite_samples():
    with pytest.raises(EvaluationError):
        derivative(lambda x: math.inf, 1.0, 1)


def test_derivatives_on_ndarray_equal_pointwise_bit_for_bit():
    # the grid form samples f at the stencil nodes of all points at once;
    # libm.exp is elementwise and agrees with math.exp per element
    ys = np.linspace(-2.0, 3.0, 11)
    bits = lambda v: np.asarray(v, dtype=float).view(np.uint64).tolist()
    for order, h in ((1, None), (2, None), (2, 1e-2), (1, 1e-3)):
        grid = sampled_derivative(exp(stencil_nodes(ys, order, h)), ys, order, h)
        assert bits(grid) == bits([derivative(math.exp, float(y), order, h) for y in ys])
    grid = parameter_derivative(lambda eps, y: exp(eps * y), 0.3, ys)
    assert bits(grid) == bits([parameter_derivative(lambda eps, y: math.exp(eps * y), 0.3,
                                                    float(y)) for y in ys])
    nodes = stencil_nodes(ys, 1)
    with pytest.raises(EvaluationError):
        sampled_derivative(np.where(nodes > 1.0, np.inf, nodes), ys, 1)


def test_parameter_derivative_exponential_family():
    got = parameter_derivative(lambda eps, y: math.exp(eps * y), 0.0, 1.0)
    assert got == pytest.approx(1.0, abs=1e-8)


def test_parameter_derivative_polynomial_exact():
    # 4-point stencil is exact on cubics
    got = parameter_derivative(lambda eps, y: eps**3 + 2 * eps * y, 1.5, 0.7)
    assert got == pytest.approx(3 * 1.5**2 + 2 * 0.7, rel=1e-10)


def test_gaussian_integral():
    res = integrate_real_line(lambda x: np.exp(-x * x))
    assert res.value == pytest.approx(math.sqrt(math.pi), abs=1e-9)
    assert res.est_abs_error < 1e-8
    assert res.n_evals > 0


def test_weighted_gaussian_integral():
    # int |x| e^{-x^2} dx = 1
    res = integrate_real_line(lambda x: np.abs(x) * np.exp(-x * x))
    assert res.value == pytest.approx(1.0, abs=1e-9)


def test_integrate_flags_nonfinite():
    with pytest.raises(EvaluationError):
        integrate_real_line(lambda x: np.full_like(x, np.inf))


def test_integrate_nonconvergent_raises_accuracy():
    with pytest.raises(AccuracyError):
        integrate_real_line(lambda x: np.cos(x) / (1.0 + np.abs(x)) ** 0.6)


def test_integrate_refuses_to_truncate_at_the_window_edge():
    # The integral is pi, but the algebraic tail is not negligible at x = 298.
    with pytest.raises(AccuracyError, match="window truncates"):
        integrate_real_line(lambda x: 1.0 / (1.0 + x * x))
    # Smooth, but e^{-298/100} at the window's end is far from negligible.
    with pytest.raises(AccuracyError, match="window truncates"):
        integrate_real_line(lambda x: np.exp(-np.abs(x) / 100.0))


def test_integrate_flags_disagreeing_step_sizes():
    # Oscillation with period 0.006: no step down to 1/1024 resolves it.
    with pytest.raises(AccuracyError, match="did not converge: steps 1/512 and 1/1024"):
        integrate_real_line(lambda x: np.cos(1000.0 * x) * np.exp(-x * x))


def test_integrate_halves_the_step_until_two_steps_agree():
    # A narrow spike that steps 1/32 and 1/64 sample differently; each
    # halving evaluates only the nodes it adds, each node once.
    calls = []

    def spike(x):
        calls.append(x.copy())
        return np.exp(-((x - 3.0) * 40.0) ** 2)

    res = integrate_real_line(spike)
    assert abs(res.value - math.sqrt(math.pi) / 40.0) <= res.est_abs_error <= 1e-13
    sizes = [c.size for c in calls]
    assert sizes[:2] == [2, 768] and len(sizes) > 2
    assert sizes[2:] == [768 * 2 ** k for k in range(len(sizes) - 2)]
    nodes = np.concatenate(calls)
    assert res.n_evals == nodes.size == np.unique(nodes).size


def test_integrate_evaluates_the_far_nodes_first():
    calls = []

    def f(x):
        calls.append(x.copy())
        if np.any(np.abs(x) > 100.0):
            raise DomainError("far tail")
        return np.exp(-x * x)

    with pytest.raises(DomainError, match="far tail"):
        integrate_real_line(f)
    assert len(calls) == 1
    assert calls[0][0] == -calls[0][1] < -297.0 and calls[0].size == 2
    # On success: one more call on all other nodes, each node once,
    # none at 0, mirrored about 0.
    calls.clear()
    res = integrate_real_line(lambda x: calls.append(x.copy()) or np.exp(-x * x))
    assert [c.size for c in calls] == [2, res.n_evals - 2]
    nodes = np.concatenate(calls)
    assert np.unique(nodes).size == nodes.size and not np.any(nodes == 0.0)
    assert sorted(nodes.tolist()) == sorted((-nodes).tolist())


def test_integrate_error_estimate_is_an_upper_bound():
    # Closed forms: int x^2 e^{-x^2} = sqrt(pi)/2, int e^{-x^2/8} = sqrt(8 pi),
    # int |x|^3 e^{-x^2} = 1.
    cases = ((lambda x: x * x * np.exp(-x * x), math.sqrt(math.pi) / 2),
             (lambda x: np.exp(-x * x / 8.0), math.sqrt(8.0 * math.pi)),
             (lambda x: np.abs(x) ** 3 * np.exp(-x * x), 1.0))
    for f, exact in cases:
        res = integrate_real_line(f)
        assert abs(res.value - exact) <= res.est_abs_error <= 1e-12 * exact


def test_quadrature_result_validation():
    with pytest.raises(DomainError):
        QuadratureResult(1.0, -1.0, 10)
    with pytest.raises(DomainError):
        QuadratureResult(1.0, 0.0, 0)
