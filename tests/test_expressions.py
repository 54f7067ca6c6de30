import numpy as np
import pytest

from jacobistab.errors import ChartDomainError, ConfigError
from jacobistab.expressions import (compile_expression, metric_from_exprs,
                                    scalar_field_from_expr)


def test_basic_arithmetic_and_caret_power():
    fn = compile_expression("q1^2 + 2*q2 - 1/2", dim=2)
    assert fn([3.0, 4.0]) == pytest.approx(9 + 8 - 0.5)


def test_functions_and_pi():
    fn = compile_expression("sin(pi*q1) + cos(0) + exp(0) + ln(q2)", dim=2)
    assert fn([0.5, np.e]) == pytest.approx(1 + 1 + 1 + 1)


def test_unary_minus_and_nesting():
    fn = compile_expression("-(q1 - q2)^3", dim=2)
    assert fn([1.0, 3.0]) == pytest.approx(8.0)


def test_unknown_variable_rejected():
    with pytest.raises(ConfigError):
        compile_expression("q3 + 1", dim=2)


def test_unknown_function_rejected():
    with pytest.raises(ConfigError):
        compile_expression("tan(q1)", dim=2)


def test_attribute_access_rejected():
    with pytest.raises(ConfigError):
        compile_expression("q1.real", dim=2)


def test_call_injection_rejected():
    with pytest.raises(ConfigError):
        compile_expression("__import__('os')", dim=1)


def test_scalar_field_gradient_by_differences():
    field = scalar_field_from_expr("q1^2 * q2", dim=2)
    g = field.grad_components([2.0, 3.0])
    assert g == pytest.approx([12.0, 4.0], abs=1e-8)


def test_metric_from_exprs_sphere_like():
    metric = metric_from_exprs({(2, 2): "sin(q1)^2"}, dim=2)
    g = metric.g([np.pi / 4, 0.0])
    assert g[0, 0] == pytest.approx(1.0)
    assert g[1, 1] == pytest.approx(0.5)
    assert g[0, 1] == 0.0


def test_metric_from_exprs_symmetric_fill():
    metric = metric_from_exprs({(1, 2): "q1"}, dim=2)
    g = metric.g([0.25, 0.0])
    assert g[0, 1] == g[1, 0] == pytest.approx(0.25)


def test_batch_evaluation_matches_points():
    fn = compile_expression("sin(q1)^2 + q2 / (1 + q1^2) - 2", dim=2)
    pts = np.random.default_rng(0).uniform(-2.0, 2.0, (7, 3, 2))
    out = fn(pts)
    assert out.shape == (7, 3)
    want = np.array([[fn(p) for p in row] for row in pts])
    assert np.array_equal(out, want)


def test_constant_expression_broadcasts_over_batch():
    assert compile_expression("pi / 2", dim=2)(np.zeros((4, 2))).shape == (4,)


@pytest.mark.parametrize("src,point", [
    ("ln(q1)", [0.0]),          # ln of zero
    ("ln(q1)", [-1.0]),         # ln of a negative value
    ("1 / q1", [0.0]),          # division by zero
    ("exp(q1)", [1000.0]),      # overflow
])
def test_undefined_values_raise_domain_error(src, point):
    fn = compile_expression(src, dim=1)
    with pytest.raises(ChartDomainError, match="undefined"):
        fn(point)
    with pytest.raises(ChartDomainError):
        fn(np.array([[0.5], point]))


def test_metric_from_exprs_batch():
    metric = metric_from_exprs({(2, 2): "sin(q1)^2", (1, 2): "0.1*q2"}, dim=2)
    pts = np.array([[0.3, 0.2], [1.1, -0.4]])
    g = metric.g(pts)
    assert g.shape == (2, 2, 2)
    assert np.array_equal(g, np.stack([metric.g(p) for p in pts]))
    assert np.array_equal(g, np.swapaxes(g, -1, -2))
