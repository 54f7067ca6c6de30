import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jacobistab.errors import ChartDomainError, ConfigError
from jacobistab.expressions import (compile_expression, metric_from_exprs,
                                    scalar_field_from_expr)
from jacobistab.geometry import sphere_metric


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


def test_scalar_field_gradient_is_exact():
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


# -- exact partials ------------------------------------------------------------

def _grammar():
    """Random expressions of the config grammar over q1, q2."""
    leaves = st.sampled_from(["q1", "q2", "2", "0.5", "3", "pi"])

    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from("+-*/"), inner).map(
                lambda t: f"({t[0]} {t[1]} {t[2]})"),
            st.tuples(inner, st.sampled_from(["2", "3", "0.5", "-1"])).map(
                lambda t: f"({t[0]})^{t[1]}"),
            st.tuples(inner, inner).map(lambda t: f"({t[0]})^({t[1]})"),
            st.tuples(st.sampled_from(["sin", "cos", "exp", "ln"]), inner).map(
                lambda t: f"{t[0]}({t[1]})"),
            inner.map(lambda e: f"-({e})"),
        )

    return st.recursive(leaves, extend, max_leaves=6)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(src=_grammar(), point=st.tuples(st.floats(0.3, 1.5), st.floats(0.3, 1.5)))
def test_partials_match_sympy(src, point):
    sp = pytest.importorskip("sympy")
    field = scalar_field_from_expr(src, dim=2)
    p = np.array(point)
    try:
        field(p)
        grad = field.grad_components(p)
        hess = field.hess_components(p)
    except ChartDomainError:
        assume(False)
    q = sp.symbols("q1 q2")
    expr = sp.sympify(src.replace("^", "**"),
                      locals={"ln": sp.log, "pi": sp.pi, "q1": q[0], "q2": q[1]})
    at = dict(zip(q, point))

    def exact(e):
        value = complex(e.subs(at).evalf(30))
        assume(value.imag == 0.0)
        return value.real

    for k in range(2):
        want = exact(sp.diff(expr, q[k]))
        assert grad[k] == pytest.approx(want, rel=1e-9, abs=1e-9)
        for l in range(2):
            want = exact(sp.diff(expr, q[k], q[l]))
            assert hess[k, l] == pytest.approx(want, rel=1e-8, abs=1e-8)
    assert np.array_equal(hess, hess.T)


def test_custom_sphere_partials_equal_builtin():
    custom = metric_from_exprs({(2, 2): "sin(q1)^2"}, dim=2)
    builtin = sphere_metric()
    pts = np.random.default_rng(1).uniform(0.2, 2.9, (9, 2))
    assert np.allclose(custom.dg(pts), builtin.dg(pts), rtol=0.0, atol=1e-15)
    assert np.allclose(custom.d2g(pts), builtin.d2g(pts), rtol=0.0, atol=1e-15)


def test_zero_partials_are_never_emitted():
    # only the cells of nonzero partials hold a compiled entry
    field = scalar_field_from_expr("q1^2 + 3 + q1 - q1", dim=3)
    assert [cells for _, cells in field.partials.entries] == [((0,),)]
    assert [cells for _, cells in field.second_partials.entries] == [((0, 0),)]
    metric = metric_from_exprs({(2, 2): "sin(q1)^2", (1, 2): "0.1*q2"}, dim=2)
    assert sorted(c for _, cells in metric.dg_eval.entries for c in cells) == [
        (0, 1, 1), (1, 0, 1), (1, 1, 0)]
    assert [cells for _, cells in metric.d2g_eval.entries] == [((0, 0, 1, 1),)]
    # a constant has no partials to evaluate: zeros of the contracted shapes
    const = scalar_field_from_expr("pi / 2", dim=2)
    assert const.partials.entries == const.second_partials.entries == ()
    assert np.array_equal(const.hess_components(np.ones((4, 2))), np.zeros((4, 2, 2)))


def test_mixed_partials_share_one_entry():
    field = scalar_field_from_expr("sin(q1*q2) + q3^3*q1", dim=3)
    cells = {c: i for i, (_, cs) in enumerate(field.second_partials.entries) for c in cs}
    assert cells[(0, 1)] == cells[(1, 0)] and cells[(0, 2)] == cells[(2, 0)]
    hess = field.hess_components(np.array([[0.3, -1.2, 0.7], [1.1, 0.4, -0.2]]))
    assert np.array_equal(hess, np.swapaxes(hess, -1, -2))


@pytest.mark.parametrize("src, point, tensor", [
    ("q1^0.5", [0.0], "partials"),              # 0.5 q1^-0.5 at 0
    ("ln(q1)", [1e-310], "partials"),           # 1/q1 overflows
    ("ln(q1)", [1e-200], "second_partials"),    # -1/q1^2 overflows
])
def test_partial_undefined_where_value_defined(src, point, tensor):
    field = scalar_field_from_expr(src, dim=1)
    assert np.isfinite(field(point))
    with pytest.raises(ChartDomainError, match="undefined"):
        getattr(field, tensor)(np.array(point))
