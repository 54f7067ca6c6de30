import numpy as np
import pytest

from jacobistab.errors import ChartDomainError, DegenerateMetricError
from jacobistab.geometry import (ChartMetric, SampledCurve, ScalarField,
                                 christoffel, conformal_flat_metric,
                                 cov_derivative_along, flat_metric, grad_scalar,
                                 hessian_form, hyperbolic_metric, metric_by_name,
                                 riemann, sphere_metric, validate_metric_at)
from jacobistab.numdiff import central_diff

SPHERE = sphere_metric()
FLAT = flat_metric(2)
HYP = hyperbolic_metric()


def brute_christoffel(metric, p, h=1e-6):
    """Index-by-index oracle from central differences of the components."""
    p = np.asarray(p, dtype=float)
    n = metric.dim
    dg = np.zeros((n, n, n))
    for k in range(n):
        e = np.zeros(n)
        e[k] = h
        dg[k] = (metric.g(p + e) - metric.g(p - e)) / (2 * h)
    ginv = np.linalg.inv(metric.g(p))
    gam = np.zeros((n, n, n))
    for l in range(n):
        for i in range(n):
            for j in range(n):
                acc = 0.0
                for k in range(n):
                    acc += 0.5 * ginv[l, k] * (dg[i, j, k] + dg[j, i, k] - dg[k, i, j])
                gam[l, i, j] = acc
    return gam


class TestChristoffel:
    def test_flat_is_zero(self):
        assert np.all(christoffel(FLAT, [0.3, -1.2]) == 0.0)

    def test_sphere_values(self):
        gam = christoffel(SPHERE, [np.pi / 4, 0.0])
        assert gam[0, 1, 1] == pytest.approx(-0.5, abs=1e-12)
        assert gam[1, 0, 1] == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(gam, brute_christoffel(SPHERE, [np.pi / 4, 0.0]), atol=1e-8)

    def test_conformal_flat_value(self):
        metric = conformal_flat_metric()
        gam = christoffel(metric, [0.0, 0.0])
        assert gam[0, 0, 0] == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(gam, brute_christoffel(metric, [0.0, 0.0]), atol=1e-8)

    def test_torsion_free_exactly(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            p = rng.uniform([0.5, -1.0], [2.5, 1.0])
            gam = christoffel(SPHERE, p)
            assert np.array_equal(gam, np.swapaxes(gam, 1, 2))

    def test_domain_error(self):
        with pytest.raises(ChartDomainError):
            christoffel(SPHERE, [-0.1, 0.0])

    def test_degenerate_metric_error(self):
        bad = ChartMetric(dim=2, g_eval=lambda p: np.zeros((2, 2)))
        with pytest.raises(DegenerateMetricError):
            christoffel(bad, [0.0, 0.0])


class TestRiemann:
    def test_flat_zero(self):
        assert np.max(np.abs(riemann(FLAT, [0.4, 2.0]))) == 0.0

    def test_sphere_sectional_plus_one(self):
        p = np.array([np.pi / 2, 0.0])
        r = riemann(SPHERE, p)
        x = np.array([1.0, 0.0])
        y = np.array([0.0, 1.0])  # unit at the equator
        rxyx = np.einsum('labc,a,b,c->l', r, x, y, x)
        assert SPHERE.inner(p, rxyx, y) == pytest.approx(1.0, abs=1e-10)

    def test_hyperbolic_sectional_minus_one(self):
        p = np.array([0.2, 0.7])
        r = riemann(HYP, p)
        g = HYP.g(p)
        e1 = np.array([1.0, 0.0]) / np.sqrt(g[0, 0])
        e2 = np.array([0.0, 1.0]) / np.sqrt(g[1, 1])
        val = HYP.inner(p, np.einsum('labc,a,b,c->l', r, e1, e2, e1), e2)
        assert val == pytest.approx(-1.0, abs=1e-10)

    def test_antisymmetry_first_two_slots(self):
        rng = np.random.default_rng(2)
        for metric, lo, hi in ((SPHERE, [0.5, -1.0], [2.5, 1.0]),
                               (HYP, [-1.0, 0.5], [1.0, 2.0])):
            p = rng.uniform(lo, hi)
            r = riemann(metric, p)
            assert np.max(np.abs(r + np.swapaxes(r, 1, 2))) < 1e-10

    def test_fd_path_agrees_with_analytic(self):
        stripped = ChartMetric(dim=2, g_eval=SPHERE.g_eval,
                               domain_guard=SPHERE.domain_guard)
        p = [1.1, 0.3]
        assert np.allclose(riemann(stripped, p), riemann(SPHERE, p), atol=1e-4)


def sectional(metric, p, x, y):
    """``K_X(Y) = R(X, Y)X``."""
    return np.einsum('...labc,...a,...b,...c->...l', riemann(metric, p), x, y, x)


class TestSectionalTensor:
    def test_flat_zero(self):
        k = sectional(FLAT, np.zeros(2), np.array([1.0, 2.0]), np.array([0.5, -1.0]))
        assert np.allclose(k, 0.0)

    def test_self_argument_vanishes(self):
        x = np.array([0.3, 0.8])
        assert np.max(np.abs(sectional(SPHERE, np.array([1.0, 0.2]), x, x))) < 1e-12

    def test_sphere_unit_value(self):
        p = np.array([np.pi / 2, 0.0])
        x = np.array([0.0, 1.0])   # d_phi / sin(theta) at the equator
        y = np.array([1.0, 0.0])
        assert SPHERE.inner(p, sectional(SPHERE, p, x, y), y) == pytest.approx(1.0, abs=1e-10)


class TestGradScalar:
    def test_flat_quadratic(self):
        out = grad_scalar(FLAT, lambda p: p[..., 0] ** 2 + p[..., 1] ** 2, [1.0, 2.0])
        assert out == pytest.approx([2.0, 4.0], abs=1e-8)

    def test_constant_is_zero(self):
        out = grad_scalar(SPHERE, lambda p: 3.5, [1.0, 0.5])
        assert np.allclose(out, 0.0, atol=1e-9)

    def test_sphere_cos_theta(self):
        out = grad_scalar(SPHERE, lambda p: np.cos(p[..., 0]), [np.pi / 4, 0.0])
        assert out == pytest.approx([-np.sin(np.pi / 4), 0.0], abs=1e-9)

    def test_duality_with_differential(self):
        field = ScalarField(value=lambda p: np.sin(p[..., 0]) * p[..., 1])
        rng = np.random.default_rng(3)
        for _ in range(10):
            p = rng.uniform([0.5, -1.0], [2.5, 1.0])
            grad = grad_scalar(SPHERE, field, p)
            x = rng.standard_normal(2)
            df_x = field.grad_components(p) @ x
            assert SPHERE.inner(p, grad, x) == pytest.approx(df_x, abs=1e-7)


class TestHessianForm:
    def test_flat_harmonic_identity(self):
        for p in ([0.0, 0.0], [2.0, -1.0]):
            h = hessian_form(FLAT, lambda q: 0.5 * (q[..., 0] ** 2 + q[..., 1] ** 2), p)
            assert np.allclose(h, np.eye(2), atol=1e-7)

    def test_linear_function_zero(self):
        h = hessian_form(FLAT, lambda q: 3.0 * q[..., 0] - q[..., 1], [0.4, 0.9])
        assert np.allclose(h, 0.0, atol=1e-7)

    def test_sphere_cos_theta(self):
        p = [np.pi / 4, 0.0]
        h = hessian_form(SPHERE, lambda q: np.cos(q[..., 0]), p)
        c = np.cos(np.pi / 4)
        want = np.diag([-c, -np.sin(np.pi / 4) ** 2 * c])
        assert np.allclose(h, want, atol=1e-7)

    def test_agrees_with_connection_derivative_of_gradient(self):
        # hessian(f)(X, Y) = <nabla_X grad f, Y>, checked numerically
        field = ScalarField(
            value=lambda p: np.cos(p[..., 0]) * np.cos(p[..., 1]),
            partials=lambda p: np.stack([-np.sin(p[..., 0]) * np.cos(p[..., 1]),
                                         -np.cos(p[..., 0]) * np.sin(p[..., 1])], axis=-1))
        rng = np.random.default_rng(4)
        for _ in range(5):
            p = rng.uniform([0.6, -1.0], [2.4, 1.0])
            h = hessian_form(SPHERE, field, p)
            x = rng.standard_normal(2)
            y = rng.standard_normal(2)
            lhs = x @ h @ y
            # nabla_X grad f = X^k d_k grad f + Γ(X, grad f)
            dgrad = central_diff(lambda q: grad_scalar(SPHERE, field, q), p, 1e-5)
            nab = x @ dgrad + np.einsum('ikm,k,m->i', christoffel(SPHERE, p), x,
                                        grad_scalar(SPHERE, field, p))
            rhs = SPHERE.inner(p, nab, y)
            assert lhs == pytest.approx(rhs, abs=1e-6)
            assert abs(x @ h @ y - y @ h @ x) < 1e-10


class TestCovDerivativeAlong:
    def test_constant_field_straight_line(self):
        t = np.linspace(0.0, 1.0, 51)
        curve = SampledCurve(t, np.stack([t, 0 * t], axis=1),
                             np.tile([1.0, 0.0], (51, 1)))
        field = np.tile([0.7, -0.2], (51, 1))
        out = cov_derivative_along(FLAT, curve, field)
        assert np.max(np.abs(out)) < 1e-12

    def test_plain_derivative_on_flat(self):
        t = np.linspace(0.0, np.pi, 201)
        curve = SampledCurve(t, np.stack([t, 0 * t], axis=1),
                             np.tile([1.0, 0.0], (201, 1)))
        field = np.stack([0 * t, np.sin(t)], axis=1)
        out = cov_derivative_along(FLAT, curve, field)
        assert np.max(np.abs(out[:, 1] - np.cos(t))) < 1e-4
        assert np.max(np.abs(out[:, 0])) < 1e-12

    def test_parallel_field_on_equator(self):
        t = np.linspace(0.0, 2.0, 101)
        pts = np.stack([np.full_like(t, np.pi / 2), t], axis=1)
        curve = SampledCurve(t, pts, np.tile([0.0, 1.0], (101, 1)))
        field = np.tile([1.0, 0.0], (101, 1))   # d_theta along the equator
        out = cov_derivative_along(SPHERE, curve, field)
        assert np.max(np.abs(out)) < 1e-12

    def test_insufficient_samples(self):
        curve = SampledCurve([0.0, 1.0], [[0.0, 0.0], [1.0, 0.0]],
                             [[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="insufficient samples"):
            cov_derivative_along(FLAT, curve, np.zeros((2, 2)))

    def test_metric_compatibility(self):
        # d/dt <V, W> = <DV, W> + <V, DW> up to O(step^2)
        t = np.linspace(0.0, 1.5, 1501)
        pts = np.stack([1.0 + 0.3 * np.sin(t), t], axis=1)
        tans = np.stack([0.3 * np.cos(t), np.ones_like(t)], axis=1)
        curve = SampledCurve(t, pts, tans)
        rng = np.random.default_rng(5)
        a, b = rng.standard_normal((2, 2))
        v = np.stack([np.cos(t) * a[0], np.sin(2 * t) * a[1]], axis=1)
        w = np.stack([np.sin(t) * b[0], np.cos(3 * t) * b[1]], axis=1)
        dv = cov_derivative_along(SPHERE, curve, v)
        dw = cov_derivative_along(SPHERE, curve, w)
        g = np.stack([SPHERE.g(q) for q in pts])
        inner = np.einsum('nij,ni,nj->n', g, v, w)
        lhs = np.gradient(inner, t, edge_order=2)
        rhs = (np.einsum('nij,ni,nj->n', g, dv, w)
               + np.einsum('nij,ni,nj->n', g, v, dw))
        assert np.max(np.abs(lhs - rhs)) < 1e-4


class TestBuiltins:
    @pytest.mark.parametrize("name,point", [
        ("flat", [0.1, 0.2]),
        ("sphere", [1.2, 0.4]),
        ("hyperbolic", [0.0, 1.5]),
        ("conformal-flat", [0.3, -0.2]),
    ])
    def test_contracts_hold(self, name, point):
        metric = metric_by_name(name)
        validate_metric_at(metric, point)

    def test_steep_exact_partials_pass_the_difference_check(self):
        # dg ~ 5e9 here: the differences' truncation error (~1e-5) is far
        # above an absolute 1e-6 but at roundoff relative to the partials
        from jacobistab.expressions import metric_from_exprs

        validate_metric_at(metric_from_exprs({(1, 1): "exp(10*q1)"}, dim=2), [2.0, 0.0])

    def test_wrong_partials_rejected(self):
        sphere = sphere_metric()
        wrong = ChartMetric(dim=2, g_eval=sphere.g_eval, dg_eval=lambda p: 1.01 * sphere.dg(p))
        with pytest.raises(DegenerateMetricError, match="disagree"):
            validate_metric_at(wrong, [1.2, 0.4])

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            metric_by_name("torus")

    def test_curve_validation(self):
        with pytest.raises(ValueError):
            SampledCurve([0.0, 0.0, 1.0], np.zeros((3, 2)), np.zeros((3, 2)))
        with pytest.raises(ValueError):
            SampledCurve([0.0], np.zeros((1, 2)), np.zeros((1, 2)))
