import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from jacobistab.conformal import conformal_rescale
from jacobistab.errors import ChartDomainError, DegenerateMetricError
from jacobistab.expressions import scalar_field_from_expr
from jacobistab.geometry import (FD_STEP, ChartMetric, CurveGeometry, ScalarField, christoffel,
                                 cov_derivative_along, fd_field, fd_metric, hessian_form,
                                 riemann, validate_metric_at)
from jacobistab.numdiff import central_diff
from jacobistab.systems import (SAMPLE_BOXES, builtin_setup, conformal_flat_metric,
                                flat_metric, hyperbolic_metric, metric_by_name, sphere_metric)

SPHERE = sphere_metric()
FLAT = flat_metric(2)
HYP = hyperbolic_metric()


def grad_scalar(metric, f, p):
    """Reference Riemannian gradient components ``g^{ij} d_j f`` ``(..., n)``."""
    p = metric.check_point(p)
    return np.einsum('...ij,...j->...i', metric.g_inv(p), f.grad_components(p))


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

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_conformal_flat_is_the_rescaled_flat_metric(self, dim):
        # an expression preset with point evaluators, whose tensors are
        # bitwise, sign bits included, those of e^{2 q1} times the flat metric
        metric = conformal_flat_metric(dim)
        ref = conformal_rescale(flat_metric(dim), scalar_field_from_expr("exp(2*q1)", dim))
        assert metric.point is not None
        p = np.random.default_rng(dim).uniform(-3.0, 3.0, (2000, dim))
        for tensor in ("g", "dg", "d2g"):
            assert getattr(metric, tensor)(p).tobytes() == getattr(ref, tensor)(p).tobytes()

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
        bad = ChartMetric(dim=2, g_eval=lambda p: np.zeros((2, 2)),
                          dg_eval=lambda p: np.zeros((2, 2, 2)),
                          d2g_eval=lambda p: np.zeros((2, 2, 2, 2)))
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
        p = [1.1, 0.3]
        assert np.allclose(riemann(fd_metric(SPHERE), p), riemann(SPHERE, p), atol=1e-4)


def sectional(metric, p, x, y):
    """``K_X(Y) = R(X, Y)X``."""
    return np.einsum('...labc,...a,...b,...c->...l', riemann(metric, p), x, y, x)


@pytest.mark.parametrize("name,curvature", [("flat-free", 0.0), ("sphere-free", 1.0),
                                            ("hyperbolic-free", -1.0)])
@settings(max_examples=40, deadline=None)
@given(unit=hnp.arrays(np.float64, 2, elements=st.floats(0.0, 1.0)),
       xy=hnp.arrays(np.float64, (2, 2), elements=st.floats(-1.0, 1.0)))
def test_sectional_curvature_sign_convention(name, curvature, unit, xy):
    # <R(X,Y)X, Y> / (|X|^2 |Y|^2 - <X,Y>^2) at any point of the sample box
    su = builtin_setup(name)
    metric = su.system.metric
    lo, hi = (np.asarray(b) for b in SAMPLE_BOXES[su.system.metric.name])
    p = lo + unit * (hi - lo)
    x, y = xy
    gram = metric.inner(p, x, x) * metric.inner(p, y, y) - metric.inner(p, x, y) ** 2
    assume(gram > 1e-3)
    k = metric.inner(p, sectional(metric, p, x, y), y) / gram
    assert k == pytest.approx(curvature, abs=1e-9)


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
        out = grad_scalar(FLAT, fd_field(lambda p: p[..., 0] ** 2 + p[..., 1] ** 2), [1.0, 2.0])
        assert out == pytest.approx([2.0, 4.0], abs=1e-8)

    def test_constant_is_zero(self):
        out = grad_scalar(SPHERE, fd_field(lambda p: 3.5), [1.0, 0.5])
        assert np.allclose(out, 0.0, atol=1e-9)

    def test_sphere_cos_theta(self):
        out = grad_scalar(SPHERE, fd_field(lambda p: np.cos(p[..., 0])), [np.pi / 4, 0.0])
        assert out == pytest.approx([-np.sin(np.pi / 4), 0.0], abs=1e-9)

    def test_duality_with_differential(self):
        field = fd_field(lambda p: np.sin(p[..., 0]) * p[..., 1])
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
            h = hessian_form(FLAT, scalar_field_from_expr("0.5*(q1^2 + q2^2)", 2), p)
            assert np.allclose(h, np.eye(2), atol=1e-7)

    def test_linear_function_zero(self):
        h = hessian_form(FLAT, scalar_field_from_expr("3*q1 - q2", 2), [0.4, 0.9])
        assert np.allclose(h, 0.0, atol=1e-7)

    def test_sphere_cos_theta(self):
        p = [np.pi / 4, 0.0]
        h = hessian_form(SPHERE, scalar_field_from_expr("cos(q1)", 2), p)
        c = np.cos(np.pi / 4)
        want = np.diag([-c, -np.sin(np.pi / 4) ** 2 * c])
        assert np.allclose(h, want, atol=1e-7)

    def test_agrees_with_connection_derivative_of_gradient(self):
        # hessian(f)(X, Y) = <nabla_X grad f, Y>, checked numerically
        field = ScalarField(
            value=lambda p: np.cos(p[..., 0]) * np.cos(p[..., 1]),
            partials=lambda p: np.stack([-np.sin(p[..., 0]) * np.cos(p[..., 1]),
                                         -np.cos(p[..., 0]) * np.sin(p[..., 1])], axis=-1),
            second_partials=lambda p: np.stack(
                [-np.cos(p[..., 0]) * np.cos(p[..., 1]), np.sin(p[..., 0]) * np.sin(p[..., 1]),
                 np.sin(p[..., 0]) * np.sin(p[..., 1]), -np.cos(p[..., 0]) * np.cos(p[..., 1])],
                axis=-1).reshape(p.shape + (2,)))
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
        curve = CurveGeometry(FLAT, t, np.stack([t, 0 * t], axis=1),
                              np.tile([1.0, 0.0], (51, 1)))
        field = np.tile([0.7, -0.2], (51, 1))
        out = cov_derivative_along(curve, field)
        assert np.max(np.abs(out)) < 1e-12

    def test_plain_derivative_on_flat(self):
        t = np.linspace(0.0, np.pi, 201)
        curve = CurveGeometry(FLAT, t, np.stack([t, 0 * t], axis=1),
                              np.tile([1.0, 0.0], (201, 1)))
        field = np.stack([0 * t, np.sin(t)], axis=1)
        out = cov_derivative_along(curve, field)
        assert np.max(np.abs(out[:, 1] - np.cos(t))) < 1e-4
        assert np.max(np.abs(out[:, 0])) < 1e-12

    def test_parallel_field_on_equator(self):
        t = np.linspace(0.0, 2.0, 101)
        pts = np.stack([np.full_like(t, np.pi / 2), t], axis=1)
        curve = CurveGeometry(SPHERE, t, pts, np.tile([0.0, 1.0], (101, 1)))
        field = np.tile([1.0, 0.0], (101, 1))   # d_theta along the equator
        out = cov_derivative_along(curve, field)
        assert np.max(np.abs(out)) < 1e-12

    def test_insufficient_samples(self):
        curve = CurveGeometry(FLAT, [0.0, 1.0], [[0.0, 0.0], [1.0, 0.0]],
                              [[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="insufficient samples"):
            cov_derivative_along(curve, np.zeros((2, 2)))

    def test_metric_compatibility(self):
        # d/dt <V, W> = <DV, W> + <V, DW> up to O(step^2)
        t = np.linspace(0.0, 1.5, 1501)
        pts = np.stack([1.0 + 0.3 * np.sin(t), t], axis=1)
        tans = np.stack([0.3 * np.cos(t), np.ones_like(t)], axis=1)
        curve = CurveGeometry(SPHERE, t, pts, tans)
        rng = np.random.default_rng(5)
        a, b = rng.standard_normal((2, 2))
        v = np.stack([np.cos(t) * a[0], np.sin(2 * t) * a[1]], axis=1)
        w = np.stack([np.sin(t) * b[0], np.cos(3 * t) * b[1]], axis=1)
        dv = cov_derivative_along(curve, v)
        dw = cov_derivative_along(curve, w)
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
        wrong = ChartMetric(dim=2, g_eval=sphere.g_eval, dg_eval=lambda p: 1.01 * sphere.dg(p),
                            d2g_eval=sphere.d2g_eval)
        with pytest.raises(DegenerateMetricError, match="disagree"):
            validate_metric_at(wrong, [1.2, 0.4])

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            metric_by_name("torus")

    def test_curve_validation(self):
        with pytest.raises(ValueError):
            CurveGeometry(FLAT, [0.0, 0.0, 1.0], np.zeros((3, 2)), np.zeros((3, 2)))
        with pytest.raises(ValueError):
            CurveGeometry(FLAT, [0.0], np.zeros((1, 2)), np.zeros((1, 2)))


def _lemma_factors():
    from jacobistab.verify import LEMMA_FACTORS

    return {key: scalar_field_from_expr(src, 2)
            for key, src in zip(("exp(2*q1)", "harmonic"), LEMMA_FACTORS)}


FD_METRICS = ("flat", "sphere", "hyperbolic", "conformal-flat")


def _relative(fd, exact):
    """Largest difference relative to the largest exact entry (absolute
    below 1), as :func:`validate_metric_at` measures it."""
    return np.max(np.abs(fd - exact)) / max(1.0, np.max(np.abs(exact)))


class TestFiniteDifferenceBuilders:
    """``fd_metric`` and ``fd_field``, the central-difference evaluators of
    the lemma oracle and of opaque callables."""

    def test_partials_are_required(self):
        with pytest.raises(TypeError):
            ChartMetric(2, SPHERE.g_eval)
        with pytest.raises(TypeError):
            ChartMetric(dim=2, g_eval=SPHERE.g_eval, dg_eval=SPHERE.dg_eval)
        with pytest.raises(TypeError):
            ScalarField(lambda p: p[..., 0])
        with pytest.raises(TypeError):
            ScalarField(value=lambda p: p[..., 0], partials=lambda p: np.ones(p.shape))

    @pytest.mark.parametrize("name", FD_METRICS)
    def test_fd_metric_is_central_differences(self, name):
        metric = metric_by_name(name)
        lo, hi = SAMPLE_BOXES.get(name, SAMPLE_BOXES["flat"])
        p = np.random.default_rng(3).uniform(lo, hi, (4, 5, 2))
        fd = fd_metric(metric)
        assert fd.dg(p).tobytes() == central_diff(metric.g, p, FD_STEP).tobytes()
        assert fd.d2g(p).tobytes() == central_diff(
            lambda q: central_diff(metric.g, q, FD_STEP), p, 1e-4).tobytes()
        assert fd.g(p).tobytes() == metric.g(p).tobytes()
        assert np.array_equal(fd.contains(p), metric.contains(p))
        assert fd.name == name + "-fd" and fd.point is None

    @pytest.mark.parametrize("factor", list(_lemma_factors()))
    def test_fd_field_is_central_differences(self, factor):
        cf = _lemma_factors()[factor]
        p = np.random.default_rng(4).uniform(-1.0, 1.0, (4, 5, 2))
        fd = fd_field(cf.value)
        assert fd.grad_components(p).tobytes() == central_diff(cf, p, FD_STEP).tobytes()
        d = central_diff(lambda q: central_diff(cf, q, FD_STEP), p, 1e-4)
        assert fd.hess_components(p).tobytes() == (0.5 * (d + np.swapaxes(d, -1, -2))).tobytes()
        assert fd(p).tobytes() == cf(p).tobytes()

    # Second partials are differences of differences: their roundoff is
    # about eps |f| / (FD_STEP * FD_STEP2).  Over 2,000 uniform points per
    # case the largest relative error was 9.9e-8 (sphere d2g) for metrics
    # and 3.6e-7 (harmonic factor) for factors; first partials 5.5e-10.
    @settings(max_examples=60, deadline=None)
    @given(case=st.sampled_from([("metric", m, m if m in SAMPLE_BOXES else "flat")
                                 for m in FD_METRICS]
                                + [("factor", f, box) for f in ("exp(2*q1)", "harmonic")
                                   for box in sorted(SAMPLE_BOXES)]),
           unit=hnp.arrays(np.float64, 2, elements=st.floats(0.0, 1.0)))
    def test_fd_partials_agree_with_analytic(self, case, unit):
        kind, name, box = case
        lo, hi = (np.asarray(b) for b in SAMPLE_BOXES[box])
        p = lo + unit * (hi - lo)
        if kind == "metric":
            exact = metric_by_name(name)
            fd = fd_metric(exact)
            pairs = ((fd.dg(p), exact.dg(p)), (fd.d2g(p), exact.d2g(p)))
        else:
            exact = _lemma_factors()[name]
            fd = fd_field(exact.value)
            pairs = ((fd.grad_components(p), exact.grad_components(p)),
                     (fd.hess_components(p), exact.hess_components(p)))
        (first, first_exact), (second, second_exact) = pairs
        assert _relative(first, first_exact) < 1e-6
        assert _relative(second, second_exact) < 1e-6
