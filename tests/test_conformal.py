import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from jacobistab.conformal import (F_components, conformal_connection,
                                  conformal_curvature, conformal_rescale,
                                  conformal_second_cov, factor_values,
                                  lemma_residuals, reparam_cov)
from jacobistab.errors import DegenerateMetricError
from jacobistab.expressions import scalar_field_from_expr
from jacobistab.geometry import (CurveGeometry, ScalarField, _second_cov, christoffel,
                                 cov_derivative_along, fd_field, riemann)
from jacobistab.systems import SAMPLE_BOXES, builtin_setup, flat_metric, sphere_metric

FLAT = flat_metric(2)
SPHERE = sphere_metric()


E2X = scalar_field_from_expr("exp(2*q1)", 2)
ONE = scalar_field_from_expr("1", 2)


def grad_scalar(metric, f, p):
    """Reference Riemannian gradient components ``g^{ij} d_j f`` ``(..., n)``."""
    p = metric.check_point(p)
    return np.einsum('...ij,...j->...i', metric.g_inv(p), f.grad_components(p))


def sphere_energy_factor(E=2.0):
    # 2(E - cos theta) on the sphere chart
    def df(p):
        out = np.zeros(p.shape)
        out[..., 0] = 2.0 * np.sin(p[..., 0])
        return out

    def d2f(p):
        out = np.zeros(p.shape + (2,))
        out[..., 0, 0] = 2.0 * np.cos(p[..., 0])
        return out

    return ScalarField(value=lambda p: 2.0 * (E - np.cos(p[..., 0])), partials=df,
                       second_partials=d2f)


class TestConformalFactor:
    def test_gradient_of_log_matches_direct(self):
        cf = E2X
        p = np.array([0.3, -0.4])
        want = grad_scalar(FLAT, fd_field(lambda q: np.log(factor_values(cf, q))), p)
        assert np.allclose(F_components(cf, FLAT, p), want, atol=1e-8)

    def test_nonpositive_factor_rejected(self):
        cf = fd_field(lambda p: float(p[0]))
        with pytest.raises(DegenerateMetricError):
            factor_values(cf, [-1.0, 0.0])

    def test_rescale_keeps_derivative_contracts(self):
        rescaled = conformal_rescale(FLAT, E2X)
        p = np.array([0.2, 0.5])
        from jacobistab.numdiff import central_diff
        fd = central_diff(rescaled.g_eval, p, 1e-6)
        assert np.allclose(rescaled.dg(p), fd, atol=1e-7)


class TestConnection:
    def test_unit_factor_reduces_to_base(self):
        p = np.array([1.1, 0.4])
        x, y = np.array([0.3, -0.7]), np.array([1.0, 0.2])
        got = conformal_connection(SPHERE, ONE, p, x, y)
        want = np.einsum('ijk,j,k->i', christoffel(SPHERE, p), x, y)
        assert np.allclose(got, want, atol=1e-12)

    def test_flat_e2x_xx(self):
        x = np.array([1.0, 0.0])
        got = conformal_connection(FLAT, E2X, np.zeros(2), x, x)
        assert got == pytest.approx([1.0, 0.0], abs=1e-12)

    def test_flat_e2x_xy(self):
        got = conformal_connection(FLAT, E2X, np.zeros(2),
                                   np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert got == pytest.approx([0.0, 1.0], abs=1e-12)

    def test_matches_rescaled_christoffel(self):
        cf = sphere_energy_factor()
        rescaled = conformal_rescale(SPHERE, cf)
        rng = np.random.default_rng(6)
        p = rng.uniform([0.7, -1.0], [2.4, 1.0], size=(10, 2))
        xv, yv = rng.standard_normal((2, 10, 2))
        got = conformal_connection(SPHERE, cf, p, xv, yv)
        want = np.einsum('nijk,nj,nk->ni', christoffel(rescaled, p), xv, yv)
        assert np.allclose(got, want, atol=1e-9)


class TestSecondCov:
    def test_unit_factor(self):
        p = np.array([1.2, 0.1])
        x, y, z = np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([0.5, 0.5])
        got = conformal_second_cov(SPHERE, ONE, p, x, y, z)
        want = _second_cov(SPHERE, p, x, y, z)
        assert np.allclose(got, want, atol=1e-9)

    def test_zero_field(self):
        got = conformal_second_cov(FLAT, E2X, np.zeros(2), np.array([1.0, 0.0]),
                                   np.array([0.0, 1.0]), np.zeros(2))
        assert np.allclose(got, 0.0, atol=1e-12)

    def test_flat_e2x_against_direct(self):
        p = np.zeros(2)
        cf = E2X
        rescaled = conformal_rescale(FLAT, cf)
        x = np.array([1.0, 0.0])
        got = conformal_second_cov(FLAT, cf, p, x, x, x)
        want = _second_cov(rescaled, p, x, x, x)
        assert np.allclose(got, want, atol=1e-8)


class TestReparam:
    def _line_curve(self, n=41, tmax=1.0):
        t = np.linspace(0.0, tmax, n)
        pts = np.stack([t, np.zeros_like(t)], axis=1)
        return t, CurveGeometry(FLAT, t, pts, np.tile([1.0, 0.0], (n, 1)))

    def test_unit_factor_identity(self):
        t, curve = self._line_curve(201)
        field = np.stack([np.sin(t), np.cos(t)], axis=1)
        d1, d2, d3 = reparam_cov(curve, np.ones_like(t), field)
        both = cov_derivative_along(curve, field)
        assert np.allclose(d1, both, atol=1e-12)
        assert np.max(np.abs(d2)) < 1e-8
        assert np.allclose(d3, cov_derivative_along(curve, both), atol=1e-12)

    def test_constant_rescale_halves(self):
        t, curve = self._line_curve(201)
        field = np.stack([np.zeros_like(t), np.sin(t)], axis=1)
        d1, _, _ = reparam_cov(curve, 2.0 * np.ones_like(t), field)
        assert np.max(np.abs(d1[:, 1] - 0.5 * np.cos(t))) < 1e-4

    def test_exponential_factor_tangent_acceleration(self):
        t, curve = self._line_curve(401)
        field = np.zeros((401, 2))
        _, d2, _ = reparam_cov(curve, np.exp(t), field)
        want = np.stack([-np.exp(-2 * t), np.zeros_like(t)], axis=1)
        assert np.max(np.abs(d2 - want)) < 1e-4

    def test_vanishing_factor_rejected(self):
        t, curve = self._line_curve(41)
        f = np.linspace(-0.5, 0.5, 41)   # crosses zero
        f[20] = 0.0
        with pytest.raises(DegenerateMetricError, match="degenerate reparametrization"):
            reparam_cov(curve, f, np.zeros((41, 2)))


class TestCurvature:
    def test_constant_factor_reduces_to_base(self):
        p = np.array([1.3, 0.2])
        rng = np.random.default_rng(8)
        xv, yv, zv = rng.standard_normal((3, 2))
        got = conformal_curvature(SPHERE, scalar_field_from_expr("2.5", 2), p, xv, yv, zv)
        want = np.einsum('labc,a,b,c->l', riemann(SPHERE, p), xv, yv, zv)
        assert np.allclose(got, want, atol=1e-9)

    def test_antisymmetry(self):
        x, z = np.array([0.7, 0.1]), np.array([0.2, -0.5])
        out = conformal_curvature(FLAT, E2X, np.array([0.4, 0.6]), x, x, z)
        assert np.max(np.abs(out)) < 1e-12

    def test_flat_e2x_matches_direct(self):
        p = np.zeros(2)
        cf = E2X
        rescaled = conformal_rescale(FLAT, cf)
        x, y = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        got = conformal_curvature(FLAT, cf, p, x, y, x)
        want = np.einsum('labc,a,b,c->l', riemann(rescaled, p), x, y, x)
        assert np.allclose(got, want, atol=1e-10)

    def test_sphere_energy_factor_matches_direct(self):
        cf = sphere_energy_factor()
        rescaled = conformal_rescale(SPHERE, cf)
        rng = np.random.default_rng(9)
        p = rng.uniform([0.7, -1.0], [2.4, 1.0], size=(10, 2))
        xv, yv, zv = rng.standard_normal((3, 10, 2))
        got = conformal_curvature(SPHERE, cf, p, xv, yv, zv)
        want = np.einsum('nlabc,na,nb,nc->nl', riemann(rescaled, p), xv, yv, zv)
        assert np.allclose(got, want, atol=1e-8)


class TestResidualHarness:
    def test_unit_factor_all_tiny(self):
        recs = lemma_residuals(FLAT, ONE, conformal_rescale(FLAT, ONE), n_samples=100, seed=0)
        assert [r["lemma"] for r in recs] == ["lemma1", "lemma2", "lemma3"]
        assert all(r["max_residual"] < 1e-12 for r in recs)
        assert all(r["seed"] == 0 for r in recs)

    def test_flat_e2x_analytic(self):
        recs = lemma_residuals(FLAT, E2X, conformal_rescale(FLAT, E2X), n_samples=100, seed=1)
        assert max(r["max_residual"] for r in recs) < 1e-8

    def test_sphere_energy_factor(self):
        cf = sphere_energy_factor()
        recs = lemma_residuals(SPHERE, cf, conformal_rescale(SPHERE, cf), n_samples=100,
                               seed=1, box=((0.7, -1.0), (2.4, 1.0)))
        assert max(r["max_residual"] for r in recs) < 1e-7

    def test_fault_injection_detected(self):
        # curvature must be nonzero for a sign flip to register
        cf = sphere_energy_factor()
        recs = lemma_residuals(SPHERE, cf, conformal_rescale(SPHERE, cf), n_samples=5, seed=1,
                               box=((0.7, -1.0), (2.4, 1.0)), fault="lemma3-sign")
        by_name = {r["lemma"]: r["max_residual"] for r in recs}
        assert by_name["lemma3"] > 1e-3
        assert by_name["lemma1"] < 1e-8

    def test_nan_second_partials_read_inf(self):
        # a NaN anywhere in a sample's residuals must not be dropped by the max
        cf = ScalarField(value=lambda p: np.exp(p[..., 0]), partials=lambda p: np.stack(
            [np.exp(p[..., 0]), np.zeros(p.shape[:-1])], axis=-1),
            second_partials=lambda p: np.full(p.shape + p.shape[-1:], np.nan))
        recs = lemma_residuals(FLAT, cf, conformal_rescale(FLAT, cf), n_samples=5, seed=1)
        by_name = {r["lemma"]: r["max_residual"] for r in recs}
        assert by_name["lemma1"] == np.inf
        assert by_name["lemma3"] == np.inf

    def test_fd_path_lemma2_takes_the_curve_stencil(self):
        # with FD partials lemma 2 still differentiates along its curves with
        # their 7-point stencils, so it stays at the analytic path's size
        from jacobistab.verify import check_lemma_suite

        results = {r.name: r.value for r in check_lemma_suite()}
        assert results["lemma2-fd"] < 1e-8

    def test_fd_path_differences_h_as_a_whole(self):
        # the direct side of the FD path takes central differences of h = f g
        # itself, so lemma 3 reads their error; h's partials by the product
        # rule would repeat the formulas' algebra and read roundoff (7.8e-15)
        from jacobistab.verify import check_lemma_suite

        results = {r.name: r.value for r in check_lemma_suite(n_samples=20)}
        assert results["lemma1-fd"] > 1e-8 and results["lemma3-fd"] > 1e-8
        assert results["lemma3-analytic"] < 1e-12

    def test_evaluated_as_one_batch(self, monkeypatch):
        # the number of Christoffel evaluations does not grow with the samples,
        # and lemma 2's s-curve reuses the Γ of its t-curve: 9 evaluations in all
        import sys

        from jacobistab import geometry

        calls = []
        orig = geometry.christoffel

        def counting(*args, **kwargs):
            calls.append(1)
            return orig(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name.startswith("jacobistab") and getattr(mod, "christoffel", None) is orig:
                monkeypatch.setattr(mod, "christoffel", counting)
        counts = []
        for n in (5, 50):
            calls.clear()
            lemma_residuals(FLAT, E2X, conformal_rescale(FLAT, E2X), n_samples=n, seed=1)
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0
        assert counts[0] == 9


class TestRescalingProperty:
    """The three rescaling formulas against direct computation in the rescaled
    metric, for random exponential factors, points and vectors."""

    SETUPS = {name: builtin_setup(name) for name in ("flat-free", "sphere-free",
                                                     "hyperbolic-free")}

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(sorted(SETUPS)),
           a=st.floats(-1.0, 1.0), b=st.floats(-1.0, 1.0), c=st.floats(0.5, 2.0),
           unit=hnp.arrays(np.float64, 2, elements=st.floats(0.0, 1.0)),
           xyz=hnp.arrays(np.float64, (3, 2), elements=st.floats(-1.0, 1.0)))
    def test_formulas_match_rescaled_metric(self, name, a, b, c, unit, xyz):
        su = self.SETUPS[name]
        metric = su.system.metric
        lo, hi = (np.asarray(v) for v in SAMPLE_BOXES[su.system.metric.name])
        p = lo + unit * (hi - lo)
        x, y, z = xyz
        cf = scalar_field_from_expr(f"{c!r}*exp({a!r}*q1 + {b!r}*q2)", 2)
        h = conformal_rescale(metric, cf)
        pairs = [
            (conformal_connection(metric, cf, p, x, y),
             np.einsum('ijk,j,k->i', christoffel(h, p), x, y)),
            (conformal_second_cov(metric, cf, p, x, y, z), _second_cov(h, p, x, y, z)),
            (conformal_curvature(metric, cf, p, x, y, z),
             np.einsum('labc,a,b,c->l', riemann(h, p), x, y, z)),
        ]
        for got, want in pairs:
            assert np.max(np.abs(got - want)) <= 1e-7
