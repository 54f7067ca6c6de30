import numpy as np
import pytest

from jacobistab.conformal import (ConformalFactor, conformal_connection,
                                  conformal_curvature, conformal_rescale,
                                  conformal_second_cov, constant_factor,
                                  lemma_residuals, reparam_cov)
from jacobistab.errors import DegenerateMetricError
from jacobistab.geometry import (SampledCurve, _second_cov, christoffel, flat_metric,
                                 grad_scalar, riemann, sphere_metric)

FLAT = flat_metric(2)
SPHERE = sphere_metric()


def exp2x_factor():
    def f(p):
        return np.exp(2.0 * p[..., 0])

    def df(p):
        out = np.zeros(p.shape)
        out[..., 0] = 2.0 * np.exp(2.0 * p[..., 0])
        return out

    def d2f(p):
        out = np.zeros(p.shape + p.shape[-1:])
        out[..., 0, 0] = 4.0 * np.exp(2.0 * p[..., 0])
        return out

    return ConformalFactor(f=f, df=df, d2f=d2f)


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

    return ConformalFactor(f=lambda p: 2.0 * (E - np.cos(p[..., 0])), df=df, d2f=d2f)


class TestConformalFactor:
    def test_gradient_of_log_matches_direct(self):
        cf = exp2x_factor()
        p = np.array([0.3, -0.4])
        want = grad_scalar(FLAT, lambda q: np.log(cf.value(q)), p)
        assert np.allclose(cf.F_components(FLAT, p), want, atol=1e-8)

    def test_nonpositive_factor_rejected(self):
        cf = ConformalFactor(f=lambda p: float(p[0]))
        with pytest.raises(DegenerateMetricError):
            cf.value([-1.0, 0.0])

    def test_rescale_keeps_derivative_contracts(self):
        rescaled = conformal_rescale(FLAT, exp2x_factor())
        p = np.array([0.2, 0.5])
        from jacobistab.numdiff import central_diff
        fd = central_diff(rescaled.g_eval, p, 1e-6)
        assert np.allclose(rescaled.dg(p), fd, atol=1e-7)


class TestConnection:
    def test_unit_factor_reduces_to_base(self):
        p = np.array([1.1, 0.4])
        x, y = np.array([0.3, -0.7]), np.array([1.0, 0.2])
        got = conformal_connection(SPHERE, constant_factor(1.0), p, x, y)
        want = np.einsum('ijk,j,k->i', christoffel(SPHERE, p), x, y)
        assert np.allclose(got, want, atol=1e-12)

    def test_flat_e2x_xx(self):
        x = np.array([1.0, 0.0])
        got = conformal_connection(FLAT, exp2x_factor(), np.zeros(2), x, x)
        assert got == pytest.approx([1.0, 0.0], abs=1e-12)

    def test_flat_e2x_xy(self):
        got = conformal_connection(FLAT, exp2x_factor(), np.zeros(2),
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
        got = conformal_second_cov(SPHERE, constant_factor(1.0), p, x, y, z)
        want = _second_cov(SPHERE, p, x, y, z)
        assert np.allclose(got, want, atol=1e-9)

    def test_zero_field(self):
        got = conformal_second_cov(FLAT, exp2x_factor(), np.zeros(2), np.array([1.0, 0.0]),
                                   np.array([0.0, 1.0]), np.zeros(2))
        assert np.allclose(got, 0.0, atol=1e-12)

    def test_flat_e2x_against_direct(self):
        p = np.zeros(2)
        cf = exp2x_factor()
        rescaled = conformal_rescale(FLAT, cf)
        x = np.array([1.0, 0.0])
        got = conformal_second_cov(FLAT, cf, p, x, x, x)
        want = _second_cov(rescaled, p, x, x, x)
        assert np.allclose(got, want, atol=1e-8)


class TestReparam:
    def _line_curve(self, n=41, tmax=1.0):
        t = np.linspace(0.0, tmax, n)
        pts = np.stack([t, np.zeros_like(t)], axis=1)
        return t, SampledCurve(t, pts, np.tile([1.0, 0.0], (n, 1)))

    def test_unit_factor_identity(self):
        t, curve = self._line_curve(201)
        field = np.stack([np.sin(t), np.cos(t)], axis=1)
        d1, d2, d3 = reparam_cov(FLAT, np.ones_like(t), curve, field)
        from jacobistab.geometry import cov_derivative_along
        both = cov_derivative_along(FLAT, curve, field)
        assert np.allclose(d1, both, atol=1e-12)
        assert np.max(np.abs(d2)) < 1e-8
        assert np.allclose(d3, cov_derivative_along(FLAT, curve, both), atol=1e-12)

    def test_constant_rescale_halves(self):
        t, curve = self._line_curve(201)
        field = np.stack([np.zeros_like(t), np.sin(t)], axis=1)
        d1, _, _ = reparam_cov(FLAT, 2.0 * np.ones_like(t), curve, field)
        assert np.max(np.abs(d1[:, 1] - 0.5 * np.cos(t))) < 1e-4

    def test_exponential_factor_tangent_acceleration(self):
        t, curve = self._line_curve(401)
        field = np.zeros((401, 2))
        _, d2, _ = reparam_cov(FLAT, np.exp(t), curve, field)
        want = np.stack([-np.exp(-2 * t), np.zeros_like(t)], axis=1)
        assert np.max(np.abs(d2 - want)) < 1e-4

    def test_vanishing_factor_rejected(self):
        t, curve = self._line_curve(41)
        f = np.linspace(-0.5, 0.5, 41)   # crosses zero
        f[20] = 0.0
        with pytest.raises(DegenerateMetricError, match="degenerate reparametrization"):
            reparam_cov(FLAT, f, curve, np.zeros((41, 2)))


class TestCurvature:
    def test_constant_factor_reduces_to_base(self):
        p = np.array([1.3, 0.2])
        rng = np.random.default_rng(8)
        xv, yv, zv = rng.standard_normal((3, 2))
        got = conformal_curvature(SPHERE, constant_factor(2.5), p, xv, yv, zv)
        want = np.einsum('labc,a,b,c->l', riemann(SPHERE, p), xv, yv, zv)
        assert np.allclose(got, want, atol=1e-9)

    def test_antisymmetry(self):
        x, z = np.array([0.7, 0.1]), np.array([0.2, -0.5])
        out = conformal_curvature(FLAT, exp2x_factor(), np.array([0.4, 0.6]), x, x, z)
        assert np.max(np.abs(out)) < 1e-12

    def test_flat_e2x_matches_direct(self):
        p = np.zeros(2)
        cf = exp2x_factor()
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
        recs = lemma_residuals(FLAT, constant_factor(1.0), n_samples=100, seed=0)
        assert [r["lemma"] for r in recs] == ["lemma1", "lemma2", "lemma3"]
        assert all(r["max_residual"] < 1e-12 for r in recs)
        assert all(r["seed"] == 0 for r in recs)

    def test_flat_e2x_analytic(self):
        recs = lemma_residuals(FLAT, exp2x_factor(), n_samples=100, seed=1)
        assert max(r["max_residual"] for r in recs) < 1e-8

    def test_sphere_energy_factor(self):
        recs = lemma_residuals(SPHERE, sphere_energy_factor(), n_samples=100,
                               seed=1, box=((0.7, -1.0), (2.4, 1.0)))
        assert max(r["max_residual"] for r in recs) < 1e-7

    def test_fault_injection_detected(self):
        # curvature must be nonzero for a sign flip to register
        recs = lemma_residuals(SPHERE, sphere_energy_factor(), n_samples=5, seed=1,
                               box=((0.7, -1.0), (2.4, 1.0)), fault="lemma3-sign")
        by_name = {r["lemma"]: r["max_residual"] for r in recs}
        assert by_name["lemma3"] > 1e-3
        assert by_name["lemma1"] < 1e-8

    def test_nan_second_partials_read_inf(self):
        # a NaN anywhere in a sample's residuals must not be dropped by the max
        cf = ConformalFactor(f=lambda p: np.exp(p[..., 0]), df=lambda p: np.stack(
            [np.exp(p[..., 0]), np.zeros(p.shape[:-1])], axis=-1),
            d2f=lambda p: np.full(p.shape + p.shape[-1:], np.nan))
        recs = lemma_residuals(FLAT, cf, n_samples=5, seed=1)
        by_name = {r["lemma"]: r["max_residual"] for r in recs}
        assert by_name["lemma1"] == np.inf
        assert by_name["lemma3"] == np.inf

    def test_evaluated_as_one_batch(self, monkeypatch):
        # the number of Christoffel evaluations does not grow with the samples
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
            lemma_residuals(FLAT, exp2x_factor(), n_samples=n, seed=1)
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0
