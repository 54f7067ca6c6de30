"""The batched evaluator contract: one evaluation over a point batch
``(N, n)`` equals N single-point ``(n,)`` evaluations, the batched
curvature keeps its algebraic identities, the batched path lays its
arrays out sample-fastest without changing a bit on n = 2, the
connection and tidal matrices along a curve keep the identities of Γ and
R, and the batched conformal rescaling formulas agree with direct
computation in the rescaled metric."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from jacobistab.conformal import (conformal_connection, conformal_curvature,
                                  conformal_rescale, conformal_second_cov)
from jacobistab import geometry
from jacobistab.dynamics import CurveGeometry, brute_force_deviation, integrate_newton
from jacobistab.expressions import metric_from_exprs, scalar_field_from_expr
from jacobistab.geometry import (_apply, _second_cov, christoffel, christoffel_partials,
                                 riemann)
from jacobistab.jacobi import jacobi_metric
from jacobistab.systems import SAMPLE_BOXES, all_setups, builtin_setup, metric_by_name
from jacobistab.verify import LEMMA_FACTORS

BOXES = {
    "flat": ((-1.0, -1.0), (1.0, 1.0)),
    "sphere": ((0.4, -1.0), (2.7, 1.0)),
    "hyperbolic": ((-1.0, 0.4), (1.0, 2.0)),
    "conformal-flat": ((-1.0, -1.0), (1.0, 1.0)),
}

# a three-dimensional chart with an off-diagonal entry; its partials and
# curvature come from finite differences of the compiled expressions
CHART3 = metric_from_exprs({(1, 1): "1 + 0.1*sin(q2)^2", (2, 2): "1 + 0.05*q1^2",
                            (3, 3): "1 + 0.3*sin(q1)^2", (1, 3): "0.05*cos(q2)"}, dim=3)

CASES = ([(f"metric:{name}", metric_by_name(name), BOXES[name]) for name in BOXES]
         + [(f"jacobi:{su.name}", jacobi_metric(su.system, su.system.energy(su.q0, su.v0)).h,
             SAMPLE_BOXES[su.system.metric.name]) for su in all_setups()]
         + [("expressions:chart3", CHART3, ((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0)))])

SETTINGS = settings(max_examples=15, deadline=None)


def unit_batches(dim):
    """Batches of 1..5 points in the unit cube (``_points`` maps them onto a
    case's box)."""
    return st.integers(1, 5).flatmap(lambda n: hnp.arrays(
        np.float64, (n, dim), elements=st.floats(0.0, 1.0)))


def _points(metric, box, unit):
    lo, hi = (np.asarray(b, dtype=float) for b in box)
    pts = lo + unit * (hi - lo)
    pts = pts[metric.contains(pts)]
    assume(len(pts) > 0)
    return pts


def _close(batched, single, rel=1e-13):
    scale = max(1.0, float(np.max(np.abs(single))))
    return float(np.max(np.abs(batched - single))) <= rel * scale


@pytest.mark.parametrize("label,metric,box", CASES, ids=[c[0] for c in CASES])
class TestBatchedEqualsPointwise:
    @SETTINGS
    @given(data=st.data())
    def test_connection_and_curvature(self, label, metric, box, data):
        pts = _points(metric, box, data.draw(unit_batches(metric.dim)))
        for fn in (christoffel, christoffel_partials, riemann):
            batched = fn(metric, pts)
            single = np.stack([fn(metric, q) for q in pts])
            assert batched.shape == single.shape
            assert _close(batched, single), fn.__name__

    @SETTINGS
    @given(data=st.data())
    def test_christoffel_symmetric_in_lower_pair(self, label, metric, box, data):
        pts = _points(metric, box, data.draw(unit_batches(metric.dim)))
        gam = christoffel(metric, pts)
        assert _close(gam, np.swapaxes(gam, -1, -2))

    @SETTINGS
    @given(data=st.data())
    def test_riemann_antisymmetry_and_first_bianchi(self, label, metric, box, data):
        pts = _points(metric, box, data.draw(unit_batches(metric.dim)))
        gam = christoffel(metric, pts)
        r = riemann(metric, pts, gamma=gam)
        scale = 1.0 + float(np.max(np.abs(gam))) ** 2 + float(np.max(np.abs(r)))
        assert np.max(np.abs(r + np.swapaxes(r, -3, -2))) <= 1e-12 * scale
        # R(a, b)c + R(b, c)a + R(c, a)b = 0 in the slots out[..., l, a, b, c]
        cyclic = (r + np.einsum('...lbca->...labc', r)
                  + np.einsum('...lcab->...labc', r))
        assert np.max(np.abs(cyclic)) <= 1e-12 * scale


CURVATURE = (christoffel, christoffel_partials, riemann)
N2_CASES = [case for case in CASES if case[1].dim == 2]


def _grid_points(metric, box, n=200):
    """n points of a fixed draw inside a case's box."""
    lo, hi = (np.asarray(b, dtype=float) for b in box)
    pts = lo + np.random.default_rng(3).uniform(size=(n, metric.dim)) * (hi - lo)
    return pts[metric.contains(pts)]


def _c_ordered(p, *arrays):
    """The layout of ``geometry._sample_fastest`` undone: arrays as given."""
    return arrays


@pytest.mark.parametrize("label,metric,box", N2_CASES, ids=[c[0] for c in N2_CASES])
class TestSampleFastestLayout:
    def test_layout_changes_no_bits_for_n_2(self, label, metric, box):
        pts = _grid_points(metric, box)
        fast = [fn(metric, pts) for fn in CURVATURE]
        with mock.patch.object(geometry, "_sample_fastest", _c_ordered):
            ordered = [fn(metric, pts) for fn in CURVATURE]
        for fn, a, b in zip(CURVATURE, fast, ordered):
            assert np.array_equal(a, b), fn.__name__

    def test_batched_outputs_keep_the_sample_axis_fastest(self, label, metric, box):
        pts = _grid_points(metric, box)
        tangents = np.random.default_rng(4).uniform(-1.0, 1.0, pts.shape)
        cache = CurveGeometry(metric, np.arange(len(pts)), pts, tangents)
        outputs = [fn(metric, pts) for fn in CURVATURE] + [cache.connection, cache.tidal]
        for out in outputs:
            assert out.strides[0] == out.itemsize

    def test_single_point_keeps_its_layout_and_bits(self, label, metric, box):
        q = _grid_points(metric, box)[0]
        single = [fn(metric, q) for fn in CURVATURE]
        with mock.patch.object(geometry, "_sample_fastest", _c_ordered):
            ordered = [fn(metric, q) for fn in CURVATURE]
        for a, b in zip(single, ordered):
            assert a.flags.c_contiguous and np.array_equal(a, b)


def _within(got, want, terms, rel):
    """``|got - want| <= rel * terms`` at every sample, where ``terms`` is
    the sum of the magnitudes of the products that make up ``want``, with
    a floor for products that underflow."""
    return bool(np.all(np.abs(got - want) <= rel * terms + 1e-300))


@pytest.mark.parametrize("label,metric,box", CASES, ids=[c[0] for c in CASES])
class TestCurveMatrices:
    """The connection ``C`` and tidal matrix ``K`` of a :class:`CurveGeometry`
    at random points and tangents."""

    def _draw(self, metric, box, data):
        pts = _points(metric, box, data.draw(unit_batches(metric.dim)))
        t, v = data.draw(hnp.arrays(np.float64, (2,) + pts.shape,
                                    elements=st.floats(-1.0, 1.0)))
        # each drawn point, tangent and field as a curve of two equal samples
        pts, t, v = (np.stack([a, a], axis=-2) for a in (pts, t, v))
        return CurveGeometry(metric, np.broadcast_to([0.0, 1.0], pts.shape[:-1]), pts, t), t, v

    @staticmethod
    def _scale(cache):
        """The size of the terms R is formed from, as in the curvature
        identities above, times the largest metric entry."""
        return ((1.0 + float(np.max(np.abs(cache.g))))
                * (1.0 + float(np.max(np.abs(cache.gamma))) ** 2
                   + float(np.max(np.abs(cache.riem)))))

    @SETTINGS
    @given(data=st.data())
    def test_tidal_annihilates_the_tangent(self, label, metric, box, data):
        # R(t, t)t = 0
        cache, t, _ = self._draw(metric, box, data)
        assert np.max(np.abs(_apply(cache.tidal, t))) <= 1e-12 * self._scale(cache)

    @SETTINGS
    @given(data=st.data())
    def test_lowered_tidal_is_symmetric(self, label, metric, box, data):
        # <R(t, x)t, y> = <R(t, y)t, x> by the pair symmetry of R
        cache, t, _ = self._draw(metric, box, data)
        gk = cache.g @ cache.tidal
        assert np.max(np.abs(gk - np.swapaxes(gk, -1, -2))) <= 1e-12 * self._scale(cache)

    @SETTINGS
    @given(data=st.data())
    def test_products_match_the_einsum_forms(self, label, metric, box, data):
        cache, t, v = self._draw(metric, box, data)
        gam, riem, at, av = cache.gamma, cache.riem, np.abs(t), np.abs(v)
        assert _within(_apply(cache.connection, v),
                       np.einsum('...ijk,...j,...k->...i', gam, t, v),
                       np.einsum('...ijk,...j,...k->...i', np.abs(gam), at, av), 1e-14)
        assert _within(_apply(cache.tidal, v),
                       np.einsum('...labc,...a,...b,...c->...l', riem, t, v, t),
                       np.einsum('...labc,...a,...b,...c->...l', np.abs(riem), at, av, at), 1e-14)


FACTORS = {key: scalar_field_from_expr(src, 2)
           for key, src in zip(("e2x", "jacobi-harmonic"), LEMMA_FACTORS)}
RESCALING_CASES = [(m, f) for m in ("flat", "sphere", "hyperbolic") for f in FACTORS]


def _rel_err(got, want):
    """Largest error per point relative to ``1 + |want|``."""
    scale = 1.0 + np.max(np.abs(want), axis=-1, keepdims=True)
    return float(np.max(np.abs(got - want) / scale))


@pytest.mark.parametrize("mname,fname", RESCALING_CASES,
                         ids=[f"{m}-{f}" for m, f in RESCALING_CASES])
@SETTINGS
@given(data=st.data())
def test_rescaling_formulas_match_rescaled_metric(mname, fname, data):
    metric, cf = metric_by_name(mname), FACTORS[fname]
    pts = _points(metric, BOXES[mname], data.draw(unit_batches(2)))
    x, y, z = data.draw(hnp.arrays(np.float64, (3,) + pts.shape,
                                   elements=st.floats(-1.0, 1.0)))
    h = conformal_rescale(metric, cf)
    connection = np.einsum('...ijk,...j,...k->...i', christoffel(h, pts), x, y)
    assert _rel_err(conformal_connection(metric, cf, pts, x, y), connection) <= 1e-11
    curvature = np.einsum('...labc,...a,...b,...c->...l', riemann(h, pts), x, y, z)
    assert _rel_err(conformal_curvature(metric, cf, pts, x, y, z), curvature) <= 1e-11
    # both sides difference nabla_Y Z along X with the same finite step
    second = _second_cov(h, pts, x, y, z)
    assert _rel_err(conformal_second_cov(metric, cf, pts, x, y, z), second) <= 1e-7


@pytest.mark.parametrize("name", ["sphere-cos", "hyperbolic-free"])
def test_ensemble_oracle_equals_three_separate_runs(name):
    su = builtin_setup(name)
    dq, dv, alpha = np.array([0.3, -0.2]), np.array([0.1, 0.4]), 1e-4
    oracle, V = brute_force_deviation(su.system, su.q0, su.v0, dq, dv, alpha,
                                      su.t_span, su.step)
    base = integrate_newton(su.system, su.q0, su.v0, su.t_span, su.step)
    plus = integrate_newton(su.system, su.q0 + alpha * dq, su.v0 + alpha * dv,
                            su.t_span, su.step)
    minus = integrate_newton(su.system, su.q0 - alpha * dq, su.v0 - alpha * dv,
                             su.t_span, su.step)
    assert np.array_equal(oracle.points, base.points)
    assert np.array_equal(oracle.velocities, base.velocities)
    assert oracle.energy == base.energy
    assert np.array_equal(V, (plus.points - minus.points) / (2.0 * alpha))
