"""The batched evaluator contract: one evaluation over a point batch
``(N, n)`` equals N single-point ``(n,)`` evaluations, the batched
curvature keeps its algebraic identities, and the batched conformal
rescaling formulas agree with direct computation in the rescaled metric."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from jacobistab.conformal import (conformal_connection, conformal_curvature,
                                  conformal_rescale, conformal_second_cov)
from jacobistab.dynamics import brute_force_deviation, integrate_newton
from jacobistab.expressions import metric_from_exprs
from jacobistab.geometry import (_second_cov, christoffel, christoffel_partials,
                                 metric_by_name, riemann)
from jacobistab.jacobi import jacobi_metric
from jacobistab.systems import all_setups, builtin_setup
from jacobistab.verify import exp2x_factor, jacobi_harmonic_factor

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
         + [(f"jacobi:{su.name}", jacobi_metric(su.system, su.energy).h, su.sample_box)
            for su in all_setups()]
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


FACTORS = {"e2x": exp2x_factor(), "jacobi-harmonic": jacobi_harmonic_factor()}
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
    dev = brute_force_deviation(su.system, su.q0, su.v0, dq, dv, alpha,
                                su.t_span, su.step)
    base = integrate_newton(su.system, su.q0, su.v0, su.t_span, su.step)
    plus = integrate_newton(su.system, su.q0 + alpha * dq, su.v0 + alpha * dv,
                            su.t_span, su.step)
    minus = integrate_newton(su.system, su.q0 - alpha * dq, su.v0 - alpha * dv,
                             su.t_span, su.step)
    assert np.array_equal(dev.trajectory.points, base.points)
    assert np.array_equal(dev.trajectory.velocities, base.velocities)
    assert dev.trajectory.energy == base.energy
    assert np.array_equal(dev.V, (plus.points - minus.points) / (2.0 * alpha))
