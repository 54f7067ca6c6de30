import numpy as np
import pytest

from scipy.interpolate import CubicSpline

from jacobistab import jacobi
from jacobistab.dynamics import CurveGeometry, DeviationField, integrate_newton
from jacobistab.errors import ForbiddenRegionError
from jacobistab.geometry import cov_derivative_along
from jacobistab.jacobi import (integrate_geodesic, jacobi_metric,
                               jacobi_operator_direct, jacobi_operator_via_g,
                               equal_energy_projection, maupertuis_roundtrip,
                               relation_equal_energy)
from jacobistab.systems import builtin_setup
from jacobistab.variation import make_proper_variation
from numpy_reference import numpy_rk4

FREE = builtin_setup("flat-free")
HARMONIC = builtin_setup("flat-harmonic")
GRAVITY = builtin_setup("uniform-gravity")
SPHERE_FREE = builtin_setup("sphere-free")


class TestJacobiMetric:
    def test_zero_potential_half_energy_is_identity(self):
        jm = jacobi_metric(FREE.system, 0.5)
        for p in ([0.0, 0.0], [1.3, -0.4]):
            assert np.allclose(jm.h.g(p), FREE.system.metric.g(p), atol=1e-15)

    def test_harmonic_factor_values(self):
        jm = jacobi_metric(HARMONIC.system, 1.0)
        assert jm.factor_values([[1.0, 0.0]])[0] == pytest.approx(1.0)

    def test_forbidden_region(self):
        jm = jacobi_metric(HARMONIC.system, 1.0)
        with pytest.raises(ForbiddenRegionError, match="forbidden region"):
            jm.factor_values([[2.0, 0.0]])

    def test_factor_exposed_for_rescaling_formulas(self):
        from jacobistab.conformal import conformal_rescale
        jm = jacobi_metric(HARMONIC.system, 1.0)
        rebuilt = conformal_rescale(HARMONIC.system.metric, jm.factor)
        p = [0.3, 0.2]
        assert np.allclose(rebuilt.g(p), jm.h.g(p), atol=1e-14)


class TestIntegrateGeodesic:
    def test_flat_straight_line_arclength(self):
        jm = jacobi_metric(FREE.system, 0.5)
        geo = integrate_geodesic(jm, [0.0, 0.0], [2.0, 0.0], (0.0, 1.5), 1e-3)
        # normalized to unit h-speed: q(s) = (s, 0)
        assert np.max(np.abs(geo.points[:, 0] - geo.s)) < 1e-10
        assert np.max(np.abs(geo.t_of_s - geo.s)) < 1e-10

    def test_harmonic_circle_and_time_accumulation(self):
        jm = jacobi_metric(HARMONIC.system, 1.0)
        geo = integrate_geodesic(jm, [1.0, 0.0], [0.0, 1.0], (0.0, 2 * np.pi), 1e-3)
        want = np.stack([np.cos(geo.s), np.sin(geo.s)], axis=1)
        assert np.max(np.abs(geo.points - want)) < 1e-6
        assert np.max(np.abs(geo.t_of_s - geo.s)) < 1e-6   # 2(E-U) = 1 on the orbit

    def test_sphere_great_circle_unit_speed(self):
        jm = jacobi_metric(SPHERE_FREE.system, 0.5)
        geo = integrate_geodesic(jm, [np.pi / 2, 0.0], [0.0, 3.0], (0.0, 5.0), 1e-3)
        assert np.max(np.abs(geo.points[:, 0] - np.pi / 2)) < 1e-10
        speeds = [jm.h.norm(q, u) for q, u in zip(geo.points[::500], geo.tangents[::500])]
        assert max(abs(s - 1.0) for s in speeds) < 1e-8

    def test_forbidden_start_raises(self):
        jm = jacobi_metric(HARMONIC.system, 1.0)
        with pytest.raises(ForbiddenRegionError, match="forbidden region"):
            integrate_geodesic(jm, [3.0, 0.0], [1.0, 0.0], (0.0, 1.0), 1e-3)

    def test_truncates_at_forbidden_region(self):
        jm = jacobi_metric(GRAVITY.system, 0.5)
        # total arc length to the turning point is 1/3
        geo = integrate_geodesic(jm, [0.0, 0.0], [1.0, 0.0], (0.0, 0.4), 1e-3)
        assert geo.truncated
        assert geo.s[-1] < 0.34
        # the record ends at the last step that stays clear, as first recorded
        assert len(geo) == 334
        assert geo.points[-1].tolist() == [0.4949395459388092, 0.0]

    def test_adaptive_method_matches_fixed_step(self):
        jm = jacobi_metric(HARMONIC.system, 1.0)
        g1 = integrate_geodesic(jm, [1.0, 0.0], [0.0, 1.0], (0.0, 3.0), 1e-3)
        g2 = integrate_geodesic(jm, [1.0, 0.0], [0.0, 1.0], (0.0, 3.0), 1e-3,
                                method="rk45")
        assert np.max(np.abs(g1.points[-1] - g2.points[-1])) < 1e-7

    def test_zero_direction_rejected(self):
        jm = jacobi_metric(FREE.system, 0.5)
        with pytest.raises(ValueError):
            integrate_geodesic(jm, [0.0, 0.0], [0.0, 0.0], (0.0, 1.0), 1e-3)


class TestSOfT:
    def test_constant_clearance_gives_identity(self):
        traj = integrate_newton(FREE.system, FREE.q0, FREE.v0, (0.0, 2.0), 1e-3)
        geo = traj.geo
        assert np.max(np.abs(geo.s - geo.t_of_s)) < 1e-12

    def test_uniform_gravity_closed_form(self):
        traj = integrate_newton(GRAVITY.system, GRAVITY.q0, GRAVITY.v0, (0.0, 0.99), 1e-3)
        geo = traj.geo
        t = geo.t_of_s
        want = t - t**2 + t**3 / 3.0
        assert np.max(np.abs(geo.s - want)) < 1e-10
        assert geo.s[-1] == pytest.approx(0.99 - 0.99**2 + 0.99**3 / 3.0, abs=1e-10)

    def test_jacobi_metric_at_trajectory_energy(self):
        traj = integrate_newton(HARMONIC.system, [1.0, 0.0], [0.0, 0.8], (0.0, 1.0), 1e-3)
        assert traj.jm.E == traj.energy == pytest.approx(0.82, abs=1e-15)
        assert traj.geo.metric is traj.jm.h
        assert traj.geo is traj.geo and traj.jm is traj.jm

    def test_forbidden_interval_rejected(self):
        traj = integrate_newton(GRAVITY.system, GRAVITY.q0, GRAVITY.v0, (0.0, 1.05), 1e-3)
        with pytest.raises(ForbiddenRegionError):
            traj.geo


class TestJacobiOperatorDirect:
    def test_flat_plain_second_derivative(self):
        jm = jacobi_metric(FREE.system, 0.5)
        geo = integrate_geodesic(jm, [0.0, 0.0], [1.0, 0.0], (0.0, np.pi), 1e-3)
        v = np.stack([np.zeros_like(geo.s), np.sin(geo.s)], axis=1)
        out = jacobi_operator_direct(geo, v)
        assert np.max(np.abs(out[:, 1] + np.sin(geo.s))[8:-8]) < 1e-9

    def test_parallel_field_flat_zero(self):
        jm = jacobi_metric(FREE.system, 0.5)
        geo = integrate_geodesic(jm, [0.0, 0.0], [1.0, 0.0], (0.0, 1.0), 1e-3)
        out = jacobi_operator_direct(geo, np.tile([0.3, 0.7], (len(geo), 1)))
        assert np.max(np.abs(out)) < 1e-12

    def test_sphere_equator_oscillator(self):
        jm = jacobi_metric(SPHERE_FREE.system, 0.5)
        geo = integrate_geodesic(jm, [np.pi / 2, 0.0], [0.0, 1.0], (0.0, np.pi), 1e-3)
        v = np.stack([np.sin(2 * geo.s), np.zeros_like(geo.s)], axis=1)
        out = jacobi_operator_direct(geo, v)
        want = (-4 * np.sin(2 * geo.s) + np.sin(2 * geo.s))
        assert np.max(np.abs(out[:, 0] - want)[8:-8]) < 1e-8

    def test_grid_mismatch(self):
        jm = jacobi_metric(FREE.system, 0.5)
        geo = integrate_geodesic(jm, [0.0, 0.0], [1.0, 0.0], (0.0, 1.0), 1e-3)
        with pytest.raises(ValueError, match="grid mismatch"):
            jacobi_operator_direct(geo, np.zeros((3, 2)))


class TestJacobiOperatorViaG:
    def test_constant_potential_pure_rescale(self):
        # flat metric, U = 0, E = 2 so the factor is 4 and devop = op/16
        su = builtin_setup("flat-free")
        traj = integrate_newton(su.system, [0.0, 0.0], [2.0, 0.0], (0.0, 1.0), 1e-3)
        from jacobistab.dynamics import hessian_operator
        t = traj.times
        v = np.stack([np.sin(t), np.cos(2 * t)], axis=1)
        dv = cov_derivative_along(su.system.metric, traj.as_curve(), v)
        dev = DeviationField(traj, v, dv)
        got = jacobi_operator_via_g(traj, dev)
        want = hessian_operator(traj, dev) / 16.0
        assert np.max(np.abs(got - want)) < 1e-14

    def test_zero_field(self):
        traj = integrate_newton(HARMONIC.system, HARMONIC.q0, HARMONIC.v0, (0.0, 1.0), 1e-3)
        dev = DeviationField(traj, np.zeros_like(traj.points), np.zeros_like(traj.points))
        out = jacobi_operator_via_g(traj, dev)
        assert np.max(np.abs(out)) == 0.0

    def test_cross_validates_against_direct(self):
        su = builtin_setup("sphere-cos")
        pad = 10 * su.step
        traj = integrate_newton(su.system, su.q0, su.v0,
                                (su.t_span[0] - pad, su.t_span[1] + pad), su.step)
        t = traj.times
        v = np.stack([np.sin(t), np.sin(2 * t)], axis=1)
        dv = cov_derivative_along(su.system.metric, traj.as_curve(), v)
        dev = DeviationField(traj, v, dv)
        lhs = jacobi_operator_direct(traj.geo, v)
        rhs = jacobi_operator_via_g(traj, dev)
        assert np.max(np.abs(lhs - rhs)[10:-10]) < 1e-6


class TestEqualEnergy:
    def test_zero_potential_keeps_field(self):
        traj = integrate_newton(FREE.system, FREE.q0, FREE.v0, (0.0, 2.0), 1e-3)
        vperp = np.stack([np.zeros_like(traj.times), np.sin(traj.times)], axis=1)
        dev = equal_energy_projection(traj, vperp)
        assert np.max(np.abs(dev.V - vperp)) < 1e-12

    def test_zero_input_zero_output(self):
        traj = integrate_newton(HARMONIC.system, HARMONIC.q0, HARMONIC.v0, (0.0, 2.0), 1e-3)
        dev = equal_energy_projection(traj, np.zeros_like(traj.points))
        assert np.max(np.abs(dev.V)) == 0.0

    def test_harmonic_radial_constraint(self):
        traj = integrate_newton(HARMONIC.system, HARMONIC.q0, HARMONIC.v0,
                                (0.0, 2 * np.pi), 1e-3)
        vperp = np.sin(traj.times)[:, None] * traj.points
        dev = equal_energy_projection(traj, vperp)
        cache = CurveGeometry(HARMONIC.system.metric, traj.points, HARMONIC.system)
        resid = (np.einsum('nij,ni,nj->n', cache.g, traj.velocities, dev.DV)
                 + np.einsum('nij,ni,nj->n', cache.g, cache.grad_U, dev.V))
        assert np.max(np.abs(resid)) < 1e-8

    def test_multiplier_equals_rk4(self, monkeypatch):
        # lam' has no lam in it: the multiplier is RK4 on the spline of its
        # rate, bit for bit, evaluated at all stage times at once
        seen = []
        multiplier = jacobi._multiplier

        def recording(traj, rate):
            seen.append((rate, multiplier(traj, rate)))
            return seen[-1][1]

        monkeypatch.setattr(jacobi, "_multiplier", recording)
        su = builtin_setup("sphere-cos")
        traj = integrate_newton(su.system, su.q0, su.v0, su.t_span, su.step)
        equal_energy_projection(traj, make_proper_variation(traj, seed=3, orthogonal=True).values)
        (rate, lam), = seen
        spline = CubicSpline(traj.times, rate)
        want = numpy_rk4(lambda t, y: np.atleast_1d(spline(t)), np.zeros(1), traj.times[0],
                         len(traj) - 1, traj.step)[:, 0]
        assert np.max(np.abs(lam)) > 1e-3
        assert np.array_equal(lam, want)

    def test_non_orthogonal_rejected(self):
        traj = integrate_newton(HARMONIC.system, HARMONIC.q0, HARMONIC.v0, (0.0, 1.0), 1e-3)
        with pytest.raises(ValueError, match="not orthogonal"):
            equal_energy_projection(traj, traj.velocities.copy())

    def test_relation_constant_potential(self):
        su = builtin_setup("sphere-free")
        traj = integrate_newton(su.system, su.q0, su.v0, (0.0, 2.0), su.step)
        vperp = np.stack([np.sin(traj.times), np.zeros_like(traj.times)], axis=1)
        dev = equal_energy_projection(traj, vperp)
        rep = relation_equal_energy(traj, dev)
        assert rep["sup_norm"] < 1e-8
        assert rep["correction_sup"] < 1e-10

    def test_relation_harmonic_radial(self):
        pad = 10 * HARMONIC.step
        t0 = -pad
        q0 = np.array([np.cos(t0), np.sin(t0)])
        v0 = np.array([-np.sin(t0), np.cos(t0)])
        traj = integrate_newton(HARMONIC.system, q0, v0, (t0, 2 * np.pi + pad),
                                HARMONIC.step)
        vperp = np.sin(traj.times)[:, None] * traj.points
        dev = equal_energy_projection(traj, vperp)
        rep = relation_equal_energy(traj, dev)
        assert rep["constraint_sup"] < 1e-8
        assert rep["sup_norm"] < 1e-6
        assert rep["correction_sup"] > 1e-2   # the operators provably differ

    def test_relation_rejects_unconstrained_input(self):
        traj = integrate_newton(HARMONIC.system, HARMONIC.q0, HARMONIC.v0,
                                (0.0, 2.0), 1e-3)
        v = np.sin(traj.times)[:, None] * traj.points
        dv = cov_derivative_along(HARMONIC.system.metric, traj.as_curve(), v)
        with pytest.raises(ValueError, match="constraint violated"):
            relation_equal_energy(traj, DeviationField(traj, v, dv))


class TestRoundtrip:
    def test_flat_free_trivial(self):
        rep = maupertuis_roundtrip(FREE.system, FREE.q0, FREE.v0, (0.0, 2.0),
                                   geodesic_method="rk4")
        assert rep["sup_norm"] < 1e-8

    def test_sphere_great_circle(self):
        su = SPHERE_FREE
        rep = maupertuis_roundtrip(su.system, su.q0, su.v0, (0.0, 2.0),
                                   geodesic_method="rk4")
        assert rep["sup_norm"] < 1e-8

    def test_harmonic_circular_orbit(self):
        rep = maupertuis_roundtrip(HARMONIC.system, HARMONIC.q0, HARMONIC.v0,
                                   (0.0, 2 * np.pi), geodesic_method="rk4")
        assert rep["sup_norm"] < 1e-6

    def test_gravity_parabola_near_turning_point(self):
        rep = maupertuis_roundtrip(GRAVITY.system, GRAVITY.q0, GRAVITY.v0,
                                   (0.0, 0.9), geodesic_method="rk45")
        assert rep["sup_norm"] < 1e-6
        assert not rep["truncated"]


class TestGeodesicEquationInBaseMetric:
    def test_conformal_rewrite_and_time_reparametrization(self):
        # For an h-geodesic the base-connection acceleration satisfies
        #   acc + <F, u> u - 0.5 <u, u> F = 0            (s-parametrization)
        # and mapping to dynamical time recovers acc_t = -grad U.
        su = builtin_setup("sphere-cos")
        traj = integrate_newton(su.system, su.q0, su.v0, su.t_span, su.step)
        jm = traj.jm
        geo = traj.geo
        metric = su.system.metric
        cache = CurveGeometry(metric, geo.points, su.system)
        acc = cov_derivative_along(metric, geo.as_curve(), geo.tangents,
                                   gammas=cache.gamma)
        w2 = jm.factor_values(geo.points)
        f_vec = -2.0 * cache.grad_U / w2[:, None]     # grad ln(2(E-U))
        f_dot_u = np.einsum('nij,ni,nj->n', cache.g, f_vec, geo.tangents)
        u_dot_u = np.einsum('nij,ni,nj->n', cache.g, geo.tangents, geo.tangents)
        lhs = acc + f_dot_u[:, None] * geo.tangents - 0.5 * u_dot_u[:, None] * f_vec
        assert np.max(np.abs(lhs)[8:-8]) < 1e-7

        acc_t = cov_derivative_along(metric, traj.as_curve(), traj.velocities,
                                     gammas=cache.gamma)
        newton = acc_t + cache.grad_U
        assert np.max(np.abs(newton)[8:-8]) < 1e-7
