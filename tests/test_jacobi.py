import dataclasses

import numpy as np
import pytest

from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline, PchipInterpolator

from jacobistab import dynamics, jacobi
from jacobistab.dynamics import (CurveGeometry, DeviationField, Trajectory, integrate_deviation,
                                 integrate_newton)
from jacobistab.errors import ForbiddenRegionError
from jacobistab.geometry import cov_derivative_along
from jacobistab.jacobi import (integrate_geodesic, jacobi_metric,
                               jacobi_operator_direct, jacobi_operator_via_g,
                               equal_energy_projection, maupertuis_roundtrip,
                               relation_equal_energy)
from jacobistab.systems import all_setups, builtin_setup
from jacobistab.variation import make_proper_variation
from jacobistab.verify import DEFAULT_TOLERANCES
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


def scipy_rk45(rhs, y0, t0, t_bound, rtol, atol, event):
    """``jacobi._rk45`` as the scipy call it ports."""
    event.terminal, event.direction = True, -1
    return solve_ivp(rhs, (t0, t_bound), y0, method="RK45", rtol=rtol, atol=atol,
                     dense_output=True, events=event)


class TestRk45EqualsScipy:
    """The rk45 path is a port of scipy's ``solve_ivp`` RK45 with dense output
    and the clearance event; the reference runs the same right-hand side
    and event through scipy, so every record must agree bit for bit."""

    FIELDS = ("s", "points", "tangents", "t_of_s", "truncated")

    @staticmethod
    def records(monkeypatch, *args):
        got = integrate_geodesic(*args, method="rk45")
        with monkeypatch.context() as m:
            m.setattr(jacobi, "_rk45", scipy_rk45)
            want = integrate_geodesic(*args, method="rk45")
        return got, want

    def assert_same(self, got, want):
        for name in self.FIELDS:
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        self.assert_same_dense(got.dense, want.dense)

    @staticmethod
    def assert_same_dense(got, want):
        for name in ("t", "y", "status"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        ts = want.t
        rng = np.random.default_rng(len(ts))
        lo, hi = min(ts[0], ts[-1]), max(ts[0], ts[-1])
        # unsorted times with some outside the run, the step ends together,
        # and step ends and times inside steps alone
        every = slice(None, None, max(1, len(ts) // 20))
        for t in (rng.uniform(lo - 0.01, hi + 0.01, 40), ts, *ts[every],
                  *(0.5 * (ts[1:] + ts[:-1]))[every], ts[-1]):
            assert np.array_equal(got.sol(t), want.sol(t))

    @pytest.mark.parametrize("su", all_setups(), ids=lambda su: su.name)
    def test_builtins(self, monkeypatch, su):
        traj = integrate_newton(su.system, su.q0, su.v0, su.t_span, su.step)
        got, want = self.records(monkeypatch, traj.jm, su.q0, su.v0,
                                 (0.0, float(traj.geo.s[-1])), su.step)
        assert got.dense.status == 0 and not got.truncated
        self.assert_same(got, want)

    @pytest.mark.parametrize("dir0, span", [([1.0, 0.0], (0.0, 0.4))], ids=["forward"])
    def test_truncated_by_the_clearance_event(self, monkeypatch, dir0, span):
        # the event's margin above the domain margin of h, so the event
        # ends the run before a stage leaves the domain
        jm = dataclasses.replace(jacobi_metric(GRAVITY.system, 0.5), margin=0.05)
        got, want = self.records(monkeypatch, jm, [0.0, 0.0], dir0, span, 1e-3)
        assert got.dense.status == 1 and got.truncated
        self.assert_same(got, want)

    def test_backward_run_truncated_by_the_clearance_event(self):
        # integrate_geodesic takes increasing spans only; the port runs
        # backward on the h-geodesic flow and the clearance event as scipy does
        jm = jacobi_metric(GRAVITY.system, 0.5)
        stage = dynamics._stage(jm.free_system)
        q0 = np.zeros(2)
        u0 = np.array([-1.0, 0.0]) / jm.h.norm(q0, np.array([-1.0, 0.0]))

        def rate(s, y):
            return np.array((*stage(s, *y[:4].tolist()), 0.5 / jm.clearance(y[:2])))

        def event(s, y):
            return jm.clearance(y[:2]) - 0.05

        args = (rate, np.concatenate([q0, u0, [0.0]]), 0.0, -0.4, jacobi.RK45_RTOL,
                jacobi.RK45_ATOL)
        got, want = jacobi._rk45(*args, event), scipy_rk45(*args, event)
        assert got.status == want.status == 1 and got.t[-1] < 0.0
        self.assert_same_dense(got, want)

    @pytest.mark.parametrize("rtol", [1e-3, 1e-6])
    def test_event_root_on_a_curved_step(self, rtol):
        # loose steps of the harmonic oscillator bend the event across the
        # last step, so that the root depends on brentq's tolerances
        def rhs(t, y):
            return np.array([y[1], -y[0]])

        def event(t, y):
            return y[0] - 0.3

        got = jacobi._rk45(rhs, [1.0, 0.0], 0.0, 10.0, rtol, 1e-6, event)
        want = scipy_rk45(rhs, [1.0, 0.0], 0.0, 10.0, rtol, 1e-6, event)
        assert got.status == want.status == 1
        for name in ("t", "y"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        t = np.linspace(0.0, want.t[-1], 33)
        assert np.array_equal(got.sol(t), want.sol(t))

    @pytest.mark.parametrize("method", ["rk4", "rk45"])
    def test_roundtrip_resampling_equals_scipy(self, monkeypatch, method):
        # numdiff's PCHIP and spline in the round trip against scipy's
        got = maupertuis_roundtrip(GRAVITY.system, GRAVITY.q0, GRAVITY.v0, (0.0, 0.9),
                                   geodesic_method=method)
        monkeypatch.setattr(jacobi, "pchip", PchipInterpolator)
        monkeypatch.setattr(jacobi, "cubic_spline",
                            lambda x, y: CubicSpline(x, y, axis=0))
        assert got == maupertuis_roundtrip(GRAVITY.system, GRAVITY.q0, GRAVITY.v0,
                                           (0.0, 0.9), geodesic_method=method)

    @pytest.mark.parametrize("method", ["rk4", "rk45"])
    def test_empty_span_gives_the_constant_record(self, method):
        # both methods return the initial sample twice, as the rk4 loop and
        # scipy's solve_ivp did
        jm = jacobi_metric(GRAVITY.system, 0.5)
        q0, dir0 = [0.1, -0.2], [3.0, -4.0]
        geo = integrate_geodesic(jm, q0, dir0, (0.3, 0.3), 1e-3, method=method)
        u0 = np.asarray(dir0) / jm.h.norm(np.asarray(q0), np.asarray(dir0))
        assert np.array_equal(geo.s, [0.3, 0.3])
        assert np.array_equal(geo.points, [q0, q0])
        assert np.array_equal(geo.tangents, [u0, u0])
        assert np.array_equal(geo.t_of_s, [0.0, 0.0]) and not geo.truncated

    @pytest.mark.parametrize("method", ["rk4", "rk45"])
    @pytest.mark.parametrize("s_span,step", [((0.0, -0.4), 1e-3), ((0.3, 0.2999), 1e-3),
                                             ((0.0, 0.4), 0.0), ((0.0, 0.4), -1e-3)])
    def test_decreasing_span_or_bad_step_raises(self, method, s_span, step):
        # as integrate_newton does
        jm = jacobi_metric(HARMONIC.system, 2.0)
        with pytest.raises(ValueError, match="need step > 0"):
            integrate_geodesic(jm, [1.0, 0.0], [0.0, 1.0], s_span, step, method=method)


class TestGeodesicTime:
    """``t_of_s`` of an RK4 record is the dynamical time of the orbit it
    reparametrizes."""

    def test_flat_free_time_is_s_over_2E(self):
        traj = integrate_newton(FREE.system, FREE.q0, FREE.v0, FREE.t_span, FREE.step)
        geo = integrate_geodesic(traj.jm, FREE.q0, FREE.v0, (0.0, float(traj.geo.s[-1])),
                                 FREE.step)
        assert np.array_equal(geo.t_of_s, geo.s / (2.0 * traj.energy))

    @pytest.mark.parametrize("name", ["sphere-cos", "flat-harmonic"])
    def test_end_time_is_the_trajectory_end_time(self, name):
        su = builtin_setup(name)
        traj = integrate_newton(su.system, su.q0, su.v0, su.t_span, su.step)
        geo = integrate_geodesic(traj.jm, su.q0, su.v0, (0.0, float(traj.geo.s[-1])), su.step)
        assert not geo.truncated
        assert abs(geo.t_of_s[-1] - traj.times[-1]) < 1e-11


def h_jacobi_field(jm, geo, J0, DJ0) -> DeviationField:
    """The Jacobi field of h along an RK4 geodesic record from s = 0: the
    linearized flow of the free system of h along the record viewed as its
    trajectory, with s as the time."""
    orbit = Trajectory(geo.s, geo.points, geo.tangents, energy=0.5, step=geo.s[1],
                       energy_drift=0.0, system=jm.free_system)
    return integrate_deviation(orbit, J0, DJ0)


class TestHJacobiField:
    def test_sphere_free_first_conjugate_point_at_pi(self):
        jm = jacobi_metric(SPHERE_FREE.system, 0.5)     # h = g
        geo = integrate_geodesic(jm, SPHERE_FREE.q0, SPHERE_FREE.v0, (0.0, 3.5), 1e-3)
        J = h_jacobi_field(jm, geo, np.zeros(2), np.array([1.0, 0.0])).V[:, 0]
        k = int(np.argmax(J[1:] <= 0.0)) + 1        # the first sign change after s = 0
        assert J[k - 1] > 0.0 >= J[k] and k > 1
        zero = geo.s[k - 1] + J[k - 1] / (J[k - 1] - J[k]) * (geo.s[k] - geo.s[k - 1])
        assert abs(zero - np.pi) < DEFAULT_TOLERANCES["conjugate-point-arc"]

    def test_flat_free_field_is_linear(self):
        jm = jacobi_metric(FREE.system, 0.5)
        geo = integrate_geodesic(jm, FREE.q0, FREE.v0, (0.0, 2.0), 1e-3)
        J0, DJ0 = np.array([0.3, -0.2]), np.array([0.5, 1.0])
        field = h_jacobi_field(jm, geo, J0, DJ0)
        assert np.max(np.abs(field.V - (J0 + geo.s[:, None] * DJ0))) < 1e-12
        assert np.array_equal(field.DV, np.broadcast_to(DJ0, field.DV.shape))


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
        dv = cov_derivative_along(traj.curve, v)
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
        dv = cov_derivative_along(traj.curve, v)
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
        cache = CurveGeometry(HARMONIC.system.metric, traj.times, traj.points,
                              traj.velocities, HARMONIC.system)
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
        dv = cov_derivative_along(traj.curve, v)
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
        cache = CurveGeometry(metric, geo.s, geo.points, geo.tangents, su.system)
        acc = cov_derivative_along(cache, geo.tangents)
        w2 = jm.factor_values(geo.points)
        f_vec = -2.0 * cache.grad_U / w2[:, None]     # grad ln(2(E-U))
        f_dot_u = np.einsum('nij,ni,nj->n', cache.g, f_vec, geo.tangents)
        u_dot_u = np.einsum('nij,ni,nj->n', cache.g, geo.tangents, geo.tangents)
        lhs = acc + f_dot_u[:, None] * geo.tangents - 0.5 * u_dot_u[:, None] * f_vec
        assert np.max(np.abs(lhs)[8:-8]) < 1e-7

        acc_t = cov_derivative_along(traj.curve, traj.velocities)
        newton = acc_t + cache.grad_U
        assert np.max(np.abs(newton)[8:-8]) < 1e-7
