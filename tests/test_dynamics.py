
import numpy as np
import pytest

from scipy.interpolate import CubicSpline

from jacobistab.cli import _write_csv
from jacobistab.dynamics import (DeviationField, MechanicalSystem, brute_force_deviation,
                                 hessian_operator, integrate_deviation, integrate_newton,
                                 linearization_initial_data)
from jacobistab.errors import ChartDomainError, EnergyDriftError, GeometryError
from jacobistab.geometry import ScalarField
from jacobistab.systems import (BUILTIN_SYSTEMS, builtin_setup, flat_metric,
                                mechanical_system)
from numpy_reference import numpy_rk4

FREE = builtin_setup("flat-free")
HARMONIC = builtin_setup("flat-harmonic")
SPHERE_FREE = builtin_setup("sphere-free")


class TestIntegrateNewton:
    def test_free_particle_straight_line(self):
        traj = integrate_newton(FREE.system, [0.0, 0.0], [1.0, 0.0], (0.0, 1.0), 1e-3)
        assert np.max(np.abs(traj.points[:, 0] - traj.times)) < 1e-12
        assert np.max(np.abs(traj.points[:, 1])) < 1e-12

    def test_harmonic_circular_orbit(self):
        traj = integrate_newton(HARMONIC.system, [1.0, 0.0], [0.0, 1.0],
                                (0.0, 2 * np.pi), 1e-3)
        want = np.stack([np.cos(traj.times), np.sin(traj.times)], axis=1)
        assert np.max(np.abs(traj.points - want)) < 1e-10
        assert traj.energy == pytest.approx(1.0)

    def test_equator_great_circle(self):
        traj = integrate_newton(SPHERE_FREE.system, [np.pi / 2, 0.0], [0.0, 1.0],
                                (0.0, 2.0), 1e-3)
        assert np.max(np.abs(traj.points[:, 0] - np.pi / 2)) < 1e-12
        assert np.max(np.abs(traj.points[:, 1] - traj.times)) < 1e-10

    def test_domain_exit_raises(self):
        # meridian great circle runs into the chart boundary at the pole
        with pytest.raises(ChartDomainError, match="left chart domain"):
            integrate_newton(SPHERE_FREE.system, [np.pi / 2, 0.0], [1.0, 0.0],
                             (0.0, 2.0), 1e-3)

    def test_drift_bound_enforced(self):
        with pytest.raises(EnergyDriftError):
            integrate_newton(HARMONIC.system, [1.0, 0.0], [0.0, 1.0],
                             (0.0, 1.0), 1e-3, drift_bound=1e-18)

    def test_nonfinite_energy_is_drift(self):
        # U turns NaN past x = 0.5 while its (analytic) gradient stays 0, so
        # the motion goes on and only the energy check can notice
        potential = ScalarField(value=lambda q: np.where(q[..., 0] > 0.5, np.nan, 0.0),
                                partials=lambda q: np.zeros(2),
                                second_partials=lambda q: np.zeros((2, 2)))
        sys_ = MechanicalSystem(flat_metric(2), potential)
        with pytest.raises(EnergyDriftError, match="nan"):
            integrate_newton(sys_, [0.0, 0.0], [1.0, 0.0], (0.0, 1.0), 1e-2)

    def test_energy_drift_check_reads_the_kept_drift(self):
        # the drift over every sample, as the integrator's own check takes it
        from jacobistab.verify import check_energy_drift
        (result,) = check_energy_drift(system_names=["hyperbolic-free"])
        su = builtin_setup("hyperbolic-free")
        traj = integrate_newton(su.system, su.q0, su.v0, (0.0, 1.0), 1e-3)
        assert result.value == traj.energy_drift
        energy = su.system.energy(traj.points, traj.velocities)
        assert traj.energy_drift == np.max(np.abs(energy - traj.energy)) / max(1.0, traj.energy)

    def test_csv_and_json_roundtrip(self, tmp_path):
        traj = integrate_newton(FREE.system, [0.0, 0.0], [1.0, 0.0], (0.0, 0.1), 1e-2)
        _write_csv(tmp_path / "traj.csv",
                   [("t", traj.times), ("q", traj.points), ("v", traj.velocities)])
        lines = (tmp_path / "traj.csv").read_text().splitlines()
        assert lines[0] == "t,q1,q2,v1,v2"
        assert len(lines) == len(traj) + 1


class TestEnergyOf:
    def test_flat_free(self):
        assert FREE.system.energy([0.0, 0.0], [1.0, 0.0]) == pytest.approx(0.5)

    def test_flat_harmonic(self):
        assert HARMONIC.system.energy([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)

    def test_sphere_with_potential(self):
        su = builtin_setup("sphere-cos")
        val = su.system.energy([np.pi / 2, 0.0], [0.0, 1.0])
        # (1/2) sin^2(pi/2) * 1 + cos(pi/2)
        assert val == pytest.approx(0.5, abs=1e-14)


class TestHessianOperator:
    def test_flat_free_is_second_derivative(self):
        traj = integrate_newton(FREE.system, [0.0, 0.0], [1.0, 0.0], (0.0, np.pi), 1e-3)
        v = np.stack([np.zeros_like(traj.times), np.sin(traj.times)], axis=1)
        dv = np.stack([np.zeros_like(traj.times), np.cos(traj.times)], axis=1)
        out = hessian_operator(traj, DeviationField(traj, v, dv))
        want = np.stack([np.zeros_like(traj.times), -np.sin(traj.times)], axis=1)
        assert np.max(np.abs(out - want)) < 1e-8

    def test_flat_harmonic_adds_identity(self):
        traj = integrate_newton(HARMONIC.system, [1.0, 0.0], [0.0, 1.0], (0.0, 2.0), 1e-3)
        t = traj.times
        v = np.stack([np.sin(2 * t), np.cos(t)], axis=1)
        dv = np.stack([2 * np.cos(2 * t), -np.sin(t)], axis=1)
        out = hessian_operator(traj, DeviationField(traj, v, dv))
        want = np.stack([-4 * np.sin(2 * t), -np.cos(t)], axis=1) + v
        assert np.max(np.abs(out - want)) < 1e-8

    def test_sphere_equator_curvature_term(self):
        traj = integrate_newton(SPHERE_FREE.system, [np.pi / 2, 0.0], [0.0, 1.0],
                                (0.0, 2.0), 1e-3)
        t = traj.times
        v = np.stack([np.sin(t), np.zeros_like(t)], axis=1)       # v(t) d_theta
        dv = np.stack([np.cos(t), np.zeros_like(t)], axis=1)
        out = hessian_operator(traj, DeviationField(traj, v, dv))
        want = np.zeros_like(v)                                   # (v'' + v) d_theta = 0
        assert np.max(np.abs(out - want)) < 1e-8

    def test_grid_mismatch_rejected(self):
        traj = integrate_newton(FREE.system, [0.0, 0.0], [1.0, 0.0], (0.0, 0.5), 1e-2)
        other = integrate_newton(FREE.system, [0.0, 0.0], [1.0, 0.0], (0.0, 0.5), 5e-3)
        dev = DeviationField(other, np.zeros_like(other.points), np.zeros_like(other.points))
        with pytest.raises(ValueError, match="mismatched sampling grids"):
            hessian_operator(traj, dev)


class TestIntegrateDeviation:
    def test_free_particle_linear_growth(self):
        traj = integrate_newton(FREE.system, [0.0, 0.0], [1.0, 0.0], (0.0, 2.0), 1e-3)
        dev = integrate_deviation(traj, [0.0, 0.0], [0.0, 1.0])
        want = np.stack([np.zeros_like(traj.times), traj.times], axis=1)
        assert np.max(np.abs(dev.V - want)) < 1e-10

    def test_harmonic_cosine(self):
        traj = integrate_newton(HARMONIC.system, [1.0, 0.0], [0.0, 1.0],
                                (0.0, 2 * np.pi), 1e-3)
        dev = integrate_deviation(traj, [1.0, 0.0], [0.0, 0.0])
        want = np.stack([np.cos(traj.times), np.zeros_like(traj.times)], axis=1)
        assert np.max(np.abs(dev.V - want)) < 1e-9

    def test_sphere_jacobi_field_sine(self):
        traj = integrate_newton(SPHERE_FREE.system, [np.pi / 2, 0.0], [0.0, 1.0],
                                (0.0, np.pi), 1e-3)
        dev = integrate_deviation(traj, [0.0, 0.0], [1.0, 0.0])
        assert np.max(np.abs(dev.V[:, 0] - np.sin(traj.times))) < 1e-9
        assert abs(dev.V[-1, 0]) < 1e-9   # vanishes again at t = pi

    def test_operator_annihilates_solution(self):
        su = builtin_setup("sphere-cos")
        traj = integrate_newton(su.system, su.q0, su.v0, su.t_span, su.step)
        dev = integrate_deviation(traj, [0.3, -0.2], [0.1, 0.4])
        out = hessian_operator(traj, dev)
        assert np.max(np.abs(out[5:-5])) < 1e-6

    def test_harmonic_deviations_stay_bounded(self):
        # every deviation solution of the oscillator is trigonometric, so
        # close-by trajectories stay close for all later times
        traj = integrate_newton(HARMONIC.system, [1.0, 0.0], [0.0, 1.0],
                                (0.0, 8 * np.pi), 2e-3)
        rng = np.random.default_rng(17)
        v0, dv0 = rng.uniform(-1.0, 1.0, (2, 2))
        dev = integrate_deviation(traj, v0, dv0)
        bound = np.sqrt(np.sum(v0**2) + np.sum(dv0**2))
        assert np.max(np.abs(dev.V)) <= bound + 1e-9


def reference_deviation(traj, V0, DV0):
    """The linearized flow with numpy stages under :func:`numpy_rk4`: one
    joint cubic spline of the coefficients evaluated at each stage time, and
    the operator's terms as einsums and a ``matmul``."""
    cache, times, n = traj.curve, traj.times, traj.dim
    arrays = (cache.gamma, cache.riem, cache.hess_U_raised, traj.velocities)
    spline = CubicSpline(times, np.concatenate(
        [a.reshape(len(times), -1) for a in arrays], axis=1), axis=0)
    shapes = [a.shape[1:] for a in arrays]
    cuts = np.cumsum([int(np.prod(s)) for s in shapes])[:-1]

    def rhs(t, y):
        V, W = y[:n], y[n:]
        gam, riem, hess, vel = (part.reshape(s) for part, s in
                                zip(np.split(spline(t), cuts), shapes))
        dV = W - np.einsum('ijk,j,k->i', gam, vel, V)
        curv = np.einsum('labc,a,b,c->l', riem, vel, V, vel)
        dW = -curv - hess @ V - np.einsum('ijk,j,k->i', gam, vel, W)
        return np.concatenate([dV, dW])

    y0 = np.concatenate([np.asarray(V0, dtype=float), np.asarray(DV0, dtype=float)])
    ys = numpy_rk4(rhs, y0, times[0], len(times) - 1, traj.step)
    return ys[:, :n], ys[:, n:]


class TestDeviationStage:
    @pytest.mark.parametrize("name", BUILTIN_SYSTEMS)
    def test_equals_numpy_reference(self, name):
        su = builtin_setup(name)
        traj = integrate_newton(su.system, su.q0, su.v0, su.t_span, su.step)
        rng = np.random.default_rng(11)
        for _ in range(3):
            v0, dv0 = rng.uniform(-1.0, 1.0, (2, traj.dim))
            dev = integrate_deviation(traj, v0, dv0)
            V, DV = reference_deviation(traj, v0, dv0)
            assert np.array_equal(dev.V, V)
            assert np.array_equal(dev.DV, DV)

    def test_dense_hessian_within_rounding(self):
        # a cubic potential on flat R^3 has a raised Hessian with nonzero
        # off-diagonal entries; BLAS sums each row of ``hess @ V`` in an
        # order of its own (with fused multiply-adds), which the stage's
        # left-to-right sum reproduces only to the last bit
        sys_ = mechanical_system(flat_metric(3), "0.1*q1^3 + 0.2*q1*q2*q3 + 0.05*q2^2*q3")
        traj = integrate_newton(sys_, [0.3, -0.2, 0.4], [0.5, 0.6, -0.3], (0.0, 2.0), 1e-3)
        v0, dv0 = np.random.default_rng(2).uniform(-1.0, 1.0, (2, 3))
        dev = integrate_deviation(traj, v0, dv0)
        V, DV = reference_deviation(traj, v0, dv0)
        assert np.max(np.abs(dev.V - V)) <= 1e-13 * np.max(np.abs(V))
        assert np.max(np.abs(dev.DV - DV)) <= 1e-13 * np.max(np.abs(DV))

    def test_overflow_is_a_geometry_error(self):
        traj = integrate_newton(FREE.system, [0.0, 0.0], [1.0, 0.0], (0.0, 0.1), 1e-2)
        with pytest.raises(GeometryError, match="not finite at sample 1 "):
            integrate_deviation(traj, [1.7e308, 0.0], [1.7e308, 0.0])


class TestBruteForceOracle:
    def test_free_particle_exact(self):
        base, V = brute_force_deviation(FREE.system, [0.0, 0.0], [1.0, 0.0],
                                        [0.0, 0.0], [0.0, 1.0], 1e-4, (0.0, 2.0), 1e-3)
        want = np.stack([np.zeros_like(base.times), base.times], axis=1)
        assert np.max(np.abs(V - want)) < 1e-9

    def test_harmonic_exact(self):
        base, V = brute_force_deviation(HARMONIC.system, [1.0, 0.0], [0.0, 1.0],
                                        [1.0, 0.0], [0.0, 0.0], 1e-4, (0.0, 2 * np.pi), 1e-3)
        want = np.stack([np.cos(base.times), np.zeros_like(base.times)], axis=1)
        assert np.max(np.abs(V - want)) < 1e-8

    def test_matches_linearized_flow_on_sphere(self):
        su = SPHERE_FREE
        base, V = brute_force_deviation(su.system, su.q0, su.v0, [0.0, 0.0],
                                        [1.0, 0.0], 1e-4, (0.0, 2 * np.pi), 1e-3)
        v0, dv0 = linearization_initial_data(su.system, su.q0, su.v0,
                                             [0.0, 0.0], [1.0, 0.0])
        lin = integrate_deviation(base, v0, dv0)
        assert np.max(np.abs(V - lin.V)) < 1e-5
