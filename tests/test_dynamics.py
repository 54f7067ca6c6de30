
import time
import tracemalloc

import numpy as np
import pytest

from jacobistab.cli import _write_csv
from jacobistab.dynamics import (DeviationField, MechanicalSystem, Trajectory,
                                 brute_force_deviation,
                                 hessian_operator, integrate_deviation, integrate_newton,
                                 linearization_initial_data)
from jacobistab.errors import ChartDomainError, EnergyDriftError, GeometryError
from jacobistab.geometry import ScalarField
from jacobistab.systems import (BUILTIN_SYSTEMS, builtin_setup, flat_metric,
                                mechanical_system)
from numpy_reference import reference_deviation

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


class TestDeviationStage:
    # the batched reference evaluates Γ, R and A with numpy at every stage,
    # so it runs over the first steps of each orbit
    STEPS = 1200

    @pytest.mark.parametrize("name", BUILTIN_SYSTEMS)
    def test_equals_numpy_reference(self, name):
        su = builtin_setup(name)
        traj = integrate_newton(su.system, su.q0, su.v0, su.t_span, su.step)
        rng = np.random.default_rng(11)
        for _ in range(3):
            v0, dv0 = rng.uniform(-1.0, 1.0, (2, traj.dim))
            dev = integrate_deviation(traj, v0, dv0)
            orbit, V, DV = reference_deviation(traj, v0, dv0, min(self.STEPS, len(traj) - 1))
            assert np.array_equal(orbit, np.hstack([traj.points, traj.velocities])[:len(V)])
            assert np.array_equal(dev.V[:len(V)], V)
            assert np.array_equal(dev.DV[:len(V)], DV)

    def test_dense_hessian_within_rounding(self):
        # a cubic potential on flat R^3 has a raised Hessian with nonzero
        # off-diagonal entries; BLAS sums each row of ``hess @ V`` in an
        # order of its own (with fused multiply-adds), which the stage's
        # left-to-right sum reproduces only to the last bit
        sys_ = mechanical_system(flat_metric(3), "0.1*q1^3 + 0.2*q1*q2*q3 + 0.05*q2^2*q3")
        traj = integrate_newton(sys_, [0.3, -0.2, 0.4], [0.5, 0.6, -0.3], (0.0, 2.0), 1e-3)
        v0, dv0 = np.random.default_rng(2).uniform(-1.0, 1.0, (2, 3))
        dev = integrate_deviation(traj, v0, dv0)
        _, V, DV = reference_deviation(traj, v0, dv0)
        assert np.max(np.abs(dev.V - V)) <= 1e-13 * np.max(np.abs(V))
        assert np.max(np.abs(dev.DV - DV)) <= 1e-13 * np.max(np.abs(DV))

    def test_overflow_is_a_geometry_error(self):
        traj = integrate_newton(FREE.system, [0.0, 0.0], [1.0, 0.0], (0.0, 0.1), 1e-2)
        with pytest.raises(GeometryError, match="not finite at sample 1 "):
            integrate_deviation(traj, [1.7e308, 0.0], [1.7e308, 0.0])

    def test_orbit_must_be_the_rk4_orbit(self):
        # the flow runs the orbit again from its first sample; a record that
        # is not that orbit bit for bit is refused
        traj = integrate_newton(HARMONIC.system, [1.0, 0.0], [0.0, 1.0], (0.0, 0.1), 1e-2)
        moved = traj.points.copy()
        moved[5, 1] = np.nextafter(moved[5, 1], 1.0)
        other = Trajectory(traj.times, moved, traj.velocities, traj.energy, traj.step,
                           traj.energy_drift, traj.system)
        assert np.array_equal(integrate_deviation(traj, [1.0, 0.0], [0.0, 0.0]).trajectory.points,
                              traj.points)
        with pytest.raises(ValueError, match="not the RK4 orbit"):
            integrate_deviation(other, [1.0, 0.0], [0.0, 0.0])


def deviation_peak(traj, V0, DV0):
    """The field and the ``tracemalloc`` peak of one ``integrate_deviation``
    call, its stage compiled and warmed up on the first steps beforehand,
    and the bytes of the orbit, V and DV it returns."""
    head = Trajectory(traj.times[:3], traj.points[:3], traj.velocities[:3], traj.energy,
                      traj.step, traj.energy_drift, traj.system)
    integrate_deviation(head, V0, DV0)
    tracemalloc.start()
    try:
        dev = integrate_deviation(traj, V0, DV0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    outputs = sum(a.nbytes for a in (traj.points, traj.velocities, dev.V, dev.DV))
    return dev, peak, outputs


# the peak of a deviation over what it returns: one RK4 sample array holds
# the orbit, V and DV, and the finiteness checks add about a tenth of it
PEAK_RATIO = 4.0


def test_deviation_memory_bounded_by_its_outputs():
    su = builtin_setup("sphere-cos")
    traj = integrate_newton(su.system, su.q0, su.v0, (0.0, 40.0), 2e-3)
    assert len(traj) > 20_000
    _, peak, outputs = deviation_peak(traj, [0.3, -0.2], [0.1, 0.4])
    assert peak <= PEAK_RATIO * outputs, (peak, outputs)


@pytest.mark.slow
def test_henon_heiles_million_step_deviation_in_bounded_memory():
    # 10^6 RK4 steps of 1e-3 at E = 1/8; run with ``pytest -m slow``
    sys_ = mechanical_system(flat_metric(2), "0.5*(q1^2 + q2^2) + q1^2*q2 - q2^3/3")
    q0, v0 = [0.0, 0.1], [0.4, 0.1]
    v0[1] = float(np.sqrt(0.25 - 2.0 * sys_.potential(np.array(q0)) - v0[0] ** 2))
    assert sys_.energy(q0, v0) == pytest.approx(0.125, rel=1e-14)
    start = time.perf_counter()
    traj = integrate_newton(sys_, q0, v0, (0.0, 1000.0), 1e-3)
    dev, peak, outputs = deviation_peak(traj, [1.0, 0.0], [0.0, 1.0])
    print(f"\n10^6-step deviation: {time.perf_counter() - start:.1f} s with its orbit, "
          f"tracemalloc peak {peak / 2**20:.1f} MiB for {outputs / 2**20:.1f} MiB of outputs")
    assert len(traj) == 1_000_001 and np.isfinite(dev.V).all()
    assert peak <= PEAK_RATIO * outputs, (peak, outputs)


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
