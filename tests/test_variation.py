import numpy as np
import pytest

from jacobistab.dynamics import CurveGeometry, integrate_newton
from jacobistab.jacobi import equal_energy_projection, jacobi_metric
from jacobistab.systems import builtin_setup
from jacobistab.variation import (FunctionalReport, action_second_difference,
                                  evaluate_functionals,
                                  make_proper_variation,
                                  orthogonal_identity_residual,
                                  second_variation_LJ, second_variation_S,
                                  second_variation_S0J, theorem1_residual,
                                  theorem2_residual, write_sweep_csv)

FREE = builtin_setup("flat-free")
HARMONIC = builtin_setup("flat-harmonic")
GRAVITY = builtin_setup("uniform-gravity")
SPHERE_FREE = builtin_setup("sphere-free")


def _traj(setup, t_span=None, step=None):
    return integrate_newton(setup.system, setup.q0, setup.v0,
                            t_span or setup.t_span, step or setup.step)


class TestMakeProperVariation:
    def test_single_mode_is_sine(self):
        traj = _traj(FREE, (0.0, np.pi))
        var = make_proper_variation(traj, coefficients=[[0.0, 1.0]])
        assert np.max(np.abs(var.values[:, 1] - np.sin(traj.times))) < 1e-12
        assert np.max(np.abs(var.values[:, 0])) == 0.0

    def test_endpoints_exactly_zero(self):
        traj = _traj(HARMONIC, (0.0, 2.0))
        var = make_proper_variation(traj, modes=3, seed=42)
        assert np.all(var.values[0] == 0.0) and np.all(var.values[-1] == 0.0)

    def test_seed_determinism(self):
        traj = _traj(FREE, (0.0, 1.0))
        a = make_proper_variation(traj, modes=3, seed=7)
        b = make_proper_variation(traj, modes=3, seed=7)
        assert np.array_equal(a.values, b.values)

    def test_orthogonal_flag(self):
        traj = _traj(HARMONIC)
        var = make_proper_variation(traj, modes=3, seed=5, orthogonal=True,
                                    sys=HARMONIC.system)
        g = np.stack([HARMONIC.system.metric.g(q) for q in traj.points])
        orth = np.einsum('nij,ni,nj->n', g, traj.velocities, var.values)
        assert np.max(np.abs(orth)) < 1e-10

    def test_empty_spec_rejected(self):
        traj = _traj(FREE, (0.0, 1.0))
        with pytest.raises(ValueError, match="empty variation spec"):
            make_proper_variation(traj)
        with pytest.raises(ValueError, match="empty variation spec"):
            make_proper_variation(traj, coefficients=np.zeros((0, 2)))

    def test_coarse_grid_rejected(self):
        traj = integrate_newton(FREE.system, FREE.q0, FREE.v0, (0.0, 0.4), 0.1)
        with pytest.raises(ValueError, match="grid too coarse"):
            make_proper_variation(traj, seed=1)


class TestSecondVariationS:
    def test_zero_field(self):
        traj = _traj(FREE, (0.0, np.pi))
        var = make_proper_variation(traj, coefficients=[[0.0, 0.0]])
        assert second_variation_S(FREE.system, traj, var) == pytest.approx(0.0, abs=1e-15)

    def test_flat_line_sine_closed_form(self):
        # integral of sin^2 over [0, pi]
        traj = _traj(FREE, (0.0, np.pi))
        var = make_proper_variation(traj, coefficients=[[0.0, 1.0]])
        assert second_variation_S(FREE.system, traj, var) == pytest.approx(np.pi / 2, abs=1e-10)

    def test_harmonic_against_action_difference(self):
        traj = _traj(HARMONIC, (0.0, np.pi / 2))
        var = make_proper_variation(traj, modes=2, seed=3)
        quad = second_variation_S(HARMONIC.system, traj, var)
        brute = action_second_difference(HARMONIC.system, traj, var, xi=1e-3)
        assert quad == pytest.approx(brute, abs=1e-5)
        assert quad > 0.0

    def test_curved_chart_against_action_difference(self):
        su = builtin_setup("sphere-cos")
        traj = _traj(su, (0.0, 1.5))
        var = make_proper_variation(traj, modes=3, seed=9)
        quad = second_variation_S(su.system, traj, var)
        brute = action_second_difference(su.system, traj, var, xi=1e-3)
        assert quad == pytest.approx(brute, abs=1e-5)


class TestSecondVariationS0J:
    def test_constant_potential_equals_action_side(self):
        traj = _traj(SPHERE_FREE, (0.0, 2.0))
        var = make_proper_variation(traj, modes=3, seed=4)
        lhs = second_variation_S0J(SPHERE_FREE.system, 0.5, traj, var)
        rhs = second_variation_S(SPHERE_FREE.system, traj, var)
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_zero_field(self):
        traj = _traj(GRAVITY)
        var = make_proper_variation(traj, coefficients=[[0.0, 0.0]])
        assert second_variation_S0J(GRAVITY.system, 0.5, traj, var) == 0.0

    def test_against_free_action_second_difference(self):
        # brute-force d^2/dxi^2 of the free action of h over curves gamma + xi V
        su = GRAVITY
        traj = _traj(su)
        var = make_proper_variation(traj, modes=2, seed=8)
        quad = second_variation_S0J(su.system, su.energy, traj, var)

        from jacobistab.jacobi import geodesic_from_trajectory
        from scipy.integrate import simpson
        jm = jacobi_metric(su.system, su.energy)
        geo = geodesic_from_trajectory(jm, traj)
        w2 = jm.factor_values(traj.points)
        dv_ds = var.dvalues / w2[:, None]

        def free_action(xi):
            pts = geo.points + xi * var.values
            tans = geo.tangents + xi * dv_ds
            kin = np.array([0.5 * u @ jm.h.g(q) @ u for q, u in zip(pts, tans)])
            return float(simpson(kin, x=geo.s))

        xi = 1e-3
        brute = (free_action(xi) - 2 * free_action(0.0) + free_action(-xi)) / xi**2
        assert quad == pytest.approx(brute, abs=1e-5)


class TestSecondVariationLJ:
    def test_tangent_variation_gives_zero(self):
        traj = _traj(HARMONIC)
        span = traj.times[-1] - traj.times[0]
        bump = np.sin(np.pi * (traj.times - traj.times[0]) / span)
        var = make_proper_variation(traj, coefficients=[[0.0, 0.0]])
        object.__setattr__(var, "values", bump[:, None] * traj.velocities)
        object.__setattr__(var, "dvalues", np.zeros_like(var.values))
        assert abs(second_variation_LJ(HARMONIC.system, 1.0, traj, var)) < 1e-10

    def test_zero_field(self):
        traj = _traj(HARMONIC, (0.0, 2.0))
        var = make_proper_variation(traj, coefficients=[[0.0, 0.0]])
        assert second_variation_LJ(HARMONIC.system, 1.0, traj, var) == 0.0

    def test_sphere_conjugate_endpoint_annihilates(self):
        traj = _traj(SPHERE_FREE, (0.0, np.pi))
        var = make_proper_variation(traj, coefficients=[[1.0, 0.0]])  # sin(s) d_theta
        val = second_variation_LJ(SPHERE_FREE.system, 0.5, traj, var)
        assert abs(val) < 1e-4


class TestTheorems:
    def test_theorem1_constant_potential(self):
        traj = _traj(SPHERE_FREE, (0.0, 2.0))
        var = make_proper_variation(traj, modes=3, seed=12)
        rep = theorem1_residual(SPHERE_FREE.system, 0.5, traj, var)
        assert rep["correction"] == pytest.approx(0.0, abs=1e-12)
        assert rep["residual"] < 1e-8

    def test_theorem1_zero_field(self):
        traj = _traj(GRAVITY)
        var = make_proper_variation(traj, coefficients=[[0.0, 0.0]])
        rep = theorem1_residual(GRAVITY.system, 0.5, traj, var)
        assert rep["lhs"] == rep["rhs"] == 0.0

    def test_theorem1_gravity_sweep(self):
        traj = _traj(GRAVITY)
        worst = 0.0
        for seed in range(10):
            var = make_proper_variation(traj, modes=3, seed=100 + seed)
            worst = max(worst, theorem1_residual(GRAVITY.system, 0.5, traj, var)["residual"])
        assert worst < 1e-6

    def test_theorem2_orthogonal_constant_potential(self):
        traj = _traj(SPHERE_FREE, (0.0, 2.0))
        var = make_proper_variation(traj, modes=3, seed=13, orthogonal=True,
                                    sys=SPHERE_FREE.system)
        rep = theorem2_residual(SPHERE_FREE.system, 0.5, traj, var)
        # U constant and <qdot, DV> = 0 for orthogonal V along a geodesic
        assert rep["correction"] == pytest.approx(0.0, abs=1e-10)
        assert rep["residual"] < 1e-8

    def test_theorem2_harmonic_sweep(self):
        traj = _traj(HARMONIC)
        cache = CurveGeometry(HARMONIC.system.metric, traj.points, HARMONIC.system)
        jm = jacobi_metric(HARMONIC.system, 1.0)
        worst = 0.0
        correction_seen = 0.0
        for seed in range(5):
            var = make_proper_variation(traj, modes=3, seed=200 + seed)
            rep = theorem2_residual(HARMONIC.system, 1.0, traj, var, cache=cache, jm=jm)
            worst = max(worst, rep["residual"])
            correction_seen = max(correction_seen, rep["correction"])
            assert rep["integrand_min"] >= -1e-12
        assert worst < 1e-6
        assert correction_seen > 0.0

    def test_minimizing_direction(self):
        # d2S >= d2LJ: positive length-stability implies positive action-stability
        traj = _traj(GRAVITY)
        for seed in range(5):
            var = make_proper_variation(traj, modes=3, seed=300 + seed)
            rep = theorem2_residual(GRAVITY.system, 0.5, traj, var)
            assert rep["d2S"] - rep["lhs"] >= -1e-8


class TestOrthogonalIdentity:
    def test_constant_potential_reduces(self):
        traj = _traj(SPHERE_FREE, (0.0, 2.0))
        var = make_proper_variation(traj, modes=3, seed=21, orthogonal=True,
                                    sys=SPHERE_FREE.system)
        rep = orthogonal_identity_residual(SPHERE_FREE.system, 0.5, traj, var)
        assert rep["correction"] == pytest.approx(0.0, abs=1e-12)
        assert rep["residual"] < 1e-8

    def test_zero_field(self):
        traj = _traj(GRAVITY)
        var = make_proper_variation(traj, coefficients=[[0.0, 0.0]])
        rep = orthogonal_identity_residual(GRAVITY.system, 0.5, traj, var)
        assert rep["lhs"] == rep["rhs"] == 0.0

    def test_gravity_orthogonal_bump(self):
        traj = _traj(GRAVITY)
        var = make_proper_variation(traj, modes=3, seed=22, orthogonal=True,
                                    sys=GRAVITY.system)
        rep = orthogonal_identity_residual(GRAVITY.system, 0.5, traj, var)
        assert rep["residual"] < 1e-6
        assert rep["pathway_delta"] < 1e-6

    def test_non_orthogonal_rejected(self):
        traj = _traj(GRAVITY)
        var = make_proper_variation(traj, modes=3, seed=23)
        with pytest.raises(ValueError, match="not orthogonal"):
            orthogonal_identity_residual(GRAVITY.system, 0.5, traj, var)


class TestQuadratureConvergence:
    def test_residual_drops_with_step(self):
        su = GRAVITY
        coarse = integrate_newton(su.system, su.q0, su.v0, su.t_span, 1.6e-2)
        fine = integrate_newton(su.system, su.q0, su.v0, su.t_span, 8e-3)
        res = []
        for traj in (coarse, fine):
            var = make_proper_variation(traj, modes=3, seed=31)
            res.append(theorem1_residual(su.system, 0.5, traj, var)["residual"])
        assert res[1] < res[0] / 4.0


class TestEqualEnergyVariation:
    def test_orthogonal_input_satisfies_constraint(self):
        traj = _traj(HARMONIC)
        var = make_proper_variation(traj, modes=2, seed=41, orthogonal=True,
                                    sys=HARMONIC.system)
        dev = equal_energy_projection(HARMONIC.system, traj, var.values)
        g = np.stack([HARMONIC.system.metric.g(q) for q in traj.points])
        resid = (np.einsum('nij,ni,nj->n', g, traj.velocities, dev.DV)
                 + np.einsum('nij,ni,nj->n', g, traj.points, dev.V))
        assert np.max(np.abs(resid)) < 1e-8


class TestReports:
    def test_report_and_sweep_csv(self, tmp_path):
        traj = _traj(GRAVITY)
        var = make_proper_variation(traj, modes=3, seed=51)
        orth = make_proper_variation(traj, modes=3, seed=52, orthogonal=True,
                                     sys=GRAVITY.system)
        rep = evaluate_functionals(GRAVITY.system, 0.5, traj, var, orth_var=orth)
        assert isinstance(rep, FunctionalReport)
        assert rep.thm1_residual < 1e-6 and rep.thm2_residual < 1e-6
        assert rep.orth_residual < 1e-6
        out = tmp_path / "sweep.csv"
        write_sweep_csv(out, [rep])
        lines = out.read_text().splitlines()
        assert lines[0] == ("system,E,seed,d2S,d2S0J,d2LJ,"
                            "thm1_residual,thm2_residual,orth_residual")
        assert len(lines) == 2

    def test_each_functional_evaluated_once_per_field(self, monkeypatch):
        import inspect

        from jacobistab import variation
        from jacobistab.verify import check_theorems

        calls = []

        def counting(name):
            fn = getattr(variation, name)
            sig = inspect.signature(fn)

            def wrapped(*args, **kwargs):
                calls.append((name, sig.bind(*args, **kwargs).arguments["var"].seed))
                return fn(*args, **kwargs)
            return wrapped

        for name in ("second_variation_S", "second_variation_S0J", "second_variation_LJ"):
            monkeypatch.setattr(variation, name, counting(name))
        check_theorems(n_variations=2, system_names=["flat-harmonic"])
        assert len(calls) == 10                 # 5 per variation pair
        assert len(set(calls)) == len(calls)
