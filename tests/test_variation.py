import numpy as np
import pytest

from jacobistab import variation
from jacobistab.cli import _SWEEP_COLUMNS, _write_csv
from jacobistab.dynamics import integrate_newton
from jacobistab.geometry import orthogonal_part
from jacobistab.jacobi import equal_energy_projection
from jacobistab.systems import BUILTIN_SYSTEMS, builtin_setup
from jacobistab.variation import (FunctionalReport, action_second_difference,
                                  evaluate_functionals,
                                  make_proper_variation,
                                  second_variation_LJ, second_variation_S,
                                  second_variation_S0J)

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
        var = make_proper_variation(traj, modes=3, seed=5, orthogonal=True)
        g = np.stack([HARMONIC.system.metric.g(q) for q in traj.points])
        orth = np.einsum('nij,ni,nj->n', g, traj.velocities, var.values)
        assert np.max(np.abs(orth)) < 1e-10

    @pytest.mark.parametrize("name", BUILTIN_SYSTEMS)
    def test_orthogonal_flag_is_the_projected_field(self, name):
        # the g-orthogonal part of the plain field, endpoints kept at zero
        traj = _traj(builtin_setup(name), (0.0, 0.5))
        coefficients = np.random.default_rng(1).uniform(-1.0, 1.0, (1, 2))
        plain = make_proper_variation(traj, coefficients=coefficients)
        orth = make_proper_variation(traj, coefficients=coefficients, orthogonal=True)
        assert np.array_equal(orth.values,
                              orthogonal_part(traj.curve.g, traj.velocities, plain.values))

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
        assert second_variation_S(traj, var) == pytest.approx(0.0, abs=1e-15)

    def test_flat_line_sine_closed_form(self):
        # integral of sin^2 over [0, pi]
        traj = _traj(FREE, (0.0, np.pi))
        var = make_proper_variation(traj, coefficients=[[0.0, 1.0]])
        assert second_variation_S(traj, var) == pytest.approx(np.pi / 2, abs=1e-10)

    def test_harmonic_against_action_difference(self):
        traj = _traj(HARMONIC, (0.0, np.pi / 2))
        var = make_proper_variation(traj, modes=2, seed=3)
        quad = second_variation_S(traj, var)
        brute = action_second_difference(traj, var, xi=1e-3)
        assert quad == pytest.approx(brute, abs=1e-5)
        assert quad > 0.0

    def test_curved_chart_against_action_difference(self):
        su = builtin_setup("sphere-cos")
        traj = _traj(su, (0.0, 1.5))
        var = make_proper_variation(traj, modes=3, seed=9)
        quad = second_variation_S(traj, var)
        brute = action_second_difference(traj, var, xi=1e-3)
        assert quad == pytest.approx(brute, abs=1e-5)


class TestSecondVariationS0J:
    def test_constant_potential_equals_action_side(self):
        traj = _traj(SPHERE_FREE, (0.0, 2.0))
        var = make_proper_variation(traj, modes=3, seed=4)
        lhs = second_variation_S0J(traj, var)
        rhs = second_variation_S(traj, var)
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_zero_field(self):
        traj = _traj(GRAVITY)
        var = make_proper_variation(traj, coefficients=[[0.0, 0.0]])
        assert second_variation_S0J(traj, var) == 0.0

    def test_against_free_action_second_difference(self):
        # brute-force d^2/dxi^2 of the free action of h over curves gamma + xi V
        su = GRAVITY
        traj = _traj(su)
        var = make_proper_variation(traj, modes=2, seed=8)
        quad = second_variation_S0J(traj, var)

        from scipy.integrate import simpson
        jm, geo = traj.jm, traj.geo
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
        assert abs(second_variation_LJ(traj, var)) < 1e-10

    def test_zero_field(self):
        traj = _traj(HARMONIC, (0.0, 2.0))
        var = make_proper_variation(traj, coefficients=[[0.0, 0.0]])
        assert second_variation_LJ(traj, var) == 0.0

    def test_sphere_conjugate_endpoint_annihilates(self):
        traj = _traj(SPHERE_FREE, (0.0, np.pi))
        var = make_proper_variation(traj, coefficients=[[1.0, 0.0]])  # sin(s) d_theta
        val = second_variation_LJ(traj, var)
        assert abs(val) < 1e-4


class TestTheorems:
    def test_theorem1_constant_potential(self):
        traj = _traj(SPHERE_FREE, (0.0, 2.0))
        var = make_proper_variation(traj, modes=3, seed=12)
        rep = evaluate_functionals(traj, var)
        assert rep.thm1_correction == pytest.approx(0.0, abs=1e-12)
        assert rep.thm1_residual < 1e-8

    def test_theorem1_zero_field(self):
        traj = _traj(GRAVITY)
        var = make_proper_variation(traj, coefficients=[[0.0, 0.0]])
        rep = evaluate_functionals(traj, var)
        assert rep.d2S0J == rep.d2S + rep.thm1_correction == 0.0

    def test_theorem1_gravity_sweep(self):
        traj = _traj(GRAVITY)
        worst = 0.0
        for seed in range(10):
            var = make_proper_variation(traj, modes=3, seed=100 + seed)
            worst = max(worst, evaluate_functionals(traj, var).thm1_residual)
        assert worst < 1e-6

    def test_theorem2_orthogonal_constant_potential(self):
        traj = _traj(SPHERE_FREE, (0.0, 2.0))
        var = make_proper_variation(traj, modes=3, seed=13, orthogonal=True)
        rep = evaluate_functionals(traj, var)
        # U constant and <qdot, DV> = 0 for orthogonal V along a geodesic
        assert rep.thm2_correction == pytest.approx(0.0, abs=1e-10)
        assert rep.thm2_residual < 1e-8

    def test_theorem2_harmonic_sweep(self):
        traj = _traj(HARMONIC)
        worst = 0.0
        correction_seen = 0.0
        for seed in range(5):
            var = make_proper_variation(traj, modes=3, seed=200 + seed)
            rep = evaluate_functionals(traj, var)
            worst = max(worst, rep.thm2_residual)
            correction_seen = max(correction_seen, rep.thm2_correction)
            assert rep.integrand_min >= -1e-12
        assert worst < 1e-6
        assert correction_seen > 0.0

    def test_minimizing_direction(self):
        # d2S >= d2LJ: positive length-stability implies positive action-stability
        traj = _traj(GRAVITY)
        for seed in range(5):
            var = make_proper_variation(traj, modes=3, seed=300 + seed)
            rep = evaluate_functionals(traj, var)
            assert rep.d2S - rep.d2LJ >= -1e-8


class TestOrthogonalIdentity:
    # with var = orth_var, the report's d2S and d2LJ are those of the
    # orthogonal field
    def test_constant_potential_reduces(self):
        traj = _traj(SPHERE_FREE, (0.0, 2.0))
        var = make_proper_variation(traj, modes=3, seed=21, orthogonal=True)
        rep = evaluate_functionals(traj, var, orth_var=var)
        assert rep.orth_residual == abs(rep.d2S - rep.d2LJ)   # zero h-gradient correction
        assert rep.orth_residual < 1e-8
        assert rep.pathway_delta < 1e-12

    def test_zero_field(self):
        traj = _traj(GRAVITY)
        var = make_proper_variation(traj, coefficients=[[0.0, 0.0]])
        rep = evaluate_functionals(traj, var, orth_var=var)
        assert rep.d2S == rep.d2LJ == rep.orth_residual == 0.0

    def test_gravity_orthogonal_bump(self):
        traj = _traj(GRAVITY)
        var = make_proper_variation(traj, modes=3, seed=22, orthogonal=True)
        rep = evaluate_functionals(traj, var, orth_var=var)
        assert rep.orth_residual < 1e-6
        assert rep.pathway_delta < 1e-6

    def test_non_orthogonal_rejected(self):
        traj = _traj(GRAVITY)
        var = make_proper_variation(traj, modes=3, seed=23)
        with pytest.raises(ValueError, match="not orthogonal"):
            evaluate_functionals(traj, var, orth_var=var)


class TestQuadratureConvergence:
    def test_residual_drops_with_step(self):
        su = GRAVITY
        coarse = integrate_newton(su.system, su.q0, su.v0, su.t_span, 1.6e-2)
        fine = integrate_newton(su.system, su.q0, su.v0, su.t_span, 8e-3)
        res = []
        for traj in (coarse, fine):
            var = make_proper_variation(traj, modes=3, seed=31)
            res.append(evaluate_functionals(traj, var).thm1_residual)
        assert res[1] < res[0] / 4.0


class TestEqualEnergyVariation:
    def test_orthogonal_input_satisfies_constraint(self):
        traj = _traj(HARMONIC)
        var = make_proper_variation(traj, modes=2, seed=41, orthogonal=True)
        dev = equal_energy_projection(traj, var.values)
        g = np.stack([HARMONIC.system.metric.g(q) for q in traj.points])
        resid = (np.einsum('nij,ni,nj->n', g, traj.velocities, dev.DV)
                 + np.einsum('nij,ni,nj->n', g, traj.points, dev.V))
        assert np.max(np.abs(resid)) < 1e-8


class TestReports:
    def test_report_and_sweep_csv(self, tmp_path):
        traj = _traj(GRAVITY)
        var = make_proper_variation(traj, modes=3, seed=51)
        orth = make_proper_variation(traj, modes=3, seed=52, orthogonal=True)
        rep = evaluate_functionals(traj, var, orth_var=orth)
        assert isinstance(rep, FunctionalReport)
        assert rep.thm1_residual < 1e-6 and rep.thm2_residual < 1e-6
        assert rep.orth_residual < 1e-6
        out = tmp_path / "sweep.csv"
        _write_csv(out, [(c, [getattr(rep, c)]) for c in _SWEEP_COLUMNS])
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

    def test_each_field_forms_its_deviation_once(self, monkeypatch):
        # DV = dV/dt + Γ(qdot, V) of a field serves all its functionals
        formed = []
        field_type = variation.DeviationField

        def counting(traj, V, DV):
            formed.append(id(V))
            return field_type(traj, V, DV)

        monkeypatch.setattr(variation, "DeviationField", counting)
        traj = _traj(GRAVITY)
        var = make_proper_variation(traj, modes=3, seed=51)
        orth = make_proper_variation(traj, modes=3, seed=52, orthogonal=True)
        evaluate_functionals(traj, var, orth_var=orth)
        assert sorted(formed) == sorted([id(var.values), id(orth.values)])

    def test_orbit_data_built_once(self, monkeypatch):
        import sys
        from functools import cached_property

        from jacobistab import jacobi
        from jacobistab.dynamics import CurveGeometry, Trajectory
        from jacobistab.verify import check_theorems

        geodesic_views, caches, accelerations = [], [], []
        view = jacobi.geodesic_from_trajectory
        init = CurveGeometry.__init__
        acceleration = Trajectory.__dict__["cov_acceleration"].func

        def counting_acceleration(self):
            accelerations.append(self)
            return acceleration(self)

        counted = cached_property(counting_acceleration)
        counted.__set_name__(Trajectory, "cov_acceleration")

        def counting_view(*args):
            geodesic_views.append(args)
            return view(*args)

        def counting_init(self, metric, params, points, tangents, sys=None):
            caches.append(metric.name)
            init(self, metric, params, points, tangents, sys)

        for name, mod in list(sys.modules.items()):     # every reference to it
            if (name.startswith("jacobistab")
                    and getattr(mod, "geodesic_from_trajectory", None) is view):
                monkeypatch.setattr(mod, "geodesic_from_trajectory", counting_view)
        monkeypatch.setattr(CurveGeometry, "__init__", counting_init)
        monkeypatch.setattr(Trajectory, "cov_acceleration", counted)
        check_theorems(n_variations=2, system_names=["sphere-cos"])
        assert len(geodesic_views) == 1
        assert caches == ["sphere", "jacobi(sphere-cos)"]     # one g-curve, one h-curve
        assert len(accelerations) == 1
