"""Point evaluators and the point kernel: the RK4 stages of the Newton flow
and of the h-geodesic flow run on Python floats for systems that carry
point evaluators, and reproduce the batched path bit for bit.  The batched
run is forced by dropping the point evaluators with ``dataclasses.replace``."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacobistab import dynamics, geometry, jacobi
from jacobistab.cli import Experiment, build_parser, main, parse_config_text
from jacobistab.dynamics import brute_force_deviation, integrate_newton
from jacobistab.errors import ChartDomainError
from jacobistab.geometry import point_kernel, point_metric
from jacobistab.jacobi import integrate_geodesic, jacobi_metric
from jacobistab.systems import BUILTIN_SYSTEMS, SAMPLE_BOXES, all_setups, builtin_setup

SETUPS = {su.name: su for su in all_setups()}


def batched(sys):
    """``sys`` without its point evaluators: every stage runs batched."""
    return dataclasses.replace(sys, metric=dataclasses.replace(sys.metric, point=None),
                               potential=dataclasses.replace(sys.potential, point=None))


def custom(text):
    """The system and initial data of a custom config."""
    exp = Experiment(parse_config_text("system = custom\n" + text),
                     build_parser().parse_args(["simulate"]))
    return exp.sys, exp.q0, exp.v0


def assert_same_records(a, b, fields):
    for name in fields:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_every_builtin_takes_the_point_path():
    for su in SETUPS.values():
        assert su.system.metric.point is not None and su.system.potential.point is not None


@pytest.mark.parametrize("name", BUILTIN_SYSTEMS)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(unit=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
       v=st.tuples(st.floats(-20.0, 20.0), st.floats(-20.0, 20.0)))
def test_point_evaluators_equal_batched(name, unit, v):
    su = SETUPS[name]
    sys = su.system
    lo, hi = (np.asarray(b) for b in SAMPLE_BOXES[su.system.metric.name])
    p = lo + np.asarray(unit) * (hi - lo)
    q = p.tolist()
    g, dg = point_metric(sys.metric, q)
    U, dU = sys.potential.point(q)
    assert np.array_equal(g, sys.metric.g(p).ravel())
    assert np.array_equal(dg, sys.metric.dg(p).ravel())
    assert U == sys.potential(p)
    assert np.array_equal(dU, sys.potential.grad_components(p))
    acc = point_kernel(2)(q, g, dg, dU, list(v))
    assert np.array_equal(acc, sys.acceleration(p, np.asarray(v)))


@pytest.mark.parametrize("name", BUILTIN_SYSTEMS)
def test_point_evaluators_equal_batched_at_many_points(name):
    # one rounding step transcribed otherwise shows at a few points in a
    # thousand: the sphere's sin^2 as s*s differs at 163 of 200000
    su = SETUPS[name]
    sys = su.system
    lo, hi = (np.asarray(b) for b in SAMPLE_BOXES[su.system.metric.name])
    for p in np.random.default_rng(11).uniform(lo, hi, (5000, 2)):
        q = p.tolist()
        g, dg = sys.metric.point(q)
        U, dU = sys.potential.point(q)
        assert (g == tuple(sys.metric.g(p).ravel()) and dg == tuple(sys.metric.dg(p).ravel())
                and U == sys.potential(p) and dU == tuple(sys.potential.grad_components(p)))


@pytest.mark.parametrize("name", BUILTIN_SYSTEMS)
def test_orbits_equal_batched(name):
    su = SETUPS[name]
    ref = batched(su.system)
    traj = integrate_newton(su.system, su.q0, su.v0, su.t_span, su.step)
    assert_same_records(traj, integrate_newton(ref, su.q0, su.v0, su.t_span, su.step),
                        ("times", "points", "velocities"))
    span = (0.0, float(traj.geo.s[-1]))
    jm, jm_ref = jacobi_metric(su.system, traj.energy), jacobi_metric(ref, traj.energy)
    fields = ("s", "points", "tangents", "t_of_s", "truncated")
    assert_same_records(integrate_geodesic(jm, su.q0, su.v0, span, su.step),
                        integrate_geodesic(jm_ref, su.q0, su.v0, span, su.step), fields)
    # the adaptive solver and the brute-force oracle over a quarter span
    short = (0.0, 0.25 * span[1])
    assert_same_records(integrate_geodesic(jm, su.q0, su.v0, short, su.step, method="rk45"),
                        integrate_geodesic(jm_ref, su.q0, su.v0, short, su.step,
                                           method="rk45"), fields)
    t_short = (su.t_span[0], su.t_span[0] + 0.25 * (su.t_span[1] - su.t_span[0]))
    args = (su.q0, su.v0, [0.1, -0.2], [1.0, 0.5], 1e-4, t_short, su.step)
    assert np.array_equal(brute_force_deviation(su.system, *args)[1],
                          brute_force_deviation(ref, *args)[1])


def test_custom_sphere_equals_batched():
    # sin(q1)^2 and cos(q1) evaluate to the built-in bits on floats too
    sys, q0, v0 = custom("metric.g.2.2 = sin(q1)^2\npotential = cos(q1)\n"
                         "q0 = 1.5707963267948966, 0\nv0 = 0, 1\n")
    a = integrate_newton(sys, q0, v0, (0.0, 2.0), 2e-3)
    b = integrate_newton(batched(sys), q0, v0, (0.0, 2.0), 2e-3)
    assert_same_records(a, b, ("points", "velocities"))


def test_non_diagonal_metric_agrees_with_batched():
    # a closed-form inverse: not LAPACK's bits, the same orbit to roundoff
    sys, q0, v0 = custom("metric.dim = 3\nmetric.g.1.1 = 1 + 0.1*sin(q2)^2\n"
                         "metric.g.2.2 = 1 + 0.05*q1^2\nmetric.g.3.3 = 1 + 0.3*sin(q1)^2\n"
                         "metric.g.1.3 = 0.05*cos(q2)\npotential = 0.1*q1^2 + 0.1*q2^2\n"
                         "q0 = 0.5, 0, 0\nv0 = 0, 0.8, 0.6\n")
    a = integrate_newton(sys, q0, v0, (0.0, 1.0), 2e-3)
    b = integrate_newton(batched(sys), q0, v0, (0.0, 1.0), 2e-3)
    assert np.max(np.abs(a.points - b.points)) < 1e-13
    jm, jm_ref = jacobi_metric(sys, a.energy), jacobi_metric(batched(sys), a.energy)
    ga = integrate_geodesic(jm, q0, v0, (0.0, 1.0), 2e-3)
    gb = integrate_geodesic(jm_ref, q0, v0, (0.0, 1.0), 2e-3)
    assert np.max(np.abs(ga.points - gb.points)) < 1e-13


def test_singular_metric_raises_as_batched():
    q = [0.3, 0.4]
    for g in ([1.0, 2.0, 2.0, 4.0], [0.0, 0.0, 0.0, 1.0], [np.nan, 0.0, 0.0, 1.0]):
        with pytest.raises(geometry.DegenerateMetricError) as exc:
            point_kernel(2)(q, g, [0.0] * 8, [0.0, 0.0], [1.0, 0.0])
        assert str(exc.value) == "degenerate metric at [0.3, 0.4]"


class TestFailures:
    def test_sphere_domain_exit_at_same_time(self):
        su = SETUPS["sphere-free"]
        args = ([1.5707963267948966, 0.0], [1.0, 0.0], (0.0, 2.0), 1e-3)
        messages = []
        for sys in (su.system, batched(su.system)):
            with pytest.raises(ChartDomainError) as exc:
                integrate_newton(sys, *args)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith("left chart domain at t=")

    def test_oracle_reports_first_failing_run(self):
        # all three runs reach the pole; the plus run, started faster, first,
        # but the base run is integrated first and its failure is reported
        su = SETUPS["sphere-free"]
        args = ([1.5, 0.0], [1.0, 0.0], [0.0, 0.0], [1.0, 0.0], 1e-2, (0.0, 2.0), 1e-3)
        messages = []
        for sys in (su.system, batched(su.system)):
            with pytest.raises(ChartDomainError) as exc:
                brute_force_deviation(sys, *args)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]
        runs = []
        for v0 in ([1.0, 0.0], [1.01, 0.0]):
            with pytest.raises(ChartDomainError) as exc:
                integrate_newton(su.system, [1.5, 0.0], v0, (0.0, 2.0), 1e-3)
            runs.append(str(exc.value))
        assert messages[0] == runs[0] != runs[1]

    def test_geodesic_truncation_equal_on_both_paths(self):
        su = SETUPS["uniform-gravity"]
        fields = ("s", "points", "tangents", "t_of_s", "truncated")
        records = [integrate_geodesic(jacobi_metric(sys, 0.5), [0.0, 0.0], [1.0, 0.0],
                                      (0.0, 0.4), 1e-3)
                   for sys in (su.system, batched(su.system))]
        assert records[0].truncated and len(records[0]) == 334
        assert_same_records(*records, fields)

    def test_expression_undefined_mid_orbit_exit_3(self, tmp_path, capsys):
        # ln(q1) is defined at q0 and pulls the orbit across q1 = 0
        cfg = tmp_path / "ln.cfg"
        cfg.write_text("system = custom\npotential = ln(q1)\n"
                       "q0 = 0.5, 0.0\nv0 = -1.0, 0.0\nt_span = 0.0, 2.0\n")
        assert main(["simulate", "--config", cfg.as_posix(),
                     "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("numerical failure: left chart domain")
        assert "undefined" in err[0]


class TestNoSilentFallback:
    """No RK4 stage of a system with point evaluators calls the batched
    acceleration or Christoffel symbols."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"acceleration": 0, "christoffel": 0}
        acceleration = dynamics.MechanicalSystem.acceleration
        christoffel = geometry.christoffel

        def counted_acceleration(self, q, v):
            counts["acceleration"] += 1
            return acceleration(self, q, v)

        def counted_christoffel(*args, **kwargs):
            counts["christoffel"] += 1
            return christoffel(*args, **kwargs)

        monkeypatch.setattr(dynamics.MechanicalSystem, "acceleration", counted_acceleration)
        for module in (geometry, dynamics, jacobi):
            monkeypatch.setattr(module, "christoffel", counted_christoffel)
        return counts

    SYSTEMS = {
        "sphere-cos": lambda: (builtin_setup("sphere-cos").system,
                               [1.5707963267948966, 0.0], [0.0, 1.0]),
        "custom": lambda: custom("metric.g.1.1 = 1 + q2^2\npotential = 0.1*q1^2\n"
                                 "q0 = 0.2, 0.1\nv0 = 0.3, 0.4\n"),
    }

    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    def test_stages_never_call_the_batched_path(self, counts, name):
        sys, q0, v0 = self.SYSTEMS[name]()
        traj = integrate_newton(sys, q0, v0, (0.0, 0.5), 1e-3)
        integrate_geodesic(traj.jm, q0, v0, (0.0, 0.2), 1e-3)
        integrate_geodesic(traj.jm, q0, v0, (0.0, 0.2), 1e-3, method="rk45")
        assert counts == {"acceleration": 0, "christoffel": 0}
        # the counters do see the batched path
        ref = batched(sys)
        integrate_newton(ref, q0, v0, (0.0, 0.01), 1e-3)
        integrate_geodesic(jacobi_metric(ref, traj.energy), q0, v0, (0.0, 0.01), 1e-3)
        assert counts == {"acceleration": 40, "christoffel": 40}
