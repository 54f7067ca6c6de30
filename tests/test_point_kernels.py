"""Point evaluators and the point kernel: the generated RK4 stages of the
Newton flow and of the h-geodesic flow run on Python floats for systems that
carry point evaluators, and reproduce the batched path bit for bit.  The
batched run is forced by dropping the point evaluators with
``dataclasses.replace``."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from jacobistab import dynamics, geometry, jacobi
from jacobistab.cli import Experiment, build_parser, main, parse_config_text
from jacobistab.dynamics import (MechanicalSystem, brute_force_deviation, integrate_deviation,
                                 integrate_newton)
from jacobistab.errors import ChartDomainError, GeometryError
from jacobistab.expressions import metric_from_exprs
from jacobistab.geometry import ChartMetric, ScalarField, point_source
from jacobistab.jacobi import RK45_ATOL, RK45_RTOL, integrate_geodesic, jacobi_metric
from jacobistab.systems import (BUILTIN_SYSTEMS, SAMPLE_BOXES, all_setups, builtin_setup,
                               mechanical_system, metric_by_name)
from numpy_reference import (geodesic_rhs, list_deviation_rhs, list_geodesic_rhs,
                             list_newton_rhs, list_rk4, newton_rhs, numpy_rk4, simpson_time)

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


# CHART3 of the benchmark's custom-chart workload: an off-diagonal 3-D
# metric, inverted in closed form
CHART3 = ("metric.dim = 3\nmetric.g.1.1 = 1 + 0.1*sin(q2)^2\n"
          "metric.g.2.2 = 1 + 0.05*q1^2\nmetric.g.3.3 = 1 + 0.3*sin(q1)^2\n"
          "metric.g.1.3 = 0.05*cos(q2)\npotential = 0.1*q1^2 + 0.1*q2^2\n"
          "q0 = 0.5, 0, 0\nv0 = 0, 0.8, 0.6\n")


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
    g, dg, _ = sys.metric.point(q)
    U, dU, _ = sys.potential.point(q)
    assert np.array_equal(g, sys.metric.g(p).ravel())
    assert np.array_equal(dg, sys.metric.dg(p).ravel())
    assert U == sys.potential(p)
    assert np.array_equal(dU, sys.potential.grad_components(p))
    acc = dynamics._stage(sys)(0.0, *q, *v)[2:]
    assert np.array_equal(acc, sys.acceleration(p, np.asarray(v)))


def sampled(name):
    """The system, its energy at the reference initial data and a box of
    sample points, for a built-in or for ``"chart3"``."""
    if name == "chart3":
        sys, q0, v0 = custom(CHART3)
        return sys, sys.energy(q0, v0), (np.full(3, -2.5), np.full(3, 2.5))
    su = SETUPS[name]
    lo, hi = (np.asarray(b) for b in SAMPLE_BOXES[su.system.metric.name])
    return su.system, su.system.energy(su.q0, su.v0), (lo, hi)


@pytest.mark.parametrize("name", [*BUILTIN_SYSTEMS, "chart3"])
def test_point_evaluators_equal_batched_at_many_points(name):
    # one rounding step transcribed otherwise shows at a few points in a
    # thousand: sin(q0)^2 as s*s, not C pow, differs at 163 of 200000.  CHART3
    # is compiled: its q^2 is C pow on floats and numpy's power in a batch,
    # so its point evaluators agree to roundoff, and h's with them.  The
    # second partials are pinned wherever the first partials are
    sys, E, (lo, hi) = sampled(name)
    jm = jacobi_metric(sys, E)
    clear = 0
    for p in np.random.default_rng(11).uniform(lo, hi, (5000, lo.size)):
        q = p.tolist()
        g, dg, d2g = sys.metric.point(q)
        U, dU, d2U = sys.potential.point(q)
        same = (g == tuple(sys.metric.g(p).ravel()) and dg == tuple(sys.metric.dg(p).ravel())
                and U == sys.potential(p) and dU == tuple(sys.potential.grad_components(p)))
        assert same or name == "chart3"
        second = d2g, d2U
        want2 = tuple(sys.metric.d2g(p).ravel()), tuple(sys.potential.hess_components(p).ravel())
        if same:
            assert second == want2
        else:
            assert np.allclose(d2g + d2U, want2[0] + want2[1], rtol=1e-15, atol=0.0)
        h = jm.h.point(q)
        assert (h is not None) == jm.h.contains(p)
        if h is not None:
            clear += 1
            want = tuple(jm.h.g(p).ravel()), tuple(jm.h.dg(p).ravel()), tuple(jm.h.d2g(p).ravel())
            if same:
                assert h == want
            else:
                assert np.allclose(sum(h, ()), sum(want, ()), rtol=1e-15, atol=0.0)
    # the samples reach the forbidden region of these three
    assert clear > 0
    assert (clear < 5000) == (name in ("uniform-gravity", "sphere-cos", "chart3"))
    # about the box, the chart's edge: the sphere's poles, hyperbolic's y = 0
    for p in np.random.default_rng(12).uniform(lo - 1.0, hi + 1.0, (500, lo.size)):
        for metric in (sys.metric, jm.h):
            assert (metric.point(p.tolist()) is None) == (not metric.contains(p))


def test_h_point_evaluator_none_at_the_margin():
    # uniform gravity, U = q1, at an energy whose margin E - q1 takes exactly
    # at q1 below; the points step across it by one ulp
    E, q1 = 0.5000000000143778, 0.4999995000143778
    jm = jacobi_metric(SETUPS["uniform-gravity"].system, E)
    assert E - q1 == jm.margin
    nones = []
    for k in range(-4, 5):
        p = np.array([q1 + k * np.spacing(q1), 0.3])
        h = jm.h.point(p.tolist())
        assert (h is not None) == jm.h.contains(p)
        if h is not None:
            assert h == (tuple(jm.h.g(p).ravel()), tuple(jm.h.dg(p).ravel()),
                         tuple(jm.h.d2g(p).ravel()))
        nones.append(h is None)
    assert nones == [False] * 4 + [True] * 5         # clear above the margin only


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


@pytest.mark.parametrize("name", BUILTIN_SYSTEMS)
def test_float_rk4_equals_numpy_rk4(name):
    # the generated loop and stages against RK4 on arrays with numpy
    # stages; the linearized flow is pinned in test_dynamics
    su = SETUPS[name]
    sys, q0, v0, step, n_steps = su.system, np.asarray(su.q0), np.asarray(su.v0), su.step, 300
    n = q0.size
    t_span = (su.t_span[0], su.t_span[0] + n_steps * step)
    h = (t_span[1] - t_span[0]) / n_steps

    def newton(q, v):
        return numpy_rk4(newton_rhs(sys), np.concatenate([q, v]), t_span[0], n_steps, h)

    traj = integrate_newton(sys, q0, v0, t_span, step)
    assert np.array_equal(np.hstack([traj.points, traj.velocities]), newton(q0, v0))
    dq, dv, alpha = np.array([0.1, -0.2]), np.array([1.0, 0.5]), 1e-4
    want = (newton(q0 + alpha * dq, v0 + alpha * dv)
            - newton(q0 - alpha * dq, v0 - alpha * dv))[:, :n] / (2.0 * alpha)
    assert np.array_equal(brute_force_deviation(sys, q0, v0, dq, dv, alpha, t_span, step)[1],
                          want)

    jm, s1 = traj.jm, float(traj.geo.s[-1])
    y0 = np.concatenate([q0, v0 / jm.h.norm(q0, v0), [0.0]])
    geo = integrate_geodesic(jm, q0, v0, (0.0, s1), step)
    ys = numpy_rk4(geodesic_rhs(jm), y0, 0.0, len(geo) - 1, geo.s[1],
                   check=lambda y: jm.check_clear(y[:n]))
    assert not geo.truncated
    assert np.array_equal(np.hstack([geo.points, geo.tangents]), ys[:, :2 * n])
    assert np.array_equal(geo.t_of_s, simpson_time(jm, ys[:, :n], geo.s))
    sol = integrate_geodesic(jm, q0, v0, (0.0, s1), step, method="rk45").dense
    ref = solve_ivp(geodesic_rhs(jm), (0.0, s1), y0, method="RK45", rtol=RK45_RTOL,
                    atol=RK45_ATOL)
    assert sol.status == 0 and np.array_equal(sol.t, ref.t) and np.array_equal(sol.y, ref.y)


def test_custom_sphere_equals_batched():
    # sin(q1)^2 and cos(q1) evaluate to the built-in bits on floats too
    sys, q0, v0 = custom("metric.g.2.2 = sin(q1)^2\npotential = cos(q1)\n"
                         "q0 = 1.5707963267948966, 0\nv0 = 0, 1\n")
    a = integrate_newton(sys, q0, v0, (0.0, 2.0), 2e-3)
    b = integrate_newton(batched(sys), q0, v0, (0.0, 2.0), 2e-3)
    assert_same_records(a, b, ("points", "velocities"))


def test_non_diagonal_metric_agrees_with_batched():
    # a closed-form inverse: not LAPACK's bits, the same orbit to roundoff
    sys, q0, v0 = custom(CHART3)
    a = integrate_newton(sys, q0, v0, (0.0, 1.0), 2e-3)
    b = integrate_newton(batched(sys), q0, v0, (0.0, 1.0), 2e-3)
    assert np.max(np.abs(a.points - b.points)) < 1e-13
    jm, jm_ref = jacobi_metric(sys, a.energy), jacobi_metric(batched(sys), a.energy)
    ga = integrate_geodesic(jm, q0, v0, (0.0, 1.0), 2e-3)
    gb = integrate_geodesic(jm_ref, q0, v0, (0.0, 1.0), 2e-3)
    assert np.max(np.abs(ga.points - gb.points)) < 1e-13


def test_singular_metric_raises_as_batched():
    # constant point sources: the literals fold, the NaN is a parameter
    potential = ScalarField(value=lambda p: 0.0 * p[..., 0],
                            partials=lambda p: np.zeros(p.shape),
                            second_partials=lambda p: np.zeros(p.shape + (2,)),
                            point=point_source(2, ((), (2,), (2, 2)), ((), ()),
                                               (("0.0",), (None, None), (None,) * 4)))
    for g in ((1.0, 2.0, 2.0, 4.0), (0.0, 0.0, 0.0, 1.0), (np.nan, 0.0, 0.0, 1.0)):
        entries = tuple("_nan" if np.isnan(x) else repr(x) for x in g), (None,) * 8, (None,) * 16
        metric = ChartMetric(dim=2, g_eval=lambda p, g=g: np.reshape(g, (2, 2)),
                             dg_eval=lambda p: np.zeros((2, 2, 2)),
                             d2g_eval=lambda p: np.zeros((2, 2, 2, 2)),
                             point=dataclasses.replace(
                                 point_source(2, ((2, 2), (2, 2, 2), (2,) * 4), ((), ()), entries),
                                 params=(("_nan", np.nan),)))
        with pytest.raises(geometry.DegenerateMetricError) as exc:
            dynamics._stage(MechanicalSystem(metric, potential))(0.0, 0.3, 0.4, 1.0, 0.0)
        assert str(exc.value) == "degenerate metric at [0.3, 0.4]"


LIST_PINNED = {
    "n1": "metric.dim = 1\nmetric.g.1.1 = 1 + 0.1*sin(q1)^2\npotential = 0.2*q1^2\n"
          "q0 = 0.3\nv0 = 0.7\n",
    "n3-closed-form": CHART3,
    "n4-lapack": "metric.dim = 4\nmetric.g.1.1 = 1 + 0.1*sin(q2)^2\nmetric.g.2.2 = 1 + 0.05*q1^2\n"
                 "metric.g.3.3 = 1 + 0.3*sin(q1)^2\nmetric.g.4.4 = 1 + 0.1*q3^2\n"
                 "metric.g.1.3 = 0.05*cos(q2)\nmetric.g.2.4 = 0.05*sin(q1)\n"
                 "potential = 0.1*q1^2 + 0.1*q2^2 + 0.05*q4^2\n"
                 "q0 = 0.5, 0, 0, 0.2\nv0 = 0, 0.8, 0.6, 0.3\n",
}


@pytest.mark.parametrize("name", sorted(LIST_PINNED))
def test_generated_loops_equal_list_reference(name):
    # the generated loop and stages against the list loop and list stages;
    # a non-diagonal metric is not LAPACK's bits in closed form (n = 3) or
    # through _mv's fused sums, so the numpy reference cannot pin these
    sys, q0, v0 = custom(LIST_PINNED[name])
    n, n_steps, step = len(q0), 200, 2e-3
    traj = integrate_newton(sys, q0, v0, (0.0, n_steps * step), step)
    ys = list_rk4(list_newton_rhs(sys), np.concatenate([q0, v0]), 0.0, n_steps, traj.step)
    assert np.array_equal(np.hstack([traj.points, traj.velocities]), ys)

    V0, DV0 = np.random.default_rng(5).uniform(-1.0, 1.0, (2, n))
    dev = integrate_deviation(traj, V0, DV0)
    ys = list_rk4(list_deviation_rhs(sys), np.concatenate([q0, v0, V0, DV0]), 0.0, n_steps,
                  traj.step)
    assert np.array_equal(np.hstack([traj.points, traj.velocities, dev.V, dev.DV]), ys)

    jm = traj.jm
    geo = integrate_geodesic(jm, q0, v0, (0.0, n_steps * step), step)
    y0 = np.concatenate([q0, v0 / jm.h.norm(q0, v0), [0.0]])
    ys = list_rk4(list_geodesic_rhs(jm), y0, 0.0, len(geo) - 1, geo.s[1],
                  check=lambda y: jm.check_clear(y[:n]))
    assert not geo.truncated and len(geo) == n_steps + 1
    assert np.array_equal(np.hstack([geo.points, geo.tangents]), ys[:, :2 * n])
    assert np.array_equal(geo.t_of_s, simpson_time(jm, ys[:, :n], geo.s))


class TestFailures:
    def test_sphere_domain_exit_at_same_time(self):
        su = SETUPS["sphere-free"]
        args = ([1.5707963267948966, 0.0], [1.0, 0.0], (0.0, 2.0), 1e-3)
        messages = []
        for sys in (su.system, batched(su.system)):
            with pytest.raises(ChartDomainError) as exc:
                integrate_newton(sys, *args)
            messages.append(str(exc.value))
        with pytest.raises(ChartDomainError) as exc:
            list_rk4(list_newton_rhs(su.system), [1.5707963267948966, 0.0, 1.0, 0.0],
                     0.0, 2000, 1e-3)
        assert messages[0] == messages[1] == str(exc.value)
        assert re.fullmatch(r"left chart domain at t=\S+: chart domain: point "
                            r"\[\S+, \S+\] outside valid region", messages[0])

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

    def test_geodesic_truncation_by_clearance_check_equal_on_both_paths(self, monkeypatch):
        # every stage of the last step stays clear and its new state does
        # not: the per-step check stops the run, in floats and then by
        # check_clear on the point path, by check_clear on the batched path
        raised = []
        check_clear = jacobi.JacobiMetric.check_clear

        def recording(jm, p):
            try:
                check_clear(jm, p)
            except ChartDomainError:
                raised.append(jm.system)
                raise

        monkeypatch.setattr(jacobi.JacobiMetric, "check_clear", recording)
        sys, q0, v0 = custom("potential = q2 + 0.5*q1^2\nq0 = 0, 0\nv0 = 0.3, 1\n")
        records = [integrate_geodesic(jacobi_metric(s, 0.5), q0, v0, (0.0, 1.0), 1e-2)
                   for s in (sys, batched(sys))]
        assert raised == [sys, batched(sys)]
        assert records[0].truncated and len(records[0]) == len(records[1]) == 36
        assert_same_records(*records, ("s", "points", "tangents", "t_of_s", "truncated"))

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
    acceleration or Christoffel symbols; without point evaluators, the
    Newton orbit and the h-geodesic both step on the batched acceleration,
    and the linearized flow on it and the batched Christoffel symbols."""

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
        for module in (geometry, dynamics):
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
        integrate_deviation(traj, [0.1, 0.2], [0.3, -0.1])
        assert counts == {"acceleration": 0, "christoffel": 0}
        # the counters do see the batched path
        ref = batched(sys)
        short = integrate_newton(ref, q0, v0, (0.0, 0.01), 1e-3)
        assert counts == {"acceleration": 40, "christoffel": 0}
        integrate_geodesic(jacobi_metric(ref, traj.energy), q0, v0, (0.0, 0.01), 1e-3)
        assert counts == {"acceleration": 80, "christoffel": 0}
        integrate_deviation(short, [0.1, 0.2], [0.3, -0.1])
        assert counts == {"acceleration": 120, "christoffel": 40}


def test_structural_zeros_fold_to_literals():
    # flat metric, U = q1: every Christoffel symbol is a structural zero,
    # so the kernel forms nothing and the acceleration is a literal
    lines, accel, _, _ = geometry._kernel_source(2, "q", ["1.0", None, None, "1.0"],
                                                 [None] * 8, ["1.0", None])
    assert lines == [] and accel == ["-1.0", "-0.0"]
    # the sphere: 3 of 8 Christoffel symbols, one term of each sum, and
    # Γ^1_10 is the local of Γ^1_01
    g, d = ["1.0", None, None, "s"], [None, None, None, "e", None, None, None, None]
    lines, accel, _, c = geometry._kernel_source(2, "q", g, d, ["u0", "u1"])
    assert [line.split(" =")[0] for line in lines if line.startswith("c")] == ["c0_1_1",
                                                                               "c1_0_1"]
    assert c[1, 1, 0] == "c1_0_1"
    assert accel[0] == "-(0.0 + c0_1_1 * v1 * v1) - (0.0 + i0_0 * u0)"
    # h·δ: one local on the diagonal, tested once
    lines, _ = geometry._inverse_source(2, "q", [["h", None], [None, "h"]])
    assert lines[0] == "if 2.2250738585072014e-308 <= h <= 1.7976931348623157e+308:"
    # the compiled hyperbolic plane: g11 = g22 is one tree, so one local,
    # whose range its fast Newton stage tests once
    sys = SETUPS["hyperbolic-free"].system
    g, d, _ = sys.metric.point.entries
    assert g == ("_e0", None, None, "_e0") and d == (*(None,) * 4, "_e1", None, None, "_e1")
    lines, (q, v, a), *_ = dynamics._newton_source(sys.metric.point, sys.potential.point,
                                                   False, True)
    lines, _ = geometry._pruned(lines, v + a, q)
    assert [line for line in lines if "<=" in line] == [
        "if 2.2250738585072014e-308 <= m_e0 <= 1.7976931348623157e+308:"]


class TestCompiledOncePerSource:
    def test_simulate_twice_compiles_the_newton_stage_once(self, tmp_path):
        # a potential no other test uses, so the first run compiles its stage
        cfg = tmp_path / "once.cfg"
        cfg.write_text("system = custom\nmetric = sphere\npotential = cos(q1) + 0.0123\n"
                       "q0 = 1.5707963267948966, 0\nv0 = 0, 1\nt_span = 0, 0.5\n")
        misses = [dynamics._newton_factory.cache_info().misses]
        for run in range(2):
            assert main(["simulate", "--config", cfg.as_posix(),
                         "--out", str(tmp_path / f"o{run}")]) == 0
            misses.append(dynamics._newton_factory.cache_info().misses)
        assert misses[1] == misses[0] + 1 and misses[2] == misses[1]

    def test_jacobi_metrics_at_two_energies_share_one_h_stage(self):
        sys = SETUPS["sphere-cos"].system
        low, high = jacobi_metric(sys, 0.5), jacobi_metric(sys, 0.75)
        assert low.h.point == high.h.point and low.h.point.bind("") != high.h.point.bind("")
        stages = [dynamics._stage(jm.free_system) for jm in (low, high)]
        assert stages[0].fast.__code__ is stages[1].fast.__code__
        assert stages[0].guarded.__code__ is stages[1].guarded.__code__
        q = [1.2, 0.3, 0.4, -0.5]
        assert stages[0](0.0, *q) != stages[1](0.0, *q)
        assert stages[0].fast(0.0, *q) == stages[0](0.0, *q)


def pinned_newton_failure(sys, q0, v0, t_span, step):
    """The message of a failing Newton run, checked against the list
    reference, whose kernel folds nothing."""
    with pytest.raises(ChartDomainError) as exc:
        integrate_newton(sys, q0, v0, t_span, step)
    n_steps = int(round((t_span[1] - t_span[0]) / step))
    with pytest.raises(ChartDomainError) as ref:
        list_rk4(list_newton_rhs(sys), np.concatenate([q0, v0]), t_span[0], n_steps, step)
    assert str(exc.value) == str(ref.value)
    return str(exc.value)


# the hyperbolic plane written with powers, whose partials overflow where
# the built-in's (products of y) are already undefined
POWER_HYPERBOLIC = metric_from_exprs({(1, 1): "q2^-2", (2, 2): "q2^-2"}, 2)


class TestFailuresAsUnfolded:
    """Leaving the chart, an expression that raises or overflows, and a
    state that is not finite fail as the kernel with nothing folded fails,
    with the same message at the same sample."""

    def test_sphere_leaves_chart_at_the_pole(self):
        sys = mechanical_system(metric_by_name("sphere"), "0")
        message = pinned_newton_failure(sys, [0.3, 0.0], [-1.0, 0.0], (0.0, 1.0), 1e-3)
        assert message.startswith("left chart domain at t=0.3: chart domain: point [")

    def test_hyperbolic_leaves_chart_below_y_0(self):
        sys = mechanical_system(metric_by_name("hyperbolic"), "0")
        assert pinned_newton_failure(sys, [0.0, 0.01], [0.0, -1.0], (0.0, 1.0), 0.05) == (
            "left chart domain at t=0.025: chart domain: point [0.0, -0.015000000000000001] "
            "outside valid region")

    def test_hyperbolic_partials_overflow_near_y_0(self):
        # on the half-plane as y^-2, -2 y^-3 and the velocity overflow: zero
        # Christoffel symbols times inf make the NaN in q0 that a folded
        # kernel would not
        sys = mechanical_system(POWER_HYPERBOLIC, "0")
        assert pinned_newton_failure(sys, [0.0, 1e-100], [0.0, -1e-100], (0.0, 10.0), 0.5) == (
            "left chart domain at t=6.25: chart domain: point [nan, inf] outside valid region")

    def test_hyperbolic_cube_underflow_raises_as_batched(self, tmp_path, capsys):
        # below y of about 1e-81 the source's (y*y)^2 underflows and dg
        # divides by zero in floats; its fallback raises the chart-domain
        # error of the batched evaluators, and the CLI exits 3 with one line
        sys = mechanical_system(metric_by_name("hyperbolic"), "0")
        undefined = "metric partials undefined: divide by zero encountered in scalar divide"
        for q0, v0 in (([0.0, 1e-150], [0.0, -1e-152]), ([0.0, 1e-100], [0.0, -1e-100])):
            messages = []
            for s in (sys, batched(sys)):
                with pytest.raises(ChartDomainError) as exc:
                    integrate_newton(s, q0, v0, (0.0, 1.0), 0.5)
                messages.append(str(exc.value))
            assert messages == [f"left chart domain at t=0: {undefined}"] * 2
        cfg = tmp_path / "underflow.cfg"
        cfg.write_text("system = custom\nmetric = hyperbolic\nq0 = 0, 1e-150\nv0 = 0, -1e-152\n")
        assert main(["simulate", "--config", cfg.as_posix(), "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err.splitlines() == [f"numerical failure: {undefined}"]

    def test_velocity_not_finite(self):
        sys = custom("potential = 0\nq0 = 0, 0\nv0 = 1, 0\n")[0]
        assert pinned_newton_failure(sys, [0.0, 0.0], [np.nan, 0.0], (0.0, 1.0), 1e-2) == (
            "left chart domain at t=0.005: chart domain: point [nan, 0.0] outside valid region")

    def test_expression_raises(self):
        sys = custom("potential = ln(q1)\nq0 = 0.5, 0\nv0 = -1, 0\n")[0]
        assert pinned_newton_failure(sys, [0.5, 0.0], [-1.0, 0.0], (0.0, 2.0), 1e-3) == (
            "left chart domain at t=0.328: expression 'ln(q1)' undefined: "
            "invalid value encountered in log")

    def test_overflow_exits_3_with_its_line(self, tmp_path, capsys):
        cfg = tmp_path / "overflow.cfg"
        cfg.write_text("system = custom\nmetric = conformal-flat\nq0 = 400, 0\nv0 = 1, 0\n")
        for command in ("simulate", "geodesic", "deviation"):
            assert main([command, "--config", cfg.as_posix(),
                         "--out", str(tmp_path / "o")]) == 3
            assert capsys.readouterr().err.splitlines() == [
                "numerical failure: metric undefined: overflow encountered in exp"]

    @pytest.mark.parametrize("q0, dir0, span, step, length", [
        ([0.3, 0.0], [-1.0, 0.0], (0.0, 1.0), 1e-3, 300),         # the pole
        ([0.0, 1e-100], [0.0, -1.0], (0.0, 10.0), 0.5, 13),      # the tangent overflows
    ])
    def test_h_geodesic_truncates_as_unfolded(self, q0, dir0, span, step, length):
        metric = metric_by_name("sphere") if q0[1] == 0.0 else POWER_HYPERBOLIC
        jm = jacobi_metric(mechanical_system(metric, "0"), 0.5)
        n = 2
        geo = integrate_geodesic(jm, q0, dir0, span, step)
        y0 = np.concatenate([q0, dir0 / jm.h.norm(np.array(q0), np.array(dir0)), [0.0]])
        ys = list_rk4(list_geodesic_rhs(jm), y0, span[0], len(geo) - 1, step,
                      check=lambda y: jm.check_clear(y[:n]))
        assert geo.truncated and len(geo) == len(ys) == length
        assert np.array_equal(np.hstack([geo.points, geo.tangents]), ys[:, :2 * n],
                              equal_nan=True)

    def test_h_geodesic_rk45_leaves_chart_as_batched(self):
        sys = mechanical_system(metric_by_name("sphere"), "0")
        messages = []
        for s in (sys, batched(sys)):
            with pytest.raises(ChartDomainError) as exc:
                integrate_geodesic(jacobi_metric(s, 0.5), [0.3, 0.0], [-1.0, 0.0], (0.0, 1.0),
                                   1e-3, method="rk45")
            messages.append(str(exc.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith("left chart domain at t=0.365297: chart domain: point [")

    @pytest.mark.parametrize("name, V0, DV0, sample", [
        ("flat-free", [1.7e308, 0.0], [1.7e308, 0.0], 1),
        ("flat-free", [np.inf, 0.0], [0.0, 0.0], 0),
        ("sphere-cos", [0.0, 1e308], [1e308, 1e308], 1),
        ("sphere-cos", [0.0, np.nan], [0.0, 0.0], 0),
    ])
    def test_linearized_flow_not_finite(self, name, V0, DV0, sample):
        su = SETUPS[name]
        traj = integrate_newton(su.system, su.q0, su.v0, (0.0, 0.1), 1e-2)
        with pytest.raises(GeometryError) as exc:
            integrate_deviation(traj, V0, DV0)
        assert str(exc.value) == (f"linearized flow not finite at sample {sample} "
                                  f"(t={traj.times[sample]:.6g})")


HENON_HEILES = ("metric = flat\npotential = 0.5*(q1^2 + q2^2) + q1^2*q2 - q2^3/3\n"
                "q0 = 0, 0.1\nv0 = 0.48918, 0\n")


def guarded_rk4(stage, y0, t0, n_steps, h, check=None):
    """The RK4 samples of a stage's guarded form alone, by the list loop."""
    return list_rk4(lambda t, y: list(stage.guarded(t, *y)), y0, t0, n_steps, h, check)


def fast_case(name):
    """The system, q0 and v0 of a built-in preset, CHART3 or Hénon–Heiles."""
    if name == "chart3":
        return custom(CHART3)
    if name == "henon-heiles":
        return custom(HENON_HEILES)
    su = SETUPS[name]
    return su.system, su.q0, su.v0


class TestFastStage:
    """The fast stage that ``_rk4`` runs gives the samples of the guarded
    stage, and a step it rejects is replayed by the guarded stage, which
    fails as before."""

    @pytest.mark.parametrize("name", [*BUILTIN_SYSTEMS, "chart3", "henon-heiles"])
    def test_samples_equal_the_guarded_stage(self, name):
        sys, q0, v0 = fast_case(name)
        n, n_steps, h = len(q0), 100, 2e-3
        V0, W0 = np.random.default_rng(7).uniform(-1.0, 1.0, (2, n))
        jm = jacobi_metric(sys, float(sys.energy(q0, v0)))
        u0 = v0 / jm.h.norm(q0, v0)
        for s, parts in ((sys, (q0, v0)), (jm.free_system, (q0, u0))):
            for stage, y0 in ((dynamics._stage(s), parts),
                              (dynamics._deviation_stage(s), (*parts, V0, W0))):
                y0 = np.concatenate(y0)
                assert isinstance(stage, dynamics.Stage)
                ys = dynamics._rk4(stage, y0, 0.0, n_steps, h)
                assert np.array_equal(ys, guarded_rk4(stage, y0, 0.0, n_steps, h))

    @pytest.mark.parametrize("system, q0, v0, step, n_steps, message", [
        ("sphere-cos", [0.25, 0.0], [-1.0, 0.0], 0.5, 4,
         "left chart domain at t=0.25: chart domain: point [0.0, 0.0] outside valid region"),
        ("sphere-cos", [np.pi - 0.25, 0.0], [1.0, 0.0], 0.5, 4,
         "left chart domain at t=0.25: chart domain: point [3.141592653589793, 0.0] "
         "outside valid region"),
        ("hyperbolic-free", [0.0, 0.25], [0.0, -1.0], 0.5, 4,
         "left chart domain at t=0.25: chart domain: point [0.0, 0.0] outside valid region"),
        ("hyperbolic-free", [0.0, 0.01], [0.0, -1.0], 0.05, 20,
         "left chart domain at t=0.025: chart domain: point [0.0, -0.015000000000000001] "
         "outside valid region"),
        ("potential = ln(q1)\nq0 = 0.5, 0\nv0 = -1, 0\n", [0.5, 0.0], [-1.0, 0.0], 1e-3, 2000,
         "left chart domain at t=0.328: expression 'ln(q1)' undefined: "
         "invalid value encountered in log"),
        ("flat-free", [0.0, 0.0], [np.nan, 0.0], 1e-2, 100,
         "left chart domain at t=0.005: chart domain: point [nan, 0.0] outside valid region"),
    ], ids=["sphere-theta-0", "sphere-theta-pi", "hyperbolic-y-0", "hyperbolic-y-below-0",
            "ln-crossing", "velocity-nan"])
    def test_rejections_fail_as_the_guarded_stage(self, system, q0, v0, step, n_steps, message):
        sys = SETUPS[system].system if system in SETUPS else custom(system)[0]
        stage, y0 = dynamics._stage(sys), np.concatenate([q0, v0])
        with pytest.raises(ChartDomainError) as exc:
            dynamics._rk4(stage, y0, 0.0, n_steps, step)
        with pytest.raises(ChartDomainError) as ref:
            guarded_rk4(stage, y0, 0.0, n_steps, step)
        assert type(exc.value) is type(ref.value)
        assert str(exc.value) == str(ref.value) == message

    def test_h_geodesic_truncates_at_the_clearance_margin_as_the_guarded_stage(self):
        jm = jacobi_metric(SETUPS["uniform-gravity"].system, 0.5)
        geo = integrate_geodesic(jm, [0.0, 0.0], [1.0, 0.0], (0.0, 0.4), 1e-3)
        ys = guarded_rk4(dynamics._stage(jm.free_system), [0.0, 0.0, 1.0, 0.0], 0.0, 400, 1e-3,
                         check=lambda y: jm.check_clear(y[:2]))
        assert geo.truncated and len(geo) == len(ys) == 334
        assert np.array_equal(np.hstack([geo.points, geo.tangents]), ys)


def test_replays_start_from_the_last_row_at_block_edges():
    # a fast form that raises or gives NaN at chosen steps: each is replayed
    # from the state kept as the last row, buffered or already written
    def guarded(t, *y):
        return tuple(0.5 * x - 0.01 * t for x in y)

    def fast(t, *y):
        if t in (0.0, 255.0, 257.0):
            raise ArithmeticError
        return (np.nan,) * len(y) if t in (100.0, 256.0, 511.5) else guarded(t, *y)

    y0 = np.array([0.3, -0.2, 0.1])
    ys = dynamics._rk4(dynamics.Stage(1, lambda: fast, lambda: guarded), y0, 0.0, 600, 1.0)
    assert np.array_equal(ys, dynamics._rk4(guarded, y0, 0.0, 600, 1.0))


class TestGuardedOnlyOnRejection:
    """The guarded stage runs only to replay a step the fast stage
    rejected; counted as ``TestNoSilentFallback`` counts batched calls."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        make = dynamics.Stage.guarded.func

        def counted(stage):
            guarded = make(stage)

            def call(t, *y):
                calls.append(t)
                return guarded(t, *y)
            return call

        monkeypatch.setattr(dynamics.Stage, "guarded", property(counted))
        return calls

    @pytest.mark.parametrize("name", [*BUILTIN_SYSTEMS, "chart3", "henon-heiles"])
    def test_no_guarded_call_on_a_preset_orbit(self, calls, name):
        sys, q0, v0 = fast_case(name)
        su = SETUPS.get(name)
        t_span, step = (su.t_span, su.step) if su else ((0.0, 1.0), 2e-3)
        traj = integrate_newton(sys, q0, v0, t_span, step)
        integrate_deviation(traj, np.ones(len(q0)), np.zeros(len(q0)))
        integrate_geodesic(traj.jm, q0, v0, (0.0, 0.2), step)
        assert calls == []

    def test_guarded_calls_on_the_ln_crossing(self, calls):
        sys = custom("potential = ln(q1)\nq0 = 0.5, 0\nv0 = -1, 0\n")[0]
        with pytest.raises(ChartDomainError):
            integrate_newton(sys, [0.5, 0.0], [-1.0, 0.0], (0.0, 2.0), 1e-3)
        assert len(calls) >= 1 and calls[-1] == pytest.approx(0.328)


def test_rk45_reads_the_clearance_from_the_point_source(monkeypatch):
    # the batched clearance runs once, for the start point, not at every
    # evaluation of the adaptive solver
    calls = []
    clearance = jacobi.JacobiMetric.clearance

    def counted(jm, p):
        calls.append(jm.system)
        return clearance(jm, p)

    monkeypatch.setattr(jacobi.JacobiMetric, "clearance", counted)
    su = SETUPS["sphere-cos"]
    for sys in (su.system, batched(su.system)):
        integrate_geodesic(jacobi_metric(sys, 0.5), su.q0, su.v0, (0.0, 0.5), 1e-3,
                           method="rk45")
    assert calls.count(su.system) == 1 and calls.count(batched(su.system)) > 100


# ``geometry._CONSTANT`` before its literals were kept from ending inside a
# digit run: the same language, but ``fullmatch`` backtracks through every
# split of a digit run when a text does not match
OLD_CONSTANT = re.compile(r"(?:\d+(?:\.\d*)?(?:[eE][-+]?\d+)?|[-+*/()<=> ])+")


class _Recording:
    """A pattern that keeps every text it is asked to match."""

    def __init__(self, pattern):
        self.pattern, self.texts = pattern, set()

    def fullmatch(self, text):
        self.texts.add(text)
        return self.pattern.fullmatch(text)


def test_constant_pattern_matches_what_it_matched(monkeypatch):
    # every text that building the point sources and generating the Newton,
    # h-geodesic, linearized-flow and h-Jacobi stages asks about, for n = 1
    # to 4
    rec = _Recording(geometry._CONSTANT)
    monkeypatch.setattr(geometry, "_CONSTANT", rec)
    configs = [LIST_PINNED["n1"], "metric = sphere\npotential = cos(q1) + 0.25*q2^2\n"
               "q0 = 1.2, 0.1\nv0 = 0.3, 0.4\n", CHART3, LIST_PINNED["n4-lapack"]]
    for text in configs:
        sys, q0, v0 = custom(text)
        n = len(q0)
        jm = jacobi_metric(sys, float(sys.energy(q0, v0)))
        for s in (sys, jm.free_system):
            dynamics._newton_factory.__wrapped__(s.metric.point, s.potential.point)
            dynamics._deviation_factory.__wrapped__(s.metric.point, s.potential.point)
    assert len(rec.texts) > 250
    assert any(rec.pattern.fullmatch(t) for t in rec.texts)
    for text in rec.texts:
        assert bool(rec.pattern.fullmatch(text)) == bool(OLD_CONSTANT.fullmatch(text)), text


def test_constant_pattern_fails_a_long_digit_run_at_once():
    # the old pattern takes time exponential in the digits here
    assert geometry._CONSTANT.fullmatch("1" * 10_000 + "x") is None
    assert geometry._CONSTANT.fullmatch("(" + "1" * 10_000 + ".5e-3 * 2)") is not None
