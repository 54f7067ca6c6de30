"""The benchmark's traced run wraps names of the package from outside it
(``bench/tracer.py``): functions, methods, cached properties and argument
names.  This test installs that tracer over the package, runs one short
traced round and uninstalls it, so that a change which removes or renames
a name the benchmark binds fails here rather than in a benchmark run."""

import importlib.util
import pathlib

import numpy as np
import pytest

from jacobistab import cli, jacobi, verify

TRACER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture
def tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_round_binds_every_name(tracer_module):
    tr = tracer_module.Tracer()
    tr.install()
    try:
        tr.begin_round()
        results = (verify.check_energy_drift(system_names=["flat-harmonic"])
                   + verify.check_action_consistency(system_names=["flat-free"]))
        tr.end_round()
    finally:
        tr.uninstall()
    assert all(r.passed for r in results)
    st = tr.rounds[0]
    assert st.calls["dynamics.integrate_newton"] == 2
    assert st.count["rk4.steps"] > 1000
    assert st.calls["dynamics.CurveGeometry.__init__"] >= 1
    assert st.calls["variation.second_variation_S"] == 1
    metrics = tracer_module.round_metrics(st, (), ())
    assert metrics["variation.functionals.distinct_ratio"] == 1.0
    # uninstalled: the package's own functions are back in place
    assert verify.integrate_newton.__module__ == "jacobistab.dynamics"
    assert not hasattr(verify.integrate_newton, "__wrapped__")


def test_traced_linearization_binds_newton_arguments(tracer_module):
    # the linearized flow is integrated together with its base orbit, and
    # the oracle adds its plus and minus runs as two ``integrate_newton``
    # calls; the tracer binds ``sys``, ``q0``, ``v0``, ``t_span``, ``step``
    # and ``drift_bound`` of each, and counts the RK4 steps of all three
    tr = tracer_module.Tracer()
    tr.install()
    try:
        tr.begin_round()
        results = verify.check_linearization(system_names=["flat-harmonic"])
        tr.end_round()
    finally:
        tr.uninstall()
    assert all(r.passed for r in results)
    st = tr.rounds[0]
    assert st.calls["dynamics.integrate_newton"] == 2
    assert st.count["newton.steps"] == 2 * round(2.0 * np.pi / 1e-3)
    assert st.count["rk4.steps"] == 3 * round(2.0 * np.pi / 1e-3)
    metrics = tracer_module.round_metrics(st, (), ())
    assert metrics["dynamics.integrate_newton.distinct_ratio"] == 1.0


def test_traced_roundtrip_binds_the_geodesic(tracer_module):
    # the round trip integrates one rk4 and one rk45 geodesic; the tracer
    # counts the steps of each record it returns
    tr = tracer_module.Tracer()
    tr.install()
    traced, records = jacobi.integrate_geodesic, []

    def recording(*args, **kwargs):
        records.append(traced(*args, **kwargs))
        return records[-1]

    jacobi.integrate_geodesic = recording
    try:
        tr.begin_round()
        results = verify.check_roundtrip()
        tr.end_round()
    finally:
        jacobi.integrate_geodesic = traced
        tr.uninstall()
    assert all(r.passed for r in results)
    st = tr.rounds[0]
    assert st.calls["jacobi.integrate_geodesic"] == 2
    assert [r.dense is not None for r in records] == [False, True]
    assert st.count["geodesic.steps"] == sum(len(r) - 1 for r in records)
    assert jacobi.integrate_geodesic.__module__ == "jacobistab.jacobi"
    assert not hasattr(jacobi.integrate_geodesic, "__wrapped__")


def test_traced_lemma_suite_binds_sample_count(tracer_module):
    # the tracer binds ``n_samples`` of lemma_residuals
    tr = tracer_module.Tracer()
    tr.install()
    try:
        tr.begin_round()
        results = verify.check_lemma_suite(n_samples=2)
        tr.end_round()
    finally:
        tr.uninstall()
    assert all(r.passed for r in results)
    st = tr.rounds[0]
    assert st.calls["conformal.lemma_residuals"] == 12
    assert st.count["lemma.samples"] == 24


def test_traced_theorems_bind_functional_arguments(tracer_module):
    # the tracer binds ``traj`` and ``var`` of all three second variations
    tr = tracer_module.Tracer()
    tr.install()
    try:
        tr.begin_round()
        results, _ = verify.check_theorems(n_variations=1, system_names=["flat-harmonic"])
        tr.end_round()
    finally:
        tr.uninstall()
    assert all(r.passed for r in results)
    st = tr.rounds[0]
    assert st.calls["variation.second_variation_S"] == 2
    assert st.calls["variation.second_variation_S0J"] == 1
    assert st.calls["variation.second_variation_LJ"] == 2
    assert len(st.keys["functionals"]) == 5
    assert st.calls["dynamics.CurveGeometry.__init__"] == 2


def test_traced_custom_system_takes_exact_partials(tracer_module, tmp_path):
    # the tracer counts the evaluators that ``compile_expression`` returns; a
    # custom system differentiates its expressions exactly, so the only
    # central differences left are the metric check of ``validate_metric_at``
    cfg = tmp_path / "chart.cfg"
    cfg.write_text("system = custom\nmetric.dim = 3\nmetric.g.1.1 = 1 + 0.1*sin(q2)^2\n"
                   "metric.g.1.3 = 0.05*cos(q2)\nmetric.g.3.3 = 1 + 0.3*sin(q1)^2\n"
                   "potential = 0.1*q1^2 + 0.1*q2^2\nq0 = 0.5, 0, 0\nv0 = 0, 0.8, 0.6\n"
                   "t_span = 0, 0.2\nstep = 0.002\nvariation.count = 1\n")
    tr = tracer_module.Tracer()
    tr.install()
    try:
        tr.begin_round()
        codes = [cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
                 for command in ("simulate", "compare-operators")]
        tr.end_round()
    finally:
        tr.uninstall()
    assert codes == [0, 0]
    st = tr.rounds[0]
    assert st.calls["expressions.compile_expression"] == 2 * 6
    assert st.calls["expressions.eval"] > 0
    assert st.calls["geometry.validate_metric_at"] == 2
    assert st.calls["numdiff.central_diff"] == st.calls["geometry.validate_metric_at"]
