"""Output checks made apart from the program.

Every CLI case is checked against a model of its chart that the benchmark
derives itself with sympy from the metric and potential strings (the
program takes finite differences or hand-written partials instead), and
against a scipy DOP853 solution of the equations of motion and their
variational equations at tight tolerance.  A check returns a list of
``(label, value, limit)`` measurements; it passes when every value is at
most its limit.
"""

from __future__ import annotations

import csv
import math
import os
from functools import cached_property

import numpy as np

# Limits sit at least 10x above what correct outputs give (see README) and
# below the 1e-6 corruptions of the self-test.
TRAJ_TOL = 1e-8          # positions/velocities against DOP853
CONSERVE_TOL = 1e-8      # energy and cyclic momentum, relative to max(1, |E|)
SPEED_TOL = 1e-8         # unit h-speed of the geodesic
MAUPERTUIS_TOL = 1e-8    # geodesic positions against the solution at equal t
DEVIATION_TOL = 1e-7     # linearized field against the variational equations
BUILTIN_TOL = 1e-8       # custom (expression) path against the analytic path
CONJUGATE_TOL = 1e-3     # first conjugate point of the sphere at pi
CORRECTION_TOL = 1e-6    # harmonic equal-energy correction equals 2


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


class Model:
    """Closed-form g, U, Christoffel symbols, acceleration and its Jacobian."""

    def __init__(self, chart):
        import sympy as sp

        n = chart.dim
        q = sp.symbols(f"q1:{n + 1}")
        v = sp.symbols(f"v1:{n + 1}")
        names = {f"q{i + 1}": q[i] for i in range(n)}
        names.update(sin=sp.sin, cos=sp.cos, exp=sp.exp, ln=sp.log, pi=sp.pi)

        def parse(text):
            return sp.sympify(text.replace("^", "**"), locals=names)

        G = sp.eye(n)
        for (i, j), text in chart.metric.items():
            G[i - 1, j - 1] = G[j - 1, i - 1] = parse(text)
        U = parse(chart.potential)
        Gi = G.inv(method="LU")
        gam = [[[sum(Gi[l, k] * (sp.diff(G[j, k], q[i]) + sp.diff(G[i, k], q[j])
                                 - sp.diff(G[i, j], q[k])) for k in range(n)) / 2
                 for j in range(n)] for i in range(n)] for l in range(n)]
        acc = sp.Matrix([-sum(gam[l][i][j] * v[i] * v[j] for i in range(n) for j in range(n))
                         - sum(Gi[l, k] * sp.diff(U, q[k]) for k in range(n))
                         for l in range(n)])
        jac = acc.jacobian(list(q) + list(v))
        self.dim = n
        self.cyclic = chart.cyclic
        self._g = sp.lambdify([q], G, modules="numpy")
        self._U = sp.lambdify([q], U, modules="numpy")
        self._gamma = sp.lambdify([q], sp.Array(gam), modules="numpy", cse=True)
        self._flow = sp.lambdify([q, v], [acc, jac], modules="numpy", cse=True)

    def g(self, q):
        return np.asarray(self._g(q), dtype=float)

    def U(self, q):
        return float(self._U(q))

    def gamma(self, q):
        return np.asarray(self._gamma(q), dtype=float)

    def energy(self, q, v):
        return 0.5 * float(v @ self.g(q) @ v) + self.U(q)

    def solve(self, q0, v0, dv0, t_span):
        """DOP853 solution of the motion and of the variational equations,
        started from ``(dq, dv) = (0, dv0)``; dense in t."""
        from scipy.integrate import solve_ivp

        n = self.dim

        def rhs(t, y):
            q, v, dq, dv = y[:n], y[n:2 * n], y[2 * n:3 * n], y[3 * n:]
            a, J = self._flow(q, v)
            J = np.asarray(J, dtype=float)
            return np.concatenate([v, np.ravel(a), dv, J[:, :n] @ dq + J[:, n:] @ dv])

        y0 = np.concatenate([q0, v0, np.zeros(n), dv0])
        sol = solve_ivp(rhs, t_span, y0, method="DOP853", rtol=1e-12, atol=1e-13,
                        dense_output=True)
        if not sol.success:
            raise RuntimeError(f"reference solve failed: {sol.message}")
        return sol.sol


class CaseOutputs:
    """A CLI case's output files, its independent model and reference solution."""

    def __init__(self, case, out_dir, results):
        self.case = case
        self.dir = out_dir
        self.results = results            # {command: OpResult} of the last round

    @cached_property
    def model(self):
        return Model(self.case.chart)

    @cached_property
    def reference(self):
        n = self.case.chart.dim
        dv0 = np.zeros(n)
        dv0[0] = 1.0                      # the CLI default dv; dq defaults to 0
        return self.model.solve(np.array(self.case.q0_shifted()), np.array(self.case.v0),
                                dv0, self.case.t_span)

    def csv(self, name):
        return read_csv(os.path.join(self.dir, name))

    @cached_property
    def energy(self):
        return self.model.energy(np.array(self.case.q0_shifted()), np.array(self.case.v0))


def _sup(a):
    return float(np.max(np.abs(a))) if np.size(a) else math.inf


def trajectory_reference(c: CaseOutputs):
    """trajectory.csv against the DOP853 solution of the closed-form motion."""
    _, rows = c.csv("trajectory.csv")
    n = c.case.chart.dim
    ref = c.reference(rows[:, 0])
    return [("position", _sup(rows[:, 1:1 + n] - ref[:n].T), TRAJ_TOL),
            ("velocity", _sup(rows[:, 1 + n:1 + 2 * n] - ref[n:2 * n].T), TRAJ_TOL)]


def conservation(c: CaseOutputs):
    """Energy and the momentum of the cyclic coordinate along trajectory.csv."""
    _, rows = c.csv("trajectory.csv")
    n = c.case.chart.dim
    q, v = rows[:, 1:1 + n], rows[:, 1 + n:1 + 2 * n]
    E = np.array([c.model.energy(a, b) for a, b in zip(q, v)])
    p = np.array([(c.model.g(a) @ b)[c.model.cyclic] for a, b in zip(q, v)])
    scale = max(1.0, abs(c.energy))
    return [("energy", _sup(E - c.energy) / scale, CONSERVE_TOL),
            ("cyclic-momentum", _sup(p - p[0]) / scale, CONSERVE_TOL)]


def geodesic_speed(c: CaseOutputs):
    """geodesic.csv moves at unit speed in h = 2(E - U) g."""
    _, rows = c.csv("geodesic.csv")
    n = c.case.chart.dim
    q, u = rows[:, 1:1 + n], rows[:, 1 + n:1 + 2 * n]
    speed2 = np.array([2.0 * (c.energy - c.model.U(a)) * float(b @ c.model.g(a) @ b)
                       for a, b in zip(q, u)])
    return [("h-speed", _sup(speed2 - 1.0), SPEED_TOL)]


def geodesic_maupertuis(c: CaseOutputs):
    """Geodesic positions agree with the solution at the same dynamical time."""
    _, rows = c.csv("geodesic.csv")
    n = c.case.chart.dim
    t = rows[:, 1 + 2 * n]
    inside = t <= c.case.t_span[1]
    ref = c.reference(t[inside])
    covered = float(t[-1]) / c.case.t_span[1]
    return [("position", _sup(rows[inside, 1:1 + n] - ref[:n].T), MAUPERTUIS_TOL),
            ("t-coverage-gap", abs(1.0 - covered), 1e-3)]


def deviation_reference(c: CaseOutputs):
    """deviation.csv against the variational equations: V = dq, and
    DV = dv + Gamma(qdot, V)."""
    _, rows = c.csv("deviation.csv")
    n = c.case.chart.dim
    ref = c.reference(rows[:, 0])
    q, qdot = ref[:n].T, ref[n:2 * n].T
    dq, dv = ref[2 * n:3 * n].T, ref[3 * n:].T
    cov = dv + np.array([np.einsum('ijk,j,k->i', c.model.gamma(a), b, d)
                         for a, b, d in zip(q, qdot, dq)])
    V, DV = rows[:, 1 + 2 * n:1 + 3 * n], rows[:, 1 + 3 * n:1 + 4 * n]
    return [("V", _sup(V - dq), DEVIATION_TOL), ("DV", _sup(DV - cov), DEVIATION_TOL)]


def compare_operators_outcome(c: CaseOutputs):
    """The operator identity holds, the equal-energy constraint holds and the
    correction term stays large; the equal-energy identity is left to the
    failure classification, since its end-of-grid fault may fail it."""
    from jacobistab.verify import DEFAULT_TOLERANCES as TOL

    data = c.results["compare-operators"].payload["json"]
    rows = np.loadtxt(os.path.join(c.dir, "compare_operators.dat"), comments="#", ndmin=2)
    return [("operator-identity", data["operator_identity_sup"], TOL["operator-identity"]),
            ("constraint", data["constraint_sup"], TOL["equal-energy-constraint"]),
            ("correction-min", TOL["equal-energy-correction-min"] - data["correction_sup"], 0.0),
            ("dat-rows", abs(len(rows) - data["grid_size"]), 0)]


def second_variation_order(c: CaseOutputs):
    """d2S >= d2LJ on every row, and every row's identity residual holds."""
    from jacobistab.verify import DEFAULT_TOLERANCES as TOL

    with open(os.path.join(c.dir, "second_variation.csv")) as fh:
        rows = list(csv.DictReader(fh))

    def column(name):
        return np.array([float(r[name]) for r in rows])

    out = [("d2LJ-minus-d2S", float(np.max(column("d2LJ") - column("d2S"))), 0.0),
           ("rows", abs(len(rows) - 5), 0)]          # the CLI's variation.count
    for name, tol in (("thm1_residual", "theorem1"), ("thm2_residual", "theorem2"),
                      ("orth_residual", "orthogonal-identity")):
        out.append((name, float(np.max(column(name))), TOL[tol]))
    return out


def custom_matches_builtin(c: CaseOutputs):
    """The custom sphere-cos trajectory (expression strings, finite-difference
    partials) agrees with the built-in one (analytic partials)."""
    from jacobistab import builtin_setup, integrate_newton

    _, rows = c.csv("trajectory.csv")
    n = c.case.chart.dim
    su = builtin_setup("sphere-cos")
    traj = integrate_newton(su.system, np.array(c.case.q0_shifted()), np.array(c.case.v0),
                            c.case.t_span, c.case.step)
    return [("samples", abs(len(traj) - len(rows)), 0),
            ("position", _sup(rows[:, 1:1 + n] - traj.points) if len(traj) == len(rows)
             else math.inf, BUILTIN_TOL)]


CASE_CHECKS = (trajectory_reference, conservation, geodesic_speed, geodesic_maupertuis,
               deviation_reference, compare_operators_outcome, second_variation_order)


def case_checks(case):
    extra = (custom_matches_builtin,) if case.label == "custom-sphere-cos" else ()
    return CASE_CHECKS + extra


# --- verify-all -------------------------------------------------------------

def _all_results(results):
    return [c for r in results.values() for c in (r.payload or [])]


def verify_passed(results):
    """Every identity of every check passes; none went missing."""
    failed = [c.name for c in _all_results(results) if not c.passed]
    empty = [name for name, r in results.items() if not r.payload]
    return [("failed-identities", len(failed), 0), ("checks-without-results", len(empty), 0)]


def conjugate_point(results):
    """The first conjugate point of the unit-sphere equator lies at pi."""
    c = next(c for c in _all_results(results) if c.name == "conjugate-point-arc")
    return [("first-zero-minus-pi", abs(c.detail["first_zero"] - math.pi), CONJUGATE_TOL)]


def harmonic_correction(results):
    """The equal-energy correction on the harmonic circular orbit is 2."""
    c = next(c for c in _all_results(results) if c.name == "equal-energy-correction")
    return [("correction-minus-2", abs(c.value - 2.0), CORRECTION_TOL)]


VERIFY_CHECKS = (verify_passed, conjugate_point, harmonic_correction)


def run_checks(workload, results, outdir):
    """Run every check of a workload on its last round.

    ``results`` maps ``(case label, op name)`` to OpResult, and ``outdir``
    holds the round's output files.  Returns
    ``{check name: [(label, value, limit), ...]}``.
    """
    if workload.name == "verify-all":
        return {fn.__name__: measure(fn, results) for fn in VERIFY_CHECKS}
    report = {}
    for case in workload.cases:
        by_cmd = {op: r for (label, op), r in results.items() if label == case.label}
        outputs = CaseOutputs(case, os.path.join(outdir, case.label), by_cmd)
        for fn in case_checks(case):
            report[f"{case.label}/{fn.__name__}"] = measure(fn, outputs)
    return report


def measure(fn, arg):
    try:
        return [(label, float(value), float(limit)) for label, value, limit in fn(arg)]
    except Exception as exc:          # a missing or malformed output fails the check
        return [(f"error: {type(exc).__name__}: {exc}", math.inf, 0.0)]


def failures(report):
    """Measurements over their limit, as readable lines."""
    return [f"{name}: {label} = {value:.3e} > {limit:.3e}"
            for name, rows in report.items() for label, value, limit in rows
            if not value <= limit]
