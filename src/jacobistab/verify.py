"""Identity-verification suite over the built-in systems.

Each check evaluates one of the toolkit's core identities with its two
sides produced by independent code paths, and reports the worst residual
against a pinned tolerance.  The same suite backs both the acceptance
tests and the ``verify-all`` CLI command.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

from .conformal import lemma_residuals
from .dynamics import (DeviationField, integrate_deviation, integrate_newton,
                       linearization_against_oracle)
from .expressions import scalar_field_from_expr
from .geometry import ChartMetric, ScalarField, _dot, cov_derivative_along
from .jacobi import (STENCIL_CORE, STENCIL_PAD, jacobi_operator_direct,
                     jacobi_operator_via_g, equal_energy_projection,
                     maupertuis_roundtrip, padded_span, relation_equal_energy)
from .systems import SAMPLE_BOXES, all_setups, builtin_setup, metric_by_name
from .variation import (action_second_difference, functional_sweep,
                        make_proper_variation, second_variation_LJ,
                        second_variation_S)

DEFAULT_TOLERANCES = {
    "lemma-analytic": 1e-7,
    "lemma-fd": 1e-4,
    "roundtrip": 1e-6,
    "operator-identity": 1e-6,
    "equal-energy-identity": 1e-6,
    "equal-energy-constraint": 1e-8,
    "equal-energy-correction-min": 1e-2,
    "theorem1": 1e-6,
    "theorem2": 1e-6,
    "theorem2-integrand-min": -1e-12,
    "orthogonal-identity": 1e-6,
    "conjugate-point-arc": 1e-3,
    "conjugate-point-value": 1e-4,
    "linearization": 1e-5,
    "energy-drift": 1e-8,
    "action-consistency": 1e-5,
}


@dataclass
class CheckResult:
    """Outcome of one identity check."""

    name: str
    value: float
    tolerance: float
    passed: bool
    comparison: str = "<"      # value < tolerance passes ("<") or value > tolerance (">")
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"identity": self.name, "value": self.value,
                "tolerance": self.tolerance, "comparison": self.comparison,
                "passed": bool(self.passed), **self.detail}


def _result(name, value, tol, comparison="<", **detail):
    passed = (value < tol) if comparison == "<" else (value > tol)
    return CheckResult(name=name, value=float(value), tolerance=float(tol),
                       passed=bool(passed), comparison=comparison, detail=detail)


def _setups(system_names=None):
    return all_setups() if system_names is None else [builtin_setup(n) for n in system_names]


def _orbit(su, t_span=None):
    return integrate_newton(su.system, su.q0, su.v0, t_span or su.t_span, su.step)


# ---------------------------------------------------------------------------
# Rescaling-formula suite
# ---------------------------------------------------------------------------

def jacobi_harmonic_factor() -> ScalarField:
    """Jacobi-style factor ``2(E - U)`` for a harmonic potential at E = 5.
    Written by hand: ``_dot`` adds a product in one fused multiply-add,
    which no expression reproduces."""

    def f(p):
        return 2.0 * (5.0 - 0.5 * _dot(p, p))

    return ScalarField(value=f, partials=lambda p: -2.0 * p,
                       second_partials=lambda p: -2.0 * np.eye(p.shape[-1]))


def _strip_analytic(metric: ChartMetric) -> ChartMetric:
    return ChartMetric(dim=metric.dim, g_eval=metric.g_eval,
                       domain_guard=metric.domain_guard, name=metric.name + "-fd")


def check_lemma_suite(tolerances=None, n_samples: int = 100, seed: int = 20240101,
                      fault: Optional[str] = None):
    """Rescaling/reparametrization formulas on three metrics and two factors,
    analytic-derivative and finite-difference paths."""
    tol = {**DEFAULT_TOLERANCES, **(tolerances or {})}
    results = []
    for path in ("analytic", "fd"):
        worst = {"lemma1": 0.0, "lemma2": 0.0, "lemma3": 0.0}
        detail = {}
        for mname in ("flat", "sphere", "hyperbolic"):
            metric = metric_by_name(mname)
            for fname, factor in (("e2x", scalar_field_from_expr("exp(2*q1)", 2)),
                                  ("jacobi-harmonic", jacobi_harmonic_factor())):
                if path == "fd":
                    metric_used = _strip_analytic(metric)
                    factor_used = ScalarField(value=factor.value)
                else:
                    metric_used, factor_used = metric, factor
                recs = lemma_residuals(metric_used, factor_used, n_samples=n_samples,
                                       seed=seed, box=SAMPLE_BOXES[mname], fault=fault)
                for rec in recs:
                    worst[rec["lemma"]] = max(worst[rec["lemma"]], rec["max_residual"])
                detail[f"{mname}/{fname}"] = {r["lemma"]: r["max_residual"] for r in recs}
        tkey = "lemma-analytic" if path == "analytic" else "lemma-fd"
        for lemma in ("lemma1", "lemma2", "lemma3"):
            results.append(_result(f"{lemma}-{path}", worst[lemma], tol[tkey],
                                   samples=n_samples, seed=seed))
    return results


def check_roundtrip(tolerances=None):
    """Trajectory vs reparametrized Jacobi-metric geodesic."""
    tol = {**DEFAULT_TOLERANCES, **(tolerances or {})}
    results = []
    for label, name, t_end, method in (("harmonic", "flat-harmonic", 2.0 * np.pi, "rk4"),
                                       ("gravity", "uniform-gravity", 0.9, "rk45")):
        su = builtin_setup(name)
        rep = maupertuis_roundtrip(su.system, su.energy, su.q0, su.v0, (0.0, t_end),
                                   step=1e-3, geodesic_method=method)
        results.append(_result(f"roundtrip-{label}", rep["sup_norm"], tol["roundtrip"],
                               grid_size=rep["grid_size"], geodesic_method=method))
    return results


def operator_identity_sup(traj, rng, n_fields: int, modes: int = 3) -> float:
    """Worst residual of the deviation operator of h, computed directly,
    against its g-expressed formula, over ``n_fields`` sine-bump fields with
    coefficients drawn from ``rng``; taken on :data:`STENCIL_CORE` of a
    trajectory integrated over a :func:`padded_span`."""
    worst = 0.0
    for _ in range(n_fields):
        v = make_proper_variation(
            traj, coefficients=rng.uniform(-1.0, 1.0, (modes, traj.dim))).values
        # DV from the stencil, not the variation's exact ``var.dev``: both sides
        # of the identity must see the same discrete derivative, and the exact
        # one raises every residual (flat-free 9.9e-10 -> 3.8e-9).
        dv = cov_derivative_along(traj.system.metric, traj.as_curve(), v,
                                  gammas=traj.cache.gamma)
        lhs = jacobi_operator_direct(traj.geo, v)
        rhs = jacobi_operator_via_g(traj, DeviationField(traj, v, dv))
        worst = max(worst, float(np.max(np.abs((lhs - rhs)[STENCIL_CORE]))))
    return worst


def check_operator_identity(tolerances=None, n_fields: int = 20, seed: int = 7,
                            system_names=None):
    """Direct h-computation of the deviation operator against the g-expressed
    formula, random deviation fields on every built-in system."""
    tol = {**DEFAULT_TOLERANCES, **(tolerances or {})}
    results = []
    for su in _setups(system_names):
        worst = operator_identity_sup(_orbit(su, padded_span(su.t_span, su.step)),
                                      np.random.default_rng(seed), n_fields)
        results.append(_result(f"operator-identity-{su.name}", worst,
                               tol["operator-identity"], fields=n_fields, seed=seed,
                               step=su.step))
    return results


def check_equal_energy(tolerances=None):
    """Equal-energy restriction of the operator relation on the harmonic
    radial case: the identity holds and its correction term stays large."""
    tol = {**DEFAULT_TOLERANCES, **(tolerances or {})}
    su = builtin_setup("flat-harmonic")
    t0 = -STENCIL_PAD * su.step          # the circle, parametrized by its angle
    traj = integrate_newton(su.system, np.array([np.cos(t0), np.sin(t0)]),
                            np.array([-np.sin(t0), np.cos(t0)]),
                            padded_span((0.0, 2.0 * np.pi), su.step), su.step)
    vperp = np.sin(traj.times)[:, None] * traj.points   # radial field on the circle
    rep = relation_equal_energy(traj, equal_energy_projection(traj, vperp))
    return [
        _result("equal-energy-constraint", rep["constraint_sup"],
                tol["equal-energy-constraint"]),
        _result("equal-energy-identity", rep["sup_norm"],
                tol["equal-energy-identity"]),
        _result("equal-energy-correction", rep["correction_sup"],
                tol["equal-energy-correction-min"], comparison=">"),
    ]


def check_theorems(tolerances=None, n_variations: int = 10, seed: int = 11,
                   system_names=None):
    """Free-action and length identities over seeded proper variations."""
    tol = {**DEFAULT_TOLERANCES, **(tolerances or {})}
    reports = [r for su in _setups(system_names)
               for r in functional_sweep(_orbit(su), n_variations, seed)]

    def worst(key):
        return max((getattr(r, key) for r in reports), default=0.0)

    worst_path = worst("pathway_delta")
    int_min = min((r.integrand_min for r in reports), default=np.inf)
    return [
        _result("theorem1", worst("thm1_residual"), tol["theorem1"],
                variations=n_variations, seed=seed),
        _result("theorem2", worst("thm2_residual"), tol["theorem2"],
                variations=n_variations, seed=seed),
        _result("theorem2-integrand", int_min, tol["theorem2-integrand-min"],
                comparison=">"),
        _result("orthogonal-identity", max(worst("orth_residual"), worst_path),
                tol["orthogonal-identity"], pathway_delta=worst_path),
    ], reports


def check_conjugate_point(tolerances=None):
    """First conjugate point of the unit-sphere equator at arc length pi."""
    tol = {**DEFAULT_TOLERANCES, **(tolerances or {})}
    su = builtin_setup("sphere-free")
    traj = _orbit(su, (0.0, 3.5))
    dev = integrate_deviation(traj, np.zeros(2), np.array([1.0, 0.0]))
    comp = CubicSpline(traj.times, dev.V[:, 0])
    zero = brentq(comp, 2.9, 3.3)
    arc_err = abs(zero - np.pi)

    traj_pi = _orbit(su, (0.0, np.pi))
    var = make_proper_variation(traj_pi, coefficients=[[1.0, 0.0]])
    value = abs(second_variation_LJ(traj_pi, var))
    return [
        _result("conjugate-point-arc", arc_err, tol["conjugate-point-arc"],
                first_zero=zero),
        _result("conjugate-point-functional", value, tol["conjugate-point-value"]),
    ]


def check_linearization(tolerances=None, alpha: float = 1e-4, seed: int = 3,
                        system_names=None):
    """Linearized flow against the central-difference oracle of the full flow."""
    tol = {**DEFAULT_TOLERANCES, **(tolerances or {})}
    rng = np.random.default_rng(seed)
    results = []
    for su in _setups(system_names):
        dq = rng.uniform(-1.0, 1.0, su.system.metric.dim)
        dv = rng.uniform(-1.0, 1.0, su.system.metric.dim)
        _, sup = linearization_against_oracle(su.system, su.q0, su.v0, dq, dv,
                                              alpha, su.t_span, su.step)
        results.append(_result(f"linearization-{su.name}", sup, tol["linearization"],
                               alpha=alpha, seed=seed))
    return results


def check_energy_drift(tolerances=None, n_steps: int = 1000, step: float = 1e-3,
                       system_names=None):
    """Largest relative energy drift over the samples of a thousand RK4 steps."""
    tol = {**DEFAULT_TOLERANCES, **(tolerances or {})}
    results = []
    for su in _setups(system_names):
        traj = integrate_newton(su.system, su.q0, su.v0,
                                (su.t_span[0], su.t_span[0] + n_steps * step), step)
        results.append(_result(f"energy-drift-{su.name}", traj.energy_drift,
                               tol["energy-drift"], steps=n_steps, step=step))
    return results


def check_action_consistency(tolerances=None, seed: int = 5, xi: float = 3e-4,
                             system_names=None):
    """Quadrature d2S against a central second difference of the action.

    The displacement is kept small (and the variation amplitude modest) so
    the oracle's own O(xi^2) truncation stays below the comparison
    tolerance even on the hyperbolic chart, where fourth derivatives of
    the displaced action are large.
    """
    tol = {**DEFAULT_TOLERANCES, **(tolerances or {})}
    results = []
    for su in _setups(system_names):
        traj = _orbit(su)
        var = make_proper_variation(traj, modes=3, seed=seed, amplitude=0.5)
        quad = second_variation_S(traj, var)
        brute = action_second_difference(traj, var, xi=xi)
        results.append(_result(f"action-consistency-{su.name}",
                               abs(quad - brute), tol["action-consistency"],
                               d2S=quad, oracle=brute, xi=xi))
    return results


def run_verification(tolerances=None, fault: Optional[str] = None, checks=None):
    """Run the named checks (default: all) on every built-in system and
    return their results."""
    available = {
        "lemmas": lambda: check_lemma_suite(tolerances, fault=fault),
        "roundtrip": lambda: check_roundtrip(tolerances),
        "operator-identity": lambda: check_operator_identity(tolerances),
        "equal-energy": lambda: check_equal_energy(tolerances),
        "theorems": lambda: check_theorems(tolerances)[0],
        "conjugate-point": lambda: check_conjugate_point(tolerances),
        "linearization": lambda: check_linearization(tolerances),
        "energy-drift": lambda: check_energy_drift(tolerances),
        "action-consistency": lambda: check_action_consistency(tolerances),
    }
    names = checks or list(available)
    results = []
    for name in names:
        if name not in available:
            raise ValueError(f"unknown check '{name}' (choose from {sorted(available)})")
        results.extend(available[name]())
    return results
