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

from .conformal import conformal_rescale, lemma_residuals
from .dynamics import (DeviationField, integrate_newton,
                       integrate_with_deviation, linearization_against_oracle)
from .expressions import scalar_field_from_expr
from .geometry import ScalarField, _apply, _dot, cov_derivative_along, fd_field, fd_metric
from .jacobi import (STENCIL_CORE, STENCIL_PAD, jacobi_operator_direct,
                     jacobi_operator_via_g, equal_energy_projection,
                     maupertuis_roundtrip, padded_span, relation_equal_energy)
from .numdiff import brentq, hermite
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
    """Outcome of one identity check, graded against the tolerance of its
    :data:`DEFAULT_TOLERANCES` entry ``key``; the CLI may set another
    ``tolerance`` after the check has run."""

    name: str
    value: float
    key: str
    comparison: str = "<"      # value < tolerance passes ("<") or value > tolerance (">")
    detail: dict = field(default_factory=dict)
    tolerance: float = field(init=False)

    def __post_init__(self):
        self.value = float(self.value)
        self.tolerance = DEFAULT_TOLERANCES[self.key]

    @property
    def passed(self) -> bool:
        if self.comparison == "<":
            return self.value < self.tolerance
        return self.value > self.tolerance

    def to_dict(self) -> dict:
        return {"identity": self.name, "value": self.value,
                "tolerance": self.tolerance, "comparison": self.comparison,
                "passed": bool(self.passed), **self.detail}


def _result(name, value, key, comparison="<", **detail):
    return CheckResult(name, value, key, comparison, detail)


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


def check_lemma_suite(n_samples: int = 100, fault: Optional[str] = None):
    """Rescaling/reparametrization formulas on three metrics and two factors,
    analytic-derivative and finite-difference paths.

    The finite-difference path gives the formulas the partials of
    :func:`fd_metric` and :func:`fd_field`, and the direct side h with
    central-difference partials of its own components."""
    seed = 20240101
    results = []
    for path in ("analytic", "fd"):
        worst = {"lemma1": 0.0, "lemma2": 0.0, "lemma3": 0.0}
        for mname in ("flat", "sphere", "hyperbolic"):
            metric = metric_by_name(mname)
            for factor in (scalar_field_from_expr("exp(2*q1)", 2), jacobi_harmonic_factor()):
                if path == "fd":
                    metric_used, factor_used = fd_metric(metric), fd_field(factor.value)
                    rescaled = fd_metric(conformal_rescale(metric_used, factor_used))
                else:
                    metric_used, factor_used = metric, factor
                    rescaled = conformal_rescale(metric, factor)
                recs = lemma_residuals(metric_used, factor_used, rescaled, n_samples=n_samples,
                                       seed=seed, box=SAMPLE_BOXES[mname], fault=fault)
                for rec in recs:
                    worst[rec["lemma"]] = max(worst[rec["lemma"]], rec["max_residual"])
        for lemma in ("lemma1", "lemma2", "lemma3"):
            results.append(_result(f"{lemma}-{path}", worst[lemma], f"lemma-{path}",
                                   samples=n_samples, seed=seed))
    return results


def check_roundtrip():
    """Trajectory vs reparametrized Jacobi-metric geodesic."""
    results = []
    for label, name, t_end, method in (("harmonic", "flat-harmonic", 2.0 * np.pi, "rk4"),
                                       ("gravity", "uniform-gravity", 0.9, "rk45")):
        su = builtin_setup(name)
        rep = maupertuis_roundtrip(su.system, su.q0, su.v0, (0.0, t_end),
                                   geodesic_method=method)
        results.append(_result(f"roundtrip-{label}", rep["sup_norm"], "roundtrip",
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
        dv = cov_derivative_along(traj.curve, v)
        lhs = jacobi_operator_direct(traj.geo, v)
        rhs = jacobi_operator_via_g(traj, DeviationField(traj, v, dv))
        worst = max(worst, float(np.max(np.abs((lhs - rhs)[STENCIL_CORE]))))
    return worst


def check_operator_identity(n_fields: int = 20, system_names=None):
    """Direct h-computation of the deviation operator against the g-expressed
    formula, random deviation fields on every built-in system."""
    seed = 7
    results = []
    for su in _setups(system_names):
        worst = operator_identity_sup(_orbit(su, padded_span(su.t_span, su.step)),
                                      np.random.default_rng(seed), n_fields)
        results.append(_result(f"operator-identity-{su.name}", worst,
                               "operator-identity", fields=n_fields, seed=seed,
                               step=su.step))
    return results


def check_equal_energy():
    """Equal-energy restriction of the operator relation on the harmonic
    radial case: the identity holds and its correction term stays large."""
    su = builtin_setup("flat-harmonic")
    t0 = -STENCIL_PAD * su.step          # the circle, parametrized by its angle
    traj = integrate_newton(su.system, np.array([np.cos(t0), np.sin(t0)]),
                            np.array([-np.sin(t0), np.cos(t0)]),
                            padded_span((0.0, 2.0 * np.pi), su.step), su.step)
    vperp = np.sin(traj.times)[:, None] * traj.points   # radial field on the circle
    rep = relation_equal_energy(traj, equal_energy_projection(traj, vperp))
    return [
        _result("equal-energy-constraint", rep["constraint_sup"],
                "equal-energy-constraint"),
        _result("equal-energy-identity", rep["sup_norm"],
                "equal-energy-identity"),
        _result("equal-energy-correction", rep["correction_sup"],
                "equal-energy-correction-min", comparison=">"),
    ]


def check_theorems(n_variations: int = 10, system_names=None):
    """Free-action and length identities over seeded proper variations."""
    seed = 11
    reports = [r for su in _setups(system_names)
               for r in functional_sweep(_orbit(su), n_variations, seed)]

    def worst(key):
        return max((getattr(r, key) for r in reports), default=0.0)

    worst_path = worst("pathway_delta")
    int_min = min((r.integrand_min for r in reports), default=np.inf)
    return [
        _result("theorem1", worst("thm1_residual"), "theorem1",
                variations=n_variations, seed=seed),
        _result("theorem2", worst("thm2_residual"), "theorem2",
                variations=n_variations, seed=seed),
        _result("theorem2-integrand", int_min, "theorem2-integrand-min",
                comparison=">"),
        _result("orthogonal-identity", max(worst("orth_residual"), worst_path),
                "orthogonal-identity", pathway_delta=worst_path),
    ], reports


def check_conjugate_point():
    """First conjugate point of the unit-sphere equator at arc length pi."""
    su = builtin_setup("sphere-free")
    dev = integrate_with_deviation(su.system, su.q0, su.v0, (0.0, 3.5), su.step, np.zeros(2),
                                   np.array([1.0, 0.0]))
    # dV/dt = DV - C V, with C the connection along the orbit
    dv_dt = dev.DV - _apply(dev.trajectory.curve.connection, dev.V)
    comp = hermite(dev.trajectory.times, dev.V[:, 0], dv_dt[:, 0])
    zero = brentq(comp, 2.9, 3.3)
    arc_err = abs(zero - np.pi)

    traj_pi = _orbit(su, (0.0, np.pi))
    var = make_proper_variation(traj_pi, coefficients=[[1.0, 0.0]])
    value = abs(second_variation_LJ(traj_pi, var))
    return [
        _result("conjugate-point-arc", arc_err, "conjugate-point-arc",
                first_zero=zero),
        _result("conjugate-point-functional", value, "conjugate-point-value"),
    ]


def check_linearization(system_names=None):
    """Linearized flow against the central-difference oracle of the full flow."""
    alpha, seed = 1e-4, 3
    rng = np.random.default_rng(seed)
    results = []
    for su in _setups(system_names):
        dq = rng.uniform(-1.0, 1.0, su.system.metric.dim)
        dv = rng.uniform(-1.0, 1.0, su.system.metric.dim)
        _, sup = linearization_against_oracle(su.system, su.q0, su.v0, dq, dv,
                                              alpha, su.t_span, su.step)
        results.append(_result(f"linearization-{su.name}", sup, "linearization",
                               alpha=alpha, seed=seed))
    return results


def check_energy_drift(system_names=None):
    """Largest relative energy drift over the samples of a thousand RK4 steps."""
    n_steps, step = 1000, 1e-3
    results = []
    for su in _setups(system_names):
        traj = integrate_newton(su.system, su.q0, su.v0,
                                (su.t_span[0], su.t_span[0] + n_steps * step), step)
        results.append(_result(f"energy-drift-{su.name}", traj.energy_drift,
                               "energy-drift", steps=n_steps, step=step))
    return results


def check_action_consistency(system_names=None):
    """Quadrature d2S against a Richardson-extrapolated second difference
    of the action.

    The central second difference ``D(xi)`` errs by ``c xi^2 + O(xi^4)``,
    and roundoff in the action grows like ``xi^-2``; the oracle
    ``(4 D(xi) - D(2 xi)) / 3`` cancels the ``xi^2`` term, so at
    ``xi = 1e-3`` its truncation is ``O(xi^4)`` while its roundoff stays
    that of a step of 1e-3 (a smaller pair, 3e-4 and 6e-4, is
    roundoff-limited on most systems).  On the hyperbolic chart, where
    the displaced action's fourth derivatives are large, the ``xi^2`` term
    dominates ``D`` itself.
    """
    seed, xi = 5, 1e-3
    results = []
    for su in _setups(system_names):
        traj = _orbit(su)
        var = make_proper_variation(traj, modes=3, seed=seed, amplitude=0.5)
        quad = second_variation_S(traj, var)
        fine = action_second_difference(traj, var, xi=xi)
        coarse = action_second_difference(traj, var, xi=2.0 * xi)
        brute = (4.0 * fine - coarse) / 3.0
        results.append(_result(f"action-consistency-{su.name}",
                               abs(quad - brute), "action-consistency",
                               d2S=quad, oracle=brute, xi=xi, xi_coarse=2.0 * xi))
    return results


def run_verification(fault: Optional[str] = None, checks=None):
    """Run the named checks (default: all) on every built-in system and
    return their results."""
    available = {
        "lemmas": lambda: check_lemma_suite(fault=fault),
        "roundtrip": check_roundtrip,
        "operator-identity": check_operator_identity,
        "equal-energy": check_equal_energy,
        "theorems": lambda: check_theorems()[0],
        "conjugate-point": check_conjugate_point,
        "linearization": check_linearization,
        "energy-drift": check_energy_drift,
        "action-consistency": check_action_consistency,
    }
    names = checks or list(available)
    results = []
    for name in names:
        if name not in available:
            raise ValueError(f"unknown check '{name}' (choose from {sorted(available)})")
        results.extend(available[name]())
    return results
