"""Second-variation functionals and the identities relating them.

Three quadratic functionals are evaluated by composite Simpson quadrature
on the integrator grid:

* ``d2S``  : second variation of the mechanical action (t-integral of
  ``-<op(V), V>``),
* ``d2S0J``: second variation of the free action of the Jacobi metric
  (s-integral of ``-<devop(V), V>_h``),
* ``d2LJ`` : second variation of the Jacobi-metric length functional,
  which only sees the component of V orthogonal to the geodesic.

The identity suite checks, with both sides computed by independent code
paths,

    d2S0J = d2S + ∫ 2 <qdot, nabla_dot V> <F, V> dt,        F = grad ln(2(E-U))
    d2LJ  = d2S - ∫ dt/(2(E-U)) [<qdot, nabla_dot V> - <nabla_dot qdot, V>]^2
    d2S|orth = d2LJ + ∫ (<F_h, Vperp>_h)^2 ds

with ``F_h`` the h-gradient of ``ln(2(E-U))``.  The squared-bracket
correction is pointwise nonnegative, which is the quantitative form of
"length-minimizing geodesics are action-minimizing solutions, but not
conversely".
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict
from typing import Optional

import numpy as np
from scipy.integrate import simpson

from .dynamics import (CurveGeometry, DeviationField, MechanicalSystem,
                       Trajectory, _write_text_atomic, hessian_operator)
from .geometry import _quad, cov_derivative_along
from .jacobi import (JacobiMetric, geodesic_from_trajectory, jacobi_metric,
                     jacobi_operator_direct, equal_energy_projection)


@dataclass(frozen=True)
class ProperVariation:
    """Sine-bump variation field along a trajectory, zero at both endpoints.

    ``values`` hold V on the trajectory grid and ``dvalues`` the plain
    coordinate derivative dV/dt (exact for the sine basis).
    """

    times: np.ndarray
    values: np.ndarray
    dvalues: np.ndarray
    coefficients: np.ndarray
    seed: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        object.__setattr__(self, "dvalues", np.asarray(self.dvalues, dtype=float))


def make_proper_variation(traj: Trajectory, coefficients=None, modes: int = 3,
                          seed: Optional[int] = None, amplitude: float = 1.0,
                          orthogonal: bool = False,
                          sys: Optional[MechanicalSystem] = None,
                          cache: Optional[CurveGeometry] = None) -> ProperVariation:
    """Build a proper variation from sine-bump basis coefficients.

    The basis is ``sin(k pi (t - t0) / (t1 - t0))`` per coordinate, so the
    endpoint zeros are exact.  Either pass explicit ``coefficients`` of
    shape (modes, n) or a seed from which they are drawn uniformly.  With
    ``orthogonal=True`` the field is pointwise projected g-orthogonal to
    the velocity (requires ``sys``).
    """
    if len(traj) < 9:
        raise ValueError("grid too coarse: need at least 9 nodes")
    n = traj.dim
    t0, t1 = traj.times[0], traj.times[-1]
    span = t1 - t0
    if coefficients is None:
        if seed is None:
            raise ValueError("empty variation spec: give coefficients or a seed")
        rng = np.random.default_rng(seed)
        coefficients = amplitude * rng.uniform(-1.0, 1.0, size=(modes, n))
    coefficients = np.atleast_2d(np.asarray(coefficients, dtype=float))
    if coefficients.size == 0:
        raise ValueError("empty variation spec")

    phase = np.pi * (traj.times - t0) / span
    values = np.zeros((len(traj), n))
    dvalues = np.zeros((len(traj), n))
    for k, row in enumerate(coefficients, start=1):
        values += np.sin(k * phase)[:, None] * row[None, :]
        dvalues += (k * np.pi / span) * np.cos(k * phase)[:, None] * row[None, :]
    values[0] = 0.0
    values[-1] = 0.0

    if orthogonal:
        if sys is None:
            raise ValueError("orthogonal projection needs the mechanical system")
        cache = cache or CurveGeometry(sys.metric, traj.points, sys)
        speed2 = np.einsum('nij,ni,nj->n', cache.g, traj.velocities, traj.velocities)
        mu = np.einsum('nij,ni,nj->n', cache.g, traj.velocities, values) / speed2
        values = values - mu[:, None] * traj.velocities
        values[0] = 0.0
        values[-1] = 0.0
        from .numdiff import local_derivative
        dvalues = local_derivative(traj.times, values, m=1, width=7)

    return ProperVariation(traj.times, values, dvalues, coefficients, seed=seed)


def variation_as_deviation(sys: MechanicalSystem, traj: Trajectory,
                           var: ProperVariation,
                           cache: Optional[CurveGeometry] = None) -> DeviationField:
    """Attach a variation to its trajectory with ``DV = dV/dt + Γ(qdot, V)``."""
    cache = cache or CurveGeometry(sys.metric, traj.points, sys)
    corr = np.einsum('nijk,nj,nk->ni', cache.gamma, traj.velocities, var.values)
    return DeviationField(traj, var.values, var.dvalues + corr)


def equal_energy_variation(sys: MechanicalSystem, traj: Trajectory,
                           var: ProperVariation,
                           cache: Optional[CurveGeometry] = None) -> DeviationField:
    """Equal-energy completion of an orthogonal variation (loses the endpoint
    zero at t1 in general)."""
    return equal_energy_projection(sys, traj, var.values, cache=cache)


def _check_grid(traj: Trajectory, var: ProperVariation):
    if len(traj) < 9:
        raise ValueError("grid too coarse: need at least 9 nodes")
    if var.values.shape != traj.points.shape:
        raise ValueError("variation samples must match the trajectory grid")
    scale = max(1.0, float(np.max(np.abs(var.values))))
    ends = max(float(np.max(np.abs(var.values[0]))), float(np.max(np.abs(var.values[-1]))))
    if ends > 1e-12 * scale:
        raise ValueError("variation must vanish at both endpoints")


def second_variation_S(sys: MechanicalSystem, traj: Trajectory, var: ProperVariation,
                       cache: Optional[CurveGeometry] = None) -> float:
    """Quadrature of ``-<op(V), V>`` over dynamical time."""
    _check_grid(traj, var)
    cache = cache or CurveGeometry(sys.metric, traj.points, sys)
    dev = variation_as_deviation(sys, traj, var, cache=cache)
    delta_v = hessian_operator(sys, traj, dev, cache=cache, order=4)
    integrand = -np.einsum('nij,ni,nj->n', cache.g, delta_v, var.values)
    return float(simpson(integrand, x=traj.times))


def second_variation_S0J(sys: MechanicalSystem, E: float, traj: Trajectory,
                         var: ProperVariation,
                         jm: Optional[JacobiMetric] = None,
                         h_cache: Optional[CurveGeometry] = None) -> float:
    """Quadrature of ``-<devop(V), V>_h`` over arc length."""
    _check_grid(traj, var)
    jm = jm or jacobi_metric(sys, E)
    geo = geodesic_from_trajectory(jm, traj)
    h_cache = h_cache or CurveGeometry(jm.h, geo.points)
    dj_v = jacobi_operator_direct(jm, geo, var.values, cache=h_cache)
    integrand = -np.einsum('nij,ni,nj->n', h_cache.g, dj_v, var.values)
    return float(simpson(integrand, x=geo.s))


def second_variation_LJ(sys: MechanicalSystem, E: float, traj: Trajectory,
                        var: ProperVariation,
                        jm: Optional[JacobiMetric] = None,
                        h_cache: Optional[CurveGeometry] = None) -> float:
    """Length-functional second variation: only the h-orthogonal part of V counts."""
    _check_grid(traj, var)
    jm = jm or jacobi_metric(sys, E)
    geo = geodesic_from_trajectory(jm, traj)
    h_cache = h_cache or CurveGeometry(jm.h, geo.points)
    tang2 = np.einsum('nij,ni,nj->n', h_cache.g, geo.tangents, geo.tangents)
    mu = np.einsum('nij,ni,nj->n', h_cache.g, geo.tangents, var.values) / tang2
    vperp = var.values - mu[:, None] * geo.tangents
    dj_v = jacobi_operator_direct(jm, geo, vperp, cache=h_cache)
    integrand = -np.einsum('nij,ni,nj->n', h_cache.g, dj_v, vperp)
    return float(simpson(integrand, x=geo.s))


def theorem1_residual(sys: MechanicalSystem, E: float, traj: Trajectory,
                      var: ProperVariation,
                      cache: Optional[CurveGeometry] = None,
                      jm: Optional[JacobiMetric] = None,
                      h_cache: Optional[CurveGeometry] = None) -> dict:
    """Free-action identity: both sides evaluated by independent paths.

    The left side integrates the h-deviation operator in arc length; the
    right side adds to d2S the t-quadrature of ``2<qdot, nabla_dot V><F, V>``
    with ``F = grad ln(2(E-U)) = -grad U / (E-U)``.
    """
    cache = cache or CurveGeometry(sys.metric, traj.points, sys)
    jm = jm or jacobi_metric(sys, E)
    lhs = second_variation_S0J(sys, E, traj, var, jm=jm, h_cache=h_cache)
    d2s = second_variation_S(sys, traj, var, cache=cache)
    dev = variation_as_deviation(sys, traj, var, cache=cache)
    w = 0.5 * jm.factor_values(traj.points)
    f_vec = -cache.grad_U / w[:, None]
    qdot_dv = np.einsum('nij,ni,nj->n', cache.g, traj.velocities, dev.DV)
    f_dot_v = np.einsum('nij,ni,nj->n', cache.g, f_vec, var.values)
    correction = float(simpson(2.0 * qdot_dv * f_dot_v, x=traj.times))
    rhs = d2s + correction
    return {"lhs": lhs, "rhs": rhs, "residual": abs(lhs - rhs),
            "d2S": d2s, "correction": correction}


def theorem2_residual(sys: MechanicalSystem, E: float, traj: Trajectory,
                      var: ProperVariation,
                      cache: Optional[CurveGeometry] = None,
                      jm: Optional[JacobiMetric] = None,
                      h_cache: Optional[CurveGeometry] = None) -> dict:
    """Length identity with the squared-bracket correction.

    The correction integrand ``[<qdot, nabla_dot V> - <nabla_dot qdot, V>]^2
    / (2(E-U))`` is evaluated from sampled covariant derivatives (no
    equations-of-motion substitution) and is pointwise nonnegative, so
    ``d2S >= d2LJ`` up to quadrature error.
    """
    cache = cache or CurveGeometry(sys.metric, traj.points, sys)
    jm = jm or jacobi_metric(sys, E)
    lhs = second_variation_LJ(sys, E, traj, var, jm=jm, h_cache=h_cache)
    d2s = second_variation_S(sys, traj, var, cache=cache)
    dev = variation_as_deviation(sys, traj, var, cache=cache)
    w = 0.5 * jm.factor_values(traj.points)
    acc = cov_derivative_along(sys.metric, traj.as_curve(), traj.velocities,
                               order=4, gammas=cache.gamma)
    bracket = (np.einsum('nij,ni,nj->n', cache.g, traj.velocities, dev.DV)
               - np.einsum('nij,ni,nj->n', cache.g, acc, var.values))
    integrand = bracket**2 / (2.0 * w)
    correction = float(simpson(integrand, x=traj.times))
    rhs = d2s - correction
    return {"lhs": lhs, "rhs": rhs, "residual": abs(lhs - rhs),
            "d2S": d2s, "correction": correction,
            "integrand_min": float(np.min(integrand))}


def orthogonal_identity_residual(sys: MechanicalSystem, E: float, traj: Trajectory,
                                 var: ProperVariation,
                                 cache: Optional[CurveGeometry] = None,
                                 jm: Optional[JacobiMetric] = None,
                                 h_cache: Optional[CurveGeometry] = None,
                                 orth_tol: float = 1e-8) -> dict:
    """Orthogonal-variation identity with the h-gradient correction.

    For g-orthogonal V the action second variation satisfies
    ``d2S = d2LJ + ∫ (<F_h, V>_h)^2 ds`` where ``F_h`` is the gradient of
    ``ln(2(E-U))`` taken in the Jacobi metric.  The same correction must
    agree with the squared-bracket pathway, which is also reported.
    """
    cache = cache or CurveGeometry(sys.metric, traj.points, sys)
    jm = jm or jacobi_metric(sys, E)
    orth = np.einsum('nij,ni,nj->n', cache.g, traj.velocities, var.values)
    if np.max(np.abs(orth)) > orth_tol * max(1.0, float(np.max(np.abs(var.values)))):
        raise ValueError("variation is not orthogonal to the velocity")

    lhs = second_variation_S(sys, traj, var, cache=cache)
    d2lj = second_variation_LJ(sys, E, traj, var, jm=jm, h_cache=h_cache)
    geo = geodesic_from_trajectory(jm, traj)
    w = 0.5 * jm.factor_values(traj.points)
    # <F_h, V>_h = -<grad U, V>_g / (E - U)
    phi = -np.einsum('nij,ni,nj->n', cache.g, cache.grad_U, var.values) / w
    correction = float(simpson(phi**2, x=geo.s))
    rhs = d2lj + correction
    thm2 = theorem2_residual(sys, E, traj, var, cache=cache, jm=jm, h_cache=h_cache)
    return {"lhs": lhs, "rhs": rhs, "residual": abs(lhs - rhs),
            "correction": correction, "d2LJ": d2lj,
            "pathway_delta": abs(correction - thm2["correction"])}


def action_of_displaced(sys: MechanicalSystem, traj: Trajectory, var: ProperVariation,
                        xi: float) -> float:
    """Mechanical action of the coordinate-displaced curve ``γ + ξ V``."""
    pts = traj.points + xi * var.values
    vel = traj.velocities + xi * var.dvalues
    kin = 0.5 * _quad(sys.metric.g(pts), vel, vel)
    pot = sys.potential(pts)
    return float(simpson(kin - pot, x=traj.times))


def action_second_difference(sys: MechanicalSystem, traj: Trajectory,
                             var: ProperVariation, xi: float = 1e-3) -> float:
    """Independent oracle for d2S: central second difference of the action."""
    s_plus = action_of_displaced(sys, traj, var, xi)
    s_zero = action_of_displaced(sys, traj, var, 0.0)
    s_minus = action_of_displaced(sys, traj, var, -xi)
    return (s_plus - 2.0 * s_zero + s_minus) / xi**2


@dataclass(frozen=True)
class FunctionalReport:
    """Evaluated functionals and identity residuals for one experiment."""

    system: str
    E: float
    seed: Optional[int]
    d2S: float
    d2S0J: float
    d2LJ: float
    thm1_correction: float
    thm2_correction: float
    thm1_residual: float
    thm2_residual: float
    orth_residual: Optional[float]
    grid_size: int
    step: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=1)

    def write_json(self, path) -> None:
        _write_text_atomic(path, self.to_json())


SWEEP_COLUMNS = ("system", "E", "seed", "d2S", "d2S0J", "d2LJ",
                 "thm1_residual", "thm2_residual", "orth_residual")


def write_sweep_csv(path, reports) -> None:
    lines = [",".join(SWEEP_COLUMNS)]
    for r in reports:
        vals = []
        for c in SWEEP_COLUMNS:
            v = getattr(r, c)
            if v is None:
                vals.append("")
            elif isinstance(v, float):
                vals.append(format(v, ".17g"))
            else:
                vals.append(str(v))
        lines.append(",".join(vals))
    _write_text_atomic(path, "\n".join(lines) + "\n")


def evaluate_functionals(sys: MechanicalSystem, E: float, traj: Trajectory,
                         var: ProperVariation,
                         orth_var: Optional[ProperVariation] = None,
                         cache: Optional[CurveGeometry] = None,
                         jm: Optional[JacobiMetric] = None,
                         h_cache: Optional[CurveGeometry] = None) -> FunctionalReport:
    """Evaluate all three functionals and identity residuals for one variation."""
    cache = cache or CurveGeometry(sys.metric, traj.points, sys)
    jm = jm or jacobi_metric(sys, E)
    if h_cache is None:
        geo = geodesic_from_trajectory(jm, traj)
        h_cache = CurveGeometry(jm.h, geo.points)
    t1 = theorem1_residual(sys, E, traj, var, cache=cache, jm=jm, h_cache=h_cache)
    t2 = theorem2_residual(sys, E, traj, var, cache=cache, jm=jm, h_cache=h_cache)
    orth_res = None
    if orth_var is not None:
        orth = orthogonal_identity_residual(sys, E, traj, orth_var,
                                            cache=cache, jm=jm, h_cache=h_cache)
        orth_res = orth["residual"]
    return FunctionalReport(
        system=sys.name, E=E, seed=var.seed,
        d2S=t1["d2S"], d2S0J=t1["lhs"], d2LJ=t2["lhs"],
        thm1_correction=t1["correction"], thm2_correction=t2["correction"],
        thm1_residual=t1["residual"], thm2_residual=t2["residual"],
        orth_residual=orth_res, grid_size=len(traj), step=traj.step)
