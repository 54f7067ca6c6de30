"""Jacobi-metric construction and geodesic-deviation machinery.

For a mechanical system with metric g, potential U and fixed energy E the
Jacobi metric is the conformal rescaling ``h = 2(E - U) g``.  Its
geodesics, traversed at unit h-speed, reproduce the trajectories of
energy E after the reparametrization ``ds/dt = 2(E - U)``.  This module
integrates those geodesics, converts between the two parameters, and
evaluates the geodesic-deviation operator of h in two independent ways:
directly from h-quantities, and through the g-expressed formula

    devop(V) = (2(E-U))^-2 [ op(V) - d/dt(<V, grad U>/(E-U)) qdot
                             + (<grad U, V> + <qdot, nabla_dot V>)/(E-U) grad U ]

valid along solutions of the equations of motion.  Restricted to
equal-energy variations the last term drops, and the middle term is the
piece that survives: the two stability operators never coincide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline, PchipInterpolator

from .conformal import conformal_rescale
from .dynamics import (CurveGeometry, DeviationField, MechanicalSystem,
                       Trajectory, _rk4, hessian_operator, integrate_newton)
from .errors import ChartDomainError, ForbiddenRegionError
from .geometry import (ChartMetric, SampledCurve, ScalarField, _first_point, christoffel,
                       cov_derivative_along, point_kernel, point_metric)
from .numdiff import apply_stencil, cumulative_simpson


@dataclass(frozen=True)
class JacobiMetric:
    """Conformally rescaled metric ``h = 2(E - U) g`` at fixed energy."""

    system: MechanicalSystem
    E: float
    margin: float
    factor: ScalarField
    h: ChartMetric

    def clearance(self, p):
        """E - U at each point of a batch ``(..., n)``."""
        return self.E - self.system.potential(p)

    def _forbidden(self, c):
        """Mask of clearances at or below the margin, or not finite."""
        return ~(np.isfinite(c) & (c > self.margin))

    def check_clear(self, p) -> None:
        c = np.asarray(self.clearance(p))
        bad = self._forbidden(c)
        if bad.any():
            raise ForbiddenRegionError(
                f"forbidden region: E - U = {c[bad][0]:.3e} <= margin {self.margin:.3e} "
                f"at {_first_point(p, bad)}")

    def factor_values(self, points) -> np.ndarray:
        """``2 (E - U)`` sampled along a batch of points, margin enforced."""
        w = np.asarray(self.clearance(points))
        bad = np.flatnonzero(self._forbidden(w))
        if bad.size:
            raise ForbiddenRegionError(
                f"forbidden region: E - U = {w.flat[bad[0]]:.3e} <= margin "
                f"{self.margin:.3e} at sample {int(bad[0])}")
        return 2.0 * w


def jacobi_metric(sys: MechanicalSystem, E: float) -> JacobiMetric:
    """Build the Jacobi metric of a system at energy E.

    The chart domain of h additionally requires ``E - U > margin``, with
    ``margin = 1e-6 * max(|E|, 1e-6)``; the conformal factor is exposed so
    the rescaling formulas can be applied to it directly.
    """
    margin = 1e-6 * max(abs(E), 1e-6)
    pot = sys.potential
    df = None if pot.partials is None else (lambda p: -2.0 * pot.grad_components(p))
    d2f = None if pot.second_partials is None else (lambda p: -2.0 * pot.hess_components(p))
    factor = ScalarField(value=lambda p: 2.0 * (E - pot(p)), partials=df, second_partials=d2f)

    def guard(p):
        return (E - pot(p)) > margin

    h = conformal_rescale(sys.metric, factor, extra_guard=guard,
                          name=f"jacobi({sys.name or sys.metric.name})")
    return JacobiMetric(system=sys, E=float(E), margin=float(margin), factor=factor, h=h)


@dataclass(frozen=True)
class GeodesicRecord:
    """Arc-length samples of a geodesic of the Jacobi metric ``metric``.

    ``t_of_s`` pairs every arc-length sample with the dynamical time
    accumulated through ``dt/ds = 1 / (2(E-U))``; ``cache``, the h-cache,
    is built on first use.
    """

    s: np.ndarray
    points: np.ndarray
    tangents: np.ndarray
    t_of_s: np.ndarray
    metric: ChartMetric = field(repr=False, compare=False)
    truncated: bool = False
    dense: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "s", np.asarray(self.s, dtype=float))
        object.__setattr__(self, "points", np.asarray(self.points, dtype=float))
        object.__setattr__(self, "tangents", np.asarray(self.tangents, dtype=float))
        object.__setattr__(self, "t_of_s", np.asarray(self.t_of_s, dtype=float))

    def __len__(self):
        return len(self.s)

    def as_curve(self) -> SampledCurve:
        """The samples as one curve in s, kept with its stencil weights."""
        return self._curve

    @cached_property
    def _curve(self) -> SampledCurve:
        return SampledCurve(self.s, self.points, self.tangents)

    @cached_property
    def cache(self) -> CurveGeometry:
        return CurveGeometry(self.metric, self.points)


def _geodesic_stage(jm: JacobiMetric, n: int):
    """The right-hand side ``(s, y) -> (u, acceleration, dt/ds)`` of the
    h-geodesic equation, for states ``y = (q, u, t)``: lists of floats in
    and out.

    With point evaluators on the system it runs the point kernel on ``h``
    and its partials built by the product rule from one evaluation of g and
    of U at the stage's point: ``h = f g``, ``d_k h_ij = d_k f g_ij + f d_k
    g_ij`` with ``f = 2(E - U)`` and ``df = -2 dU``, the order in which
    ``conformal_rescale`` evaluates them.  Otherwise it evaluates the
    Christoffel symbols of ``jm.h``.
    """
    metric, potential = jm.system.metric, jm.system.potential
    if metric.point is None or potential.point is None:
        def rhs(s, y):
            q, u = y[:n], y[n:2 * n]
            acc = -np.einsum('ijk,j,k->i', christoffel(jm.h, q), u, u)
            return u + acc.tolist() + [0.5 / jm.clearance(q)]
        return rhs

    kernel = point_kernel(n)
    E, margin, zero, nn = jm.E, jm.margin, [0.0] * n, n * n

    def rhs(s, y):
        q, u = y[:n], y[n:2 * n]
        g, dg = point_metric(metric, q)
        U, dU = potential.point(q)
        w = E - U
        f = 2.0 * w
        if not (math.isfinite(f) and f > 0.0 and w > margin):
            raise ChartDomainError(f"chart domain: point {q} outside valid region")
        df = [-2.0 * x for x in dU]
        h = [f * x for x in g]
        dh = [df[k] * g[ij] + f * dg[k * nn + ij] for k in range(n) for ij in range(nn)]
        return u + kernel(q, h, dh, zero, u) + [0.5 / w]

    return rhs


RK45_RTOL = 1e-10
RK45_ATOL = 1e-12
"""Tolerances of the adaptive solver of :func:`integrate_geodesic`."""


def integrate_geodesic(jm: JacobiMetric, q0, dir0, s_span, step,
                       method: str = "rk4") -> GeodesicRecord:
    """Integrate the geodesic equation of h from a point and direction.

    ``dir0`` is normalized to unit h-length; dynamical time is accumulated
    alongside.  The fixed-step RK4 path is the default; ``method="rk45"``
    uses an adaptive solver with dense output, which is the right tool
    near turning points where the h-Christoffel symbols blow up.  Reaching
    the forbidden region truncates the record and sets the flag rather
    than raising.
    """
    q0 = np.asarray(q0, dtype=float)
    jm.check_clear(q0)
    jm.h.check_point(q0)
    dir0 = np.asarray(dir0, dtype=float)
    nrm = jm.h.norm(q0, dir0)
    if nrm <= 0.0:
        raise ValueError("dir0 must be nonzero")
    u0 = dir0 / nrm
    s0, s1 = float(s_span[0]), float(s_span[1])
    n = q0.size
    y0 = np.concatenate([q0, u0, [0.0]])
    rhs = _geodesic_stage(jm, n)

    if method == "rk45":
        def clear_event(s, y):
            return jm.clearance(y[:n]) - jm.margin

        clear_event.terminal = True
        clear_event.direction = -1
        sol = solve_ivp(lambda s, y: np.array(rhs(s, y.tolist())), (s0, s1), y0,
                        method="RK45", rtol=RK45_RTOL, atol=RK45_ATOL, dense_output=True,
                        events=clear_event)
        s_end = float(sol.t[-1])
        truncated = sol.status == 1
        n_samples = max(2, int(round((s_end - s0) / step)) + 1)
        s = np.linspace(s0, s_end, n_samples)
        ys = sol.sol(s).T
        return GeodesicRecord(s, ys[:, :n], ys[:, n:2 * n], ys[:, 2 * n], jm.h,
                              truncated=truncated, dense=sol)

    point, E, margin = jm.system.potential.point, jm.E, jm.margin

    def check(y):
        # the batched check, which raises, only where the float test fails
        if point is None or not margin < E - point(y[:n])[0] < math.inf:
            jm.check_clear(y[:n])

    n_steps = max(1, int(round((s1 - s0) / step)))
    h = (s1 - s0) / n_steps
    ys = _rk4(rhs, y0, s0, n_steps, h, check=check)
    return GeodesicRecord(s0 + h * np.arange(len(ys)), ys[:, :n], ys[:, n:2 * n],
                          ys[:, 2 * n], jm.h, truncated=len(ys) <= n_steps)


def geodesic_from_trajectory(traj: Trajectory) -> GeodesicRecord:
    """View a trajectory as a geodesic record of its Jacobi metric.

    The s-grid is the arc length ``s(t) = ∫ 2(E - U) dτ`` by Simpson;
    points are shared, and ``γ' = qdot / (2(E-U))`` is exact at every
    sample.  :attr:`Trajectory.geo` keeps the record.
    """
    w2 = 2.0 * traj.clearance
    s = cumulative_simpson(w2, traj.times)
    return GeodesicRecord(s, traj.points, traj.velocities / w2[:, None],
                          traj.times.copy(), traj.jm.h)


STENCIL_PAD = 10
"""Samples added on each side of a span.  The operator stencils, chained,
reach 6 samples; on the core between the pads they are centered everywhere."""

STENCIL_CORE = slice(STENCIL_PAD, -STENCIL_PAD)
"""The samples of a trajectory integrated over :func:`padded_span`."""


def padded_span(t_span, step):
    """``t_span`` widened by :data:`STENCIL_PAD` steps on each side."""
    return (t_span[0] - STENCIL_PAD * step, t_span[1] + STENCIL_PAD * step)


def jacobi_operator_direct(geo: GeodesicRecord, dev) -> np.ndarray:
    """Geodesic-deviation operator of h evaluated purely with h-quantities.

    Returns ``nabla'_h nabla'_h V + K^h(V)`` on the record's s-grid for a
    sampled field V.
    """
    dev = np.asarray(dev, dtype=float)
    if dev.shape != geo.points.shape:
        raise ValueError("grid mismatch: deviation samples must match the geodesic record")
    cache = geo.cache
    curve = geo.as_curve()
    w1 = cov_derivative_along(geo.metric, curve, dev, gammas=cache.gamma)
    w2 = cov_derivative_along(geo.metric, curve, w1, gammas=cache.gamma)
    curv = np.einsum('nlabc,na,nb,nc->nl', cache.riem, geo.tangents, dev, geo.tangents)
    return w2 + curv


def _energy_constraint(traj: Trajectory, V, DV):
    """``<V, grad U>`` and the energy constraint ``<qdot, nabla_dot V> +
    <grad U, V>``, the first-order change of the energy along the family,
    at every sample of a field V with covariant derivative DV."""
    cache = traj.cache
    v_dot_gu = np.einsum('nij,ni,nj->n', cache.g, V, cache.grad_U)
    return v_dot_gu, np.einsum('nij,ni,nj->n', cache.g, traj.velocities, DV) + v_dot_gu


def _check_orthogonal(traj: Trajectory, V) -> None:
    """Raise unless the field V is g-orthogonal to the velocity at every
    sample, to ``1e-8 * max(1, max|V|)``."""
    orth = np.einsum('nij,ni,nj->n', traj.cache.g, traj.velocities, V)
    if np.max(np.abs(orth)) > 1e-8 * max(1.0, float(np.max(np.abs(V)))):
        raise ValueError("field is not orthogonal to the velocity")


def _g_side(traj: Trajectory, dev: DeviationField):
    """The g-side terms of the operator relation at every sample: ``op(V)``,
    the correction term ``-d/dt(<V, grad U>/(E-U)) qdot``, its time
    derivative taken by the trajectory's stencil, and the energy constraint
    of :func:`_energy_constraint`."""
    v_dot_gu, constraint = _energy_constraint(traj, dev.V, dev.DV)
    dscal = apply_stencil(traj.as_curve().stencil, v_dot_gu / traj.clearance)
    return hessian_operator(traj, dev), -dscal[:, None] * traj.velocities, constraint


def jacobi_operator_via_g(traj: Trajectory, dev: DeviationField) -> np.ndarray:
    """Geodesic-deviation operator of h expressed through g and t-quantities.

    Valid along solutions of the equations of motion, with h the Jacobi
    metric at the trajectory's energy.
    """
    w = traj.clearance
    delta_v, correction, constraint = _g_side(traj, dev)
    out = delta_v + correction + (constraint / w)[:, None] * traj.cache.grad_U
    return out / (2.0 * w[:, None]) ** 2


def _multiplier(traj: Trajectory, lam_rate) -> np.ndarray:
    """``lam`` with ``lam(t0) = 0`` and ``lam'`` the cubic spline through
    ``lam_rate``, by RK4 on the trajectory grid.  The right side has no
    ``lam`` in it, so each step is Simpson's rule on the spline: it is
    evaluated once, as arrays, at the stage times of :func:`_rk4`, and the
    steps are summed in :func:`_rk4`'s order, which gives its bits."""
    h = traj.step
    t = traj.times[0] + h * np.arange(len(traj) - 1)
    rate = CubicSpline(traj.times, lam_rate)
    r2 = rate(t + 0.5 * h)
    steps = (h / 6.0) * (rate(t) + 2.0 * r2 + 2.0 * r2 + rate(t + h))
    return np.concatenate([[0.0], np.cumsum(steps)])


def equal_energy_projection(traj: Trajectory, vperp) -> DeviationField:
    """Complete an orthogonal field to an equal-energy variation.

    Solves for the tangential component ``V = Vperp + lam(t) qdot`` with
    ``lam(t0) = 0`` such that the perturbed family keeps its mechanical
    energy to first order, i.e. ``<qdot, nabla_dot V> + <grad U, V> = 0``
    pointwise.  Substituting the ansatz, the multiplier obeys the scalar
    linear equation

        lam' = -(<qdot, nabla_dot Vperp> + <grad U, Vperp>) / (2 (E - U)),

    integrated here by RK4 on the trajectory grid (see :func:`_multiplier`).
    Vperp must pass :func:`_check_orthogonal`.
    """
    vperp = np.asarray(vperp, dtype=float)
    if vperp.shape != traj.points.shape:
        raise ValueError("grid mismatch: orthogonal field must match the trajectory grid")
    cache = traj.cache
    speed2 = np.einsum('nij,ni,nj->n', cache.g, traj.velocities, traj.velocities)
    if np.min(speed2) <= 1e-12:
        raise ForbiddenRegionError("turning point on interval: |qdot| vanishes")
    _check_orthogonal(traj, vperp)

    dvperp = cov_derivative_along(traj.system.metric, traj.as_curve(), vperp,
                                  gammas=cache.gamma)
    lam_rate = -_energy_constraint(traj, vperp, dvperp)[1] / speed2
    lam = _multiplier(traj, lam_rate)

    v = vperp + lam[:, None] * traj.velocities
    dv = dvperp + lam_rate[:, None] * traj.velocities - lam[:, None] * cache.grad_U
    return DeviationField(traj, v, dv)


def relation_equal_energy(traj: Trajectory, dev: DeviationField) -> dict:
    """Check the equal-energy operator relation and size its correction term.

    Both sides are evaluated independently: the deviation operator of h by
    direct h-computation on the s-grid, and the right-hand side

        (2(E-U))^-2 [ op(V) - d/dt(<V, grad U>/(E-U)) qdot ]

    through g-quantities.  ``sup_norm`` (the residual) and ``correction_sup``
    (the size of the surviving correction term, which quantifies how far the
    two stability operators stay apart even for equal-energy variations)
    are taken on the core that leaves out :data:`STENCIL_PAD` samples at
    each end, as the operator identity is; ``constraint_sup`` is taken over
    the whole grid.  ``correction`` holds the correction term at every
    sample.  A constraint above 1e-6 anywhere is an input error.
    """
    if len(traj) <= 2 * STENCIL_PAD:
        raise ValueError(f"grid too coarse: need more than {2 * STENCIL_PAD} nodes")
    delta_v, correction, constraint = _g_side(traj, dev)
    if np.max(np.abs(constraint)) > 1e-6:
        raise ValueError(
            f"equal-energy constraint violated: max residual {np.max(np.abs(constraint)):.3e}")

    lhs = jacobi_operator_direct(traj.geo, dev.V)
    scale = (2.0 * traj.clearance[:, None]) ** 2
    correction = correction / scale
    rhs = delta_v / scale + correction

    return {
        "sup_norm": float(np.max(np.abs(lhs - rhs)[STENCIL_CORE])),
        "correction_sup": float(np.max(np.abs(correction[STENCIL_CORE]))),
        "constraint_sup": float(np.max(np.abs(constraint))),
        "correction": correction,
    }


def _geodesic_positions_at_times(jm: JacobiMetric, geo: GeodesicRecord, times):
    """Positions of a geodesic record at given dynamical times.

    With dense output available, inverts t(s) by vectorized Newton steps
    (ds = dt * 2(E-U)); otherwise by monotone interpolation of the
    recorded pairing.
    """
    times = np.asarray(times, dtype=float)
    n = geo.points.shape[1]
    if geo.dense is not None:
        sol = geo.dense.sol
        s = PchipInterpolator(geo.t_of_s, geo.s)(times)
        s = np.clip(s, geo.s[0], geo.s[-1])
        for _ in range(6):
            ys = sol(s)
            t_err = ys[2 * n] - times
            w2 = 2.0 * jm.clearance(ys[:n].T)
            s = np.clip(s - t_err * w2, geo.s[0], geo.s[-1])
        return sol(s)[:n].T
    s = PchipInterpolator(geo.t_of_s, geo.s)(times)
    return CubicSpline(geo.s, geo.points, axis=0)(s)


def maupertuis_roundtrip(sys: MechanicalSystem, q0, v0, t_span,
                         geodesic_method: str = "rk45") -> dict:
    """Compare the trajectory with the reparametrized h-geodesic.

    Integrates the equations of motion and, independently, the geodesic of
    ``h = 2(E - U) g`` at the energy E of the initial data, from the same
    point and direction, both with step 1e-3; maps the geodesic back to
    dynamical time through its own accumulated t(s) and reports the
    sup-norm position discrepancy.
    """
    step = 1e-3
    traj = integrate_newton(sys, q0, v0, t_span, step)
    jm = traj.jm
    geo = integrate_geodesic(jm, q0, v0, (0.0, float(traj.geo.s[-1])), step,
                             method=geodesic_method)
    t_max = float(geo.t_of_s[-1])
    mask = traj.times <= t_max + 1e-12
    pos = _geodesic_positions_at_times(jm, geo, traj.times[mask])
    sup = float(np.max(np.abs(pos - traj.points[mask])))
    return {"sup_norm": sup, "grid_size": int(np.sum(mask)), "truncated": geo.truncated}
