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
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .conformal import conformal_rescale
from .dynamics import (DeviationField, MechanicalSystem, Trajectory, _rk4, _rk45, _stage,
                       hessian_operator, integrate_newton)
from .errors import ForbiddenRegionError
from .expressions import scalar_field_from_expr
from .geometry import (ChartMetric, CurveGeometry, PointSource, ScalarField, _apply, _const,
                       _first_point, _lit, cov_derivative_along)
from .numdiff import apply_stencil, cumulative_simpson, hermite


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

    @cached_property
    def free_system(self) -> MechanicalSystem:
        """h with the potential 0: its Newton orbits at unit h-speed are the
        arc-length geodesics of h."""
        return MechanicalSystem(self.h, scalar_field_from_expr("0", self.h.dim),
                                name=self.h.name)


def _point_source(metric: PointSource, potential: PointSource, E: float,
                  margin: float) -> PointSource:
    """The point source of h from the point sources of the system: its own
    sources inlined (their fast forms in its fast form), then ``h = f g``,
    ``d_k h_ij = df_k g_ij + f d_k g_ij`` and, in the second block,
    ``d_k d_l h_ij = d2f_kl g_ij + df_k d_l g_ij + df_l d_k g_ij + f d_k d_l g_ij``,
    with ``f = 2(E - U)``, ``df = -2 dU`` and ``d2f = -2 d2U``, formed as
    :func:`~jacobistab.conformal.conformal_rescale` forms them.  The point
    is outside where ``not (isfinite(f) and f > 0 and E - U > margin)``.

    There f is finite and positive, so an entry of h is a structural zero
    where g's is, and an entry of dh or d2h where each of its products has
    a zero factor: it is ``±0 + ... + f * 0.0``, which is 0.0.  E and the
    margin are parameters, so the Jacobi metrics of one system at any
    energy share one source.
    """
    n = metric.dim
    nn = n * n
    forms = []
    for fast in (False, True):
        g_lines, g_lines2, (G, D, D2) = metric.inline("_g", "OUTSIDE", fast)
        u_lines, u_lines2, (U, dU, d2U) = potential.inline("_u", "OUTSIDE", fast)
        forms.append(([*g_lines, *u_lines, f"_w = _E - {_lit(U[0])}", "_f = 2.0 * _w",
                       "if not (isfinite(_f) and _f > 0.0 and _w > _margin):", "    OUTSIDE"],
                      [*g_lines2, *u_lines2]))
    lines, lines2, bound = [], [], {}

    def rule(out, name, terms):
        """Bind ``name`` to the sum of the products ``terms``, each a pair
        of factors, with the literal 0.0 for a zero one, unless every
        product has a zero factor; the last product is by f.  A sum bound
        before (that of ``h_ji`` for ``h_ij``, say) keeps its local."""
        if all(0.0 in (_const(a), _const(b)) for a, b in terms):
            return None
        text = " + ".join(f"{a} * {_lit(b)}" if a == "_f" else f"-2.0 * {_lit(a)} * {_lit(b)}"
                          for a, b in terms)
        if text not in bound:
            out.append(f"{name} = {text}")
            bound[text] = name
        return bound[text]

    h = [rule(lines, f"_h{k}", [("_f", x)]) for k, x in enumerate(G)]
    dh = [rule(lines, f"_dh{k * nn + ij}", [(dU[k], x), ("_f", D[k * nn + ij])])
          for k in range(n) for ij, x in enumerate(G)]
    d2h = [rule(lines2, f"_d2h{(k * n + l) * nn + ij}",
                [(d2U[k * n + l], x), (dU[k], D[l * nn + ij]), (dU[l], D[k * nn + ij]),
                 ("_f", D2[(k * n + l) * nn + ij])])
           for k in range(n) for l in range(n) for ij, x in enumerate(G)]
    params = {**metric.bind("_g"), **potential.bind("_u"), "_E": float(E), "_margin": margin}
    (first, second), (fast, fast2) = forms
    return PointSource(n, metric.shapes, (*first, *lines), (tuple(h), tuple(dh), tuple(d2h)),
                       (*second, *lines2), tuple(params.items()),
                       ((*fast, *lines), (*fast2, *lines2))
                       if metric.fast or potential.fast else ())


def jacobi_metric(sys: MechanicalSystem, E: float) -> JacobiMetric:
    """Build the Jacobi metric of a system at energy E.

    The chart domain of h additionally requires ``E - U > margin``, with
    ``margin = 1e-6 * max(|E|, 1e-6)``; the conformal factor is exposed so
    the rescaling formulas can be applied to it directly.  h has a point
    source (see :func:`_point_source`) when the system's metric and
    potential both have one.
    """
    margin = 1e-6 * max(abs(E), 1e-6)
    pot = sys.potential
    factor = ScalarField(value=lambda p: 2.0 * (E - pot(p)),
                         partials=lambda p: -2.0 * pot.grad_components(p),
                         second_partials=lambda p: -2.0 * pot.hess_components(p))

    def guard(p):
        return (E - pot(p)) > margin

    h = conformal_rescale(sys.metric, factor, extra_guard=guard,
                          name=f"jacobi({sys.name or sys.metric.name})")
    if sys.metric.point is not None and pot.point is not None:
        h = replace(h, point=_point_source(sys.metric.point, pot.point, E, margin))
    return JacobiMetric(system=sys, E=float(E), margin=float(margin), factor=factor, h=h)


@dataclass(frozen=True)
class GeodesicRecord:
    """Arc-length samples of a geodesic of the Jacobi metric ``metric``.

    ``t_of_s`` pairs every arc-length sample with the dynamical time
    ``t = ∫ ds / (2(E-U))``; ``curve``, the samples as one curve in s with
    the h-data along it, is built on first use.
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

    @cached_property
    def curve(self) -> CurveGeometry:
        return CurveGeometry(self.metric, self.s, self.points, self.tangents)


RK45_RTOL = 1e-10
RK45_ATOL = 1e-12
"""Tolerances of the adaptive solver of :func:`integrate_geodesic`."""


def integrate_geodesic(jm: JacobiMetric, q0, dir0, s_span, step,
                       method: str = "rk4") -> GeodesicRecord:
    """Integrate the geodesic equation of h from a point and direction.

    ``dir0`` is normalized to unit h-length; the geodesic is the Newton
    orbit of ``jm.free_system``.  The fixed-step RK4 path is the default,
    and its ``t_of_s`` is Simpson's rule on ``dt/ds = 1 / (2(E - U))``;
    ``method="rk45"`` uses the adaptive Dormand–Prince solver with dense
    output of :func:`~jacobistab.dynamics._rk45`, a bitwise port of scipy's
    ``solve_ivp`` RK45, which is the right tool near turning points where
    the h-Christoffel symbols blow up; it carries t as one more state, and
    stops where the clearance ``E - U`` falls to the margin.  Reaching the
    forbidden region truncates the record and sets the flag rather than
    raising.
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
    if step <= 0 or s1 < s0:
        raise ValueError("need step > 0 and s_span[1] >= s_span[0]")
    if s1 == s0:
        # an empty span: the initial sample twice, whichever the method
        return GeodesicRecord(np.array([s0, s0]), np.array([q0, q0]), np.array([u0, u0]),
                              np.zeros(2), jm.h)
    n = q0.size
    stage = _stage(jm.free_system)
    point, E, margin = jm.system.potential.point, jm.E, jm.margin

    if method == "rk45":
        def clearance(q):
            # E - U from the potential's point source where it has one
            return E - point(q, False)[0] if point is not None else jm.clearance(np.array(q))

        def rate(s, y):
            y = y.tolist()
            return np.array((*stage(s, *y[:2 * n]), 0.5 / clearance(y[:n])))

        def clear_event(s, y):
            return clearance(y[:n].tolist()) - margin

        sol = _rk45(rate, np.concatenate([q0, u0, [0.0]]), s0, s1, RK45_RTOL, RK45_ATOL,
                    clear_event)
        s_end = float(sol.t[-1])
        truncated = sol.status == 1
        n_samples = max(2, int(round((s_end - s0) / step)) + 1)
        s = np.linspace(s0, s_end, n_samples)
        ys = sol.sol(s).T
        return GeodesicRecord(s, ys[:, :n], ys[:, n:2 * n], ys[:, 2 * n], jm.h,
                              truncated=truncated, dense=sol)

    def check(y):
        # the batched check, which raises, only where the float test fails
        if point is None or not margin < E - point(y[:n], False)[0] < math.inf:
            jm.check_clear(y[:n])

    n_steps = max(1, int(round((s1 - s0) / step)))
    h = (s1 - s0) / n_steps
    ys = _rk4(stage, np.concatenate([q0, u0]), s0, n_steps, h, check=check)
    s = s0 + h * np.arange(len(ys))
    points = ys[:, :n]
    return GeodesicRecord(s, points, ys[:, n:], cumulative_simpson(
        1.0 / jm.factor_values(points), s), jm.h, truncated=len(ys) <= n_steps)


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
    curve = geo.curve
    w1 = cov_derivative_along(curve, dev)
    return cov_derivative_along(curve, w1) + _apply(curve.tidal, dev)


def _energy_constraint(traj: Trajectory, V, DV):
    """``<V, grad U>`` and the energy constraint ``<qdot, nabla_dot V> +
    <grad U, V>``, the first-order change of the energy along the family,
    at every sample of a field V with covariant derivative DV."""
    curve = traj.curve
    v_dot_gu = np.einsum('nij,ni,nj->n', curve.g, V, curve.grad_U)
    return v_dot_gu, np.einsum('nij,ni,nj->n', curve.g, traj.velocities, DV) + v_dot_gu


def _check_orthogonal(traj: Trajectory, V) -> None:
    """Raise unless the field V is g-orthogonal to the velocity at every
    sample, to ``1e-8 * max(1, max|V|)``."""
    orth = np.einsum('nij,ni,nj->n', traj.curve.g, traj.velocities, V)
    if np.max(np.abs(orth)) > 1e-8 * max(1.0, float(np.max(np.abs(V)))):
        raise ValueError("field is not orthogonal to the velocity")


def _g_side(traj: Trajectory, dev: DeviationField):
    """The g-side terms of the operator relation at every sample: ``op(V)``,
    the correction term ``-d/dt(<V, grad U>/(E-U)) qdot``, its time
    derivative taken by the trajectory's stencil, and the energy constraint
    of :func:`_energy_constraint`."""
    v_dot_gu, constraint = _energy_constraint(traj, dev.V, dev.DV)
    dscal = apply_stencil(traj.curve.stencil, v_dot_gu / traj.clearance)
    return hessian_operator(traj, dev), -dscal[:, None] * traj.velocities, constraint


def jacobi_operator_via_g(traj: Trajectory, dev: DeviationField) -> np.ndarray:
    """Geodesic-deviation operator of h expressed through g and t-quantities.

    Valid along solutions of the equations of motion, with h the Jacobi
    metric at the trajectory's energy.
    """
    w = traj.clearance
    delta_v, correction, constraint = _g_side(traj, dev)
    out = delta_v + correction + (constraint / w)[:, None] * traj.curve.grad_U
    return out / (2.0 * w[:, None]) ** 2


def _multiplier(traj: Trajectory, lam_rate) -> np.ndarray:
    """``lam`` with ``lam(t0) = 0`` and ``lam'`` the cubic Hermite through
    ``lam_rate`` with the slopes of the trajectory's stencil.  Simpson's
    rule is exact on each cubic, so step i adds
    ``h/2 (r_i + r_i+1) + h²/12 (d_i - d_i+1)``, with r the rate and d its
    slope, and the steps are summed in order."""
    h = traj.step
    d = apply_stencil(traj.curve.stencil, lam_rate)
    steps = h / 2 * (lam_rate[:-1] + lam_rate[1:]) + h * h / 12 * (d[:-1] - d[1:])
    return np.concatenate([[0.0], np.cumsum(steps)])


def equal_energy_projection(traj: Trajectory, vperp) -> DeviationField:
    """Complete an orthogonal field to an equal-energy variation.

    Solves for the tangential component ``V = Vperp + lam(t) qdot`` with
    ``lam(t0) = 0`` such that the perturbed family keeps its mechanical
    energy to first order, i.e. ``<qdot, nabla_dot V> + <grad U, V> = 0``
    pointwise.  Substituting the ansatz, the multiplier obeys the scalar
    linear equation

        lam' = -(<qdot, nabla_dot Vperp> + <grad U, Vperp>) / (2 (E - U)),

    integrated here on the trajectory grid (see :func:`_multiplier`).
    Vperp must pass :func:`_check_orthogonal`.
    """
    vperp = np.asarray(vperp, dtype=float)
    if vperp.shape != traj.points.shape:
        raise ValueError("grid mismatch: orthogonal field must match the trajectory grid")
    curve = traj.curve
    speed2 = np.einsum('nij,ni,nj->n', curve.g, traj.velocities, traj.velocities)
    if np.min(speed2) <= 1e-12:
        raise ForbiddenRegionError("turning point on interval: |qdot| vanishes")
    _check_orthogonal(traj, vperp)

    dvperp = cov_derivative_along(curve, vperp)
    lam_rate = -_energy_constraint(traj, vperp, dvperp)[1] / speed2
    lam = _multiplier(traj, lam_rate)

    v = vperp + lam[:, None] * traj.velocities
    dv = dvperp + lam_rate[:, None] * traj.velocities - lam[:, None] * curve.grad_U
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

    s(t) is the cubic Hermite through the recorded pairing with the slopes
    ``ds/dt = 2(E - U)``.  With dense output available, it is the first
    guess of vectorized Newton steps on the recorded t(s); otherwise the
    positions are the cubic Hermite through the points with the tangents
    as slopes.
    """
    times = np.asarray(times, dtype=float)
    s = hermite(geo.t_of_s, geo.s, 2.0 * jm.clearance(geo.points))(times)
    if geo.dense is None:
        return hermite(geo.s, geo.points, geo.tangents)(s)
    n, sol = geo.points.shape[1], geo.dense.sol
    s = np.clip(s, geo.s[0], geo.s[-1])
    for _ in range(6):
        ys = sol(s)
        t_err = ys[2 * n] - times
        w2 = 2.0 * jm.clearance(ys[:n].T)
        s = np.clip(s - t_err * w2, geo.s[0], geo.s[-1])
    return sol(s)[:n].T


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
