"""Newtonian dynamics on a chart and the linearized stability operator.

The trajectory stability operator acting on a field V along a solution is

    op(V) = nabla_dot nabla_dot V + K_dot(V) + nabla_V grad U

where ``K_dot(V) = R(qdot, V) qdot``.  Solutions of ``op(V) = 0`` describe
the first-order separation of neighbouring trajectories; an independent
brute-force oracle differentiates perturbed nonlinear runs instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import ChartDomainError, EnergyDriftError, GeometryError
from .geometry import (ChartMetric, SampledCurve, ScalarField, _christoffel, _mv, _quad,
                       christoffel, cov_derivative_along, hessian_form, point_kernel,
                       point_metric, riemann)

@dataclass(frozen=True)
class MechanicalSystem:
    """Metric plus potential U, a :class:`~jacobistab.geometry.ScalarField`
    whose partials and point evaluator are optional.  Every method below
    takes a single point or a batch.
    """

    metric: ChartMetric
    potential: ScalarField
    name: str = ""

    def energy(self, q, v):
        q = np.asarray(q, dtype=float)
        v = np.asarray(v, dtype=float)
        return (0.5 * _quad(self.metric.g(q), v, v) + self.potential(q))[()]

    def grad_potential(self, q, ginv=None) -> np.ndarray:
        """Raised gradient components ``g^{ij} d_j U``; ``ginv`` reuses an
        inverse metric already evaluated at ``q``."""
        q = np.asarray(q, dtype=float)
        if ginv is None:
            ginv = self.metric.g_inv(q)
        return _mv(ginv, self.potential.grad_components(q))

    def hess_potential_raised(self, q, ginv=None, gamma=None) -> np.ndarray:
        """Matrix ``A^i_l`` with ``(nabla_V grad U)^i = A^i_l V^l``; ``ginv``
        and ``gamma`` reuse data already evaluated at ``q``."""
        q = np.asarray(q, dtype=float)
        if ginv is None:
            ginv = self.metric.g_inv(q)
        return ginv @ hessian_form(self.metric, self.potential, q, gamma=gamma)

    def acceleration(self, q, v) -> np.ndarray:
        q = self.metric.check_point(q)
        ginv = self.metric.g_inv(q)
        gam = _christoffel(self.metric, q, ginv)
        return (-np.einsum('...ijk,...j,...k->...i', gam, v, v)
                - self.grad_potential(q, ginv))


@dataclass(frozen=True)
class Trajectory:
    """Time-sampled solution of the equations of motion of ``system``.

    The trajectory is the context of every identity along it: it builds on
    first use, and keeps, its g-cache ``cache``, its covariant acceleration
    ``cov_acceleration``, its Jacobi metric ``jm`` at its own energy, its
    ``clearance`` E - U and its view ``geo`` as an h-geodesic record, whose
    own ``cache`` is the h-cache.  ``energy_drift`` is the largest relative
    energy drift over all samples, taken by the integrator's energy check.
    """

    times: np.ndarray
    points: np.ndarray
    velocities: np.ndarray
    energy: float
    step: float
    energy_drift: float
    system: MechanicalSystem = field(repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        object.__setattr__(self, "points", np.asarray(self.points, dtype=float))
        object.__setattr__(self, "velocities", np.asarray(self.velocities, dtype=float))

    def __len__(self):
        return len(self.times)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @cached_property
    def cache(self) -> CurveGeometry:
        return CurveGeometry(self.system.metric, self.points, self.system)

    @cached_property
    def clearance(self) -> np.ndarray:
        """``E - U`` at every sample, with the Jacobi metric's margin enforced."""
        return 0.5 * self.jm.factor_values(self.points)

    @cached_property
    def cov_acceleration(self) -> np.ndarray:
        """``nabla_qdot qdot`` at every sample, from 7-point stencils."""
        return cov_derivative_along(self.system.metric, self.as_curve(), self.velocities,
                                    gammas=self.cache.gamma)

    @cached_property
    def jm(self):
        from . import jacobi
        return jacobi.jacobi_metric(self.system, self.energy)

    @cached_property
    def geo(self):
        from . import jacobi
        return jacobi.geodesic_from_trajectory(self)

    def as_curve(self) -> SampledCurve:
        """The samples as one curve in t, kept with its stencil weights."""
        return self._curve

    @cached_property
    def _curve(self) -> SampledCurve:
        return SampledCurve(self.times, self.points, self.velocities)


@dataclass(frozen=True)
class DeviationField:
    """Vector field V along a trajectory with its covariant derivative samples."""

    trajectory: Trajectory
    V: np.ndarray
    DV: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "V", np.asarray(self.V, dtype=float))
        object.__setattr__(self, "DV", np.asarray(self.DV, dtype=float))
        if self.V.shape != self.trajectory.points.shape or self.DV.shape != self.V.shape:
            raise ValueError("deviation samples must match the trajectory grid")


def _rk4(rhs, y0, t0, n_steps, h, check=None):
    """Classical fixed-step RK4 on a state of Python floats; returns the
    samples, y0 included, as one float64 array.

    ``rhs(t, y)`` takes and returns lists of floats.  Each update is formed
    in floats in the order ``y + (0.5*h)*k`` and ``y + (h/6)*(((k1 + 2k2) +
    2k3) + k4)``.  With ``check``, every new state is passed to it, and a
    chart-domain error raised by a stage or by ``check`` ends the run early:
    the samples up to the last accepted state are returned.
    """
    out = np.empty((n_steps + 1, len(y0)))
    out[0] = y0
    y = out[0].tolist()
    half, sixth = 0.5 * h, h / 6.0
    t = t0
    for k in range(n_steps):
        try:
            k1 = rhs(t, y)
            k2 = rhs(t + half, [a + half * b for a, b in zip(y, k1)])
            k3 = rhs(t + half, [a + half * b for a, b in zip(y, k2)])
            k4 = rhs(t + h, [a + h * b for a, b in zip(y, k3)])
            y = [a + sixth * (((b + 2.0 * c) + 2.0 * d) + e)
                 for a, b, c, d, e in zip(y, k1, k2, k3, k4)]
            if check is not None:
                check(y)
        except ChartDomainError:
            if check is None:
                raise
            return out[:k + 1]
        t = t0 + (k + 1) * h
        out[k + 1] = y
    return out


def _stage(sys: MechanicalSystem):
    """The right-hand side ``y -> (v, acceleration)`` of the equations of
    motion for a state ``y``, a list of 2n floats; it returns a list.

    A system with point evaluators runs the point kernel of its dimension on
    the tensors of its point evaluators; any other system runs
    :meth:`MechanicalSystem.acceleration`.
    """
    metric, potential = sys.metric, sys.potential
    n = metric.dim
    if metric.point is None or potential.point is None:
        def stage(y):
            q, v = y[:n], y[n:]
            return v + sys.acceleration(q, v).tolist()
        return stage

    kernel = point_kernel(n)

    def stage(y):
        q, v = y[:n], y[n:]
        g, dg = point_metric(metric, q)
        return v + kernel(q, g, dg, potential.point(q)[1], v)
    return stage


def _check_flow(sys: MechanicalSystem, times, points, velocities, e0, drift_bound) -> float:
    """Domain and energy checks over all samples in one batched pass; returns
    the largest relative energy drift.

    Errors are reported at the earliest sample: a domain exit there, or an
    energy drift above ``drift_bound`` (relative) or not finite before it.
    """
    inside = sys.metric.contains(points)
    n_in = int(np.argmin(inside)) if not inside.all() else len(times)
    energy = sys.energy(points[:n_in], velocities[:n_in])
    drift = np.abs(energy - e0) / np.maximum(1.0, np.abs(e0))
    over = ~(drift <= drift_bound)
    if np.any(over):
        k = int(np.argmax(over))
        raise EnergyDriftError(
            f"energy drift {drift[k]:.3e} exceeded bound {drift_bound:.3e} "
            f"at t={times[k]:.6g}")
    if n_in < len(times):
        raise ChartDomainError(f"left chart domain at t={times[n_in]:.6g}")
    return float(np.max(drift))


def integrate_newton(sys: MechanicalSystem, q0, v0, t_span, step,
                     drift_bound: float = 1e-6) -> Trajectory:
    """Fixed-step RK4 solution of the equations of motion.

    Halts with a chart-domain error if the solution leaves the chart and
    with an energy-drift error if the conserved energy moves by more than
    ``drift_bound`` (relative) or stops being finite, each reported at the
    earliest sample where it happens.
    """
    q0 = sys.metric.check_point(q0)
    v0 = np.asarray(v0, dtype=float)
    t0, t1 = float(t_span[0]), float(t_span[1])
    if step <= 0 or t1 <= t0:
        raise ValueError("need step > 0 and t_span[1] > t_span[0]")
    n_steps = max(1, int(round((t1 - t0) / step)))
    h = (t1 - t0) / n_steps
    e0 = sys.energy(q0, v0)
    stage = _stage(sys)

    def rhs(t, y):
        try:
            return stage(y)
        except ChartDomainError as exc:
            raise ChartDomainError(f"left chart domain at t={t:.6g}: {exc}") from exc

    ys = _rk4(rhs, np.concatenate([q0, v0]), t0, n_steps, h)
    n = q0.size
    times, points, velocities = t0 + h * np.arange(n_steps + 1), ys[:, :n], ys[:, n:]
    drift = _check_flow(sys, times, points, velocities, e0, drift_bound)
    return Trajectory(times, points, velocities, energy=float(e0), step=h,
                      energy_drift=drift, system=sys)


class CurveGeometry:
    """Metric and potential data cached along a batch of points.

    Each field is evaluated once per trajectory in one vectorized pass over
    all points, and the Christoffel symbols, curvature and potential terms
    share one inverse metric, which keeps repeated operator evaluations
    cheap.
    """

    def __init__(self, metric: ChartMetric, points, sys: Optional[MechanicalSystem] = None):
        self.metric = metric
        self.points = np.asarray(points, dtype=float)
        self.sys = sys

    @cached_property
    def g(self):
        return self.metric.g(self.points)

    @cached_property
    def g_inv(self):
        return self.metric.g_inv(self.points)

    @cached_property
    def gamma(self):
        return christoffel(self.metric, self.points, self.g_inv)

    @cached_property
    def riem(self):
        return riemann(self.metric, self.points, gamma=self.gamma, ginv=self.g_inv)

    @cached_property
    def grad_U(self):
        return self.sys.grad_potential(self.points, ginv=self.g_inv)

    @cached_property
    def hess_U_raised(self):
        return self.sys.hess_potential_raised(self.points, ginv=self.g_inv,
                                              gamma=self.gamma)

    @cached_property
    def U(self):
        return self.sys.potential(self.points)


def _check_attached(traj: Trajectory, dev: DeviationField):
    if dev.trajectory is not traj:
        if (len(dev.trajectory) != len(traj)
                or not np.allclose(dev.trajectory.times, traj.times)):
            raise ValueError("mismatched sampling grids between trajectory and deviation field")


def hessian_operator(traj: Trajectory, dev: DeviationField) -> np.ndarray:
    """Evaluate the stability operator on a sampled deviation field.

    Returns ``nabla_dot DV + K_dot(V) + nabla_V grad U`` at every sample,
    using the stored ``DV`` (so only one layer of sampled differentiation
    happens here).
    """
    _check_attached(traj, dev)
    cache = traj.cache
    term1 = cov_derivative_along(traj.system.metric, traj.as_curve(), dev.DV,
                                 gammas=cache.gamma)
    term2 = np.einsum('nlabc,na,nb,nc->nl', cache.riem, traj.velocities, dev.V, traj.velocities)
    term3 = np.einsum('nij,nj->ni', cache.hess_U_raised, dev.V)
    return term1 + term2 + term3


def _deviation_stage(traj: Trajectory):
    """The right-hand side ``(t, y) -> (dV, dW)`` of the linearized flow for
    states ``y = (V, W)``, at the stage times of :func:`_rk4` stepping along
    ``traj.times`` by ``traj.step``.

    Christoffel symbols, curvature, the raised potential Hessian and the
    velocity are interpolated by one cubic spline through their samples,
    evaluated once at every stage time into a float64 table with one row
    per time.  A stage reads its row and its state as floats, returns a
    list, and forms each term of the einsums of the batched form,
    ``Γ(qdot, V)`` and ``R(qdot, V)qdot``, left to right and added from 0.0
    in einsum's order, which gives its bits.
    ``A V`` is summed the same way, which differs from BLAS's ``matmul``
    in the last bit where a row of ``A`` has more than one nonzero entry.
    """
    cache, times, h, n = traj.cache, traj.times, traj.step, traj.dim
    parts = (cache.gamma, cache.riem, cache.hess_U_raised, traj.velocities)
    spline = CubicSpline(times, np.concatenate(
        [a.reshape(len(times), -1) for a in parts], axis=1), axis=0)
    t = times[0] + h * np.arange(len(times) - 1)
    stage_times = np.unique(np.concatenate([t, t + 0.5 * h, t + h]))
    table = spline(stage_times)
    row = {s: k for k, s in enumerate(stage_times.tolist())}
    r = range(n)
    o_riem, o_hess, o_vel = n**3, n**3 + n**4, n**3 + n**4 + n * n

    def rhs(t, y):
        c = table[row[t]].tolist()
        V, W = y[:n], y[n:]
        vel = c[o_vel:]
        dV, dW = [], []
        for i in r:
            gv = gw = curv = force = 0.0
            for j in r:
                for k in r:
                    gam = c[(i * n + j) * n + k] * vel[j]
                    gv += gam * V[k]
                    gw += gam * W[k]
            for a in r:
                for b in r:
                    for e in r:
                        curv += c[o_riem + ((i * n + a) * n + b) * n + e] * vel[a] * V[b] * vel[e]
            for j in r:
                force += c[o_hess + i * n + j] * V[j]
            dV.append(W[i] - gv)
            dW.append(-curv - force - gw)
        return dV + dW

    return rhs


def integrate_deviation(traj: Trajectory, V0, DV0) -> DeviationField:
    """Integrate the linearized flow ``op(V) = 0`` along a stored trajectory.

    The first-order system in ``(V, W = nabla_dot V)`` is advanced by RK4
    with the trajectory's own step; Christoffel, curvature and potential
    coefficients are cubic-interpolated between the stored samples, once
    for every stage time, and each stage reads its row of that table
    (see :func:`_deviation_stage`).  Raises :class:`GeometryError` at the
    first sample whose state is not finite.
    """
    times = traj.times
    n = traj.dim
    y0 = np.concatenate([np.asarray(V0, dtype=float), np.asarray(DV0, dtype=float)])
    ys = _rk4(_deviation_stage(traj), y0, times[0], len(times) - 1, traj.step)
    bad = ~np.isfinite(ys).all(axis=1)
    if bad.any():
        k = int(np.argmax(bad))
        raise GeometryError(f"linearized flow not finite at sample {k} (t={times[k]:.6g})")
    return DeviationField(traj, ys[:, :n], ys[:, n:])


def brute_force_deviation(sys: MechanicalSystem, q0, v0, dq, dv, alpha,
                          t_span, step, drift_bound: float = 1e-6):
    """Deviation field by central differencing of perturbed nonlinear runs.

    Integrates the full equations from ``(q0, v0)`` and from
    ``(q0 ± alpha*dq, v0 ± alpha*dv)``, in that order, and returns the base
    trajectory and ``V = (γ_+ - γ_-) / (2 alpha)`` sampled on its grid.
    Each run is held to ``drift_bound``.  This is the independent oracle
    for :func:`integrate_deviation`; the matching initial data there are
    ``V0 = dq`` and ``DV0 = dv + Γ(q0)(v0, dq)``.
    """
    if not alpha > 0:
        raise ValueError("need alpha > 0")
    q0, v0, dq, dv = (np.asarray(a, dtype=float) for a in (q0, v0, dq, dv))
    base, plus, minus = (integrate_newton(sys, q, v, t_span, step, drift_bound) for q, v in
                         ((q0, v0), (q0 + alpha * dq, v0 + alpha * dv),
                          (q0 - alpha * dq, v0 - alpha * dv)))
    return base, (plus.points - minus.points) / (2.0 * alpha)


def linearization_initial_data(sys: MechanicalSystem, q0, v0, dq, dv):
    """Initial ``(V0, DV0)`` of the linearized flow matching a perturbation of
    initial conditions by ``(dq, dv)``."""
    gam = christoffel(sys.metric, q0)
    dq = np.asarray(dq, dtype=float)
    dv = np.asarray(dv, dtype=float)
    return dq, dv + np.einsum('ijk,j,k->i', gam, np.asarray(v0, dtype=float), dq)


def linearization_against_oracle(sys: MechanicalSystem, q0, v0, dq, dv, alpha,
                                 t_span, step, drift_bound: float = 1e-6):
    """The linearized flow for the perturbation ``(dq, dv)`` of ``(q0, v0)``,
    integrated along the base run of :func:`brute_force_deviation`, and the
    sup over all samples of its difference from that oracle."""
    base, V = brute_force_deviation(sys, q0, v0, dq, dv, alpha, t_span, step, drift_bound)
    lin = integrate_deviation(base, *linearization_initial_data(sys, q0, v0, dq, dv))
    return lin, float(np.max(np.abs(V - lin.V)))
