"""Newtonian dynamics on a chart and the linearized stability operator.

The trajectory stability operator acting on a field V along a solution is

    op(V) = nabla_dot nabla_dot V + K_dot(V) + nabla_V grad U

where ``K_dot(V) = R(qdot, V) qdot``.  Solutions of ``op(V) = 0`` describe
the first-order separation of neighbouring trajectories; an independent
brute-force oracle differentiates perturbed nonlinear runs instead.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import ChartDomainError, EnergyDriftError
from .geometry import (ChartMetric, SampledCurve, ScalarField, _christoffel, _mv, _quad,
                       christoffel, cov_derivative_along, hessian_form, riemann)

@dataclass(frozen=True)
class MechanicalSystem:
    """Metric plus potential; derivative evaluators of U are optional.

    ``U``, ``dU`` and ``d2U`` follow the evaluator contract of
    :class:`~jacobistab.geometry.ScalarField`: points ``(..., n)`` to
    ``(...)``, ``(..., n)`` and ``(..., n, n)``.  Every method below takes
    a single point or a batch.
    """

    metric: ChartMetric
    U: Callable[[np.ndarray], float]
    dU: Optional[Callable[[np.ndarray], np.ndarray]] = None
    d2U: Optional[Callable[[np.ndarray], np.ndarray]] = None
    name: str = ""

    @cached_property
    def potential(self) -> ScalarField:
        return ScalarField(value=self.U, partials=self.dU, second_partials=self.d2U)

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
    ``cov_acceleration``, its Jacobi metric ``jm`` at its own energy and its
    view ``geo`` as an h-geodesic record, whose own ``cache`` is the h-cache.
    """

    times: np.ndarray
    points: np.ndarray
    velocities: np.ndarray
    energy: float
    step: float
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
    def cov_acceleration(self) -> np.ndarray:
        """``nabla_qdot qdot`` at every sample, from 7-point stencils."""
        return cov_derivative_along(self.system.metric, self.as_curve(), self.velocities,
                                    order=4, gammas=self.cache.gamma)

    @cached_property
    def jm(self):
        from . import jacobi
        return jacobi.jacobi_metric(self.system, self.energy)

    @cached_property
    def geo(self):
        from . import jacobi
        return jacobi.geodesic_from_trajectory(self)

    def as_curve(self) -> SampledCurve:
        return SampledCurve(self.times, self.points, self.velocities)

    def to_dict(self) -> dict:
        return {"energy": self.energy, "step": self.step,
                "t_span": [float(self.times[0]), float(self.times[-1])],
                "samples": len(self.times), "dim": self.dim}

    def write_csv(self, path) -> None:
        n = self.dim
        header = (["t"] + [f"q{i+1}" for i in range(n)] + [f"v{i+1}" for i in range(n)])
        rows = np.hstack([self.times[:, None], self.points, self.velocities])
        _write_csv_atomic(path, header, rows)


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

    def write_csv(self, path) -> None:
        traj = self.trajectory
        n = traj.dim
        header = (["t"] + [f"q{i+1}" for i in range(n)] + [f"v{i+1}" for i in range(n)]
                  + [f"V{i+1}" for i in range(n)] + [f"DV{i+1}" for i in range(n)])
        rows = np.hstack([traj.times[:, None], traj.points, traj.velocities, self.V, self.DV])
        _write_csv_atomic(path, header, rows)


def _write_text_atomic(path, text: str) -> None:
    path = os.fspath(path)
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv_atomic(path, header, rows) -> None:
    lines = [",".join(header)]
    for row in np.asarray(rows, dtype=float):
        lines.append(",".join(format(x, ".17g") for x in row))
    _write_text_atomic(path, "\n".join(lines) + "\n")


def _rk4(rhs, y0, t0, n_steps, h, check=None):
    """Classical fixed-step RK4; returns samples including y0.

    With ``check``, every new state is passed to it, and a chart-domain
    error raised by a stage or by ``check`` ends the run early: the samples
    up to the last accepted state are returned.
    """
    out = np.empty((n_steps + 1,) + np.shape(y0))
    out[0] = y0
    y = np.asarray(y0, dtype=float)
    t = t0
    for k in range(n_steps):
        try:
            k1 = rhs(t, y)
            k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
            k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
            k4 = rhs(t + h, y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if check is not None:
                check(y)
        except ChartDomainError:
            if check is None:
                raise
            return out[:k + 1]
        t = t0 + (k + 1) * h
        out[k + 1] = y
    return out


def _newton_flow(sys: MechanicalSystem, q0, v0, t_span, step, drift_bound):
    """Fixed-step RK4 solutions of the equations of motion for a batch of
    initial data ``(..., n)``, advanced together.

    Returns ``(times, h, e0, ys)``: the sample times, the step used, the
    initial energies ``(...)`` and the states ``(N + 1, ..., 2n)``.  Raises
    at the first sample where any run leaves the chart or drifts in energy.
    """
    q0 = sys.metric.check_point(q0)
    v0 = np.asarray(v0, dtype=float)
    t0, t1 = float(t_span[0]), float(t_span[1])
    if step <= 0 or t1 <= t0:
        raise ValueError("need step > 0 and t_span[1] > t_span[0]")
    n_steps = max(1, int(round((t1 - t0) / step)))
    h = (t1 - t0) / n_steps
    e0 = sys.energy(q0, v0)
    n = q0.shape[-1]

    def rhs(t, y):
        q, v = y[..., :n], y[..., n:]
        try:
            acc = sys.acceleration(q, v)
        except ChartDomainError as exc:
            raise ChartDomainError(f"left chart domain at t={t:.6g}: {exc}") from exc
        return np.concatenate([v, acc], axis=-1)

    ys = _rk4(rhs, np.concatenate([q0, v0], axis=-1), t0, n_steps, h)
    times = t0 + h * np.arange(n_steps + 1)
    _check_flow(sys, times, ys[..., :n], ys[..., n:], e0, drift_bound)
    return times, h, e0, ys


def _check_flow(sys, times, points, velocities, e0, drift_bound):
    """Domain and energy checks over all samples in one batched pass.

    Errors are reported at the earliest sample: a domain exit there, or an
    energy drift above ``drift_bound`` (relative) or not finite before it.
    """
    inside = sys.metric.contains(points).reshape(len(times), -1).all(axis=1)
    n_in = int(np.argmin(inside)) if not inside.all() else len(times)
    energy = sys.energy(points[:n_in], velocities[:n_in])
    drift = np.abs(energy - e0) / np.maximum(1.0, np.abs(e0))
    over = ~(drift <= drift_bound)
    if np.any(over):
        k = int(np.argmax(over.reshape(n_in, -1).any(axis=1)))
        raise EnergyDriftError(
            f"energy drift {np.max(drift[k]):.3e} exceeded bound {drift_bound:.3e} "
            f"at t={times[k]:.6g}")
    if n_in < len(times):
        raise ChartDomainError(f"left chart domain at t={times[n_in]:.6g}")


def integrate_newton(sys: MechanicalSystem, q0, v0, t_span, step,
                     drift_bound: float = 1e-6) -> Trajectory:
    """Fixed-step RK4 solution of the equations of motion.

    Halts with a chart-domain error if the solution leaves the chart and
    with an energy-drift error if the conserved energy moves by more than
    ``drift_bound`` (relative) or stops being finite.
    """
    times, h, e0, ys = _newton_flow(sys, q0, v0, t_span, step, drift_bound)
    n = ys.shape[-1] // 2
    return Trajectory(times, ys[:, :n], ys[:, n:], energy=float(e0), step=h, system=sys)


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
    term1 = cov_derivative_along(traj.system.metric, traj.as_curve(), dev.DV, order=4,
                                 gammas=cache.gamma)
    term2 = np.einsum('nlabc,na,nb,nc->nl', cache.riem, traj.velocities, dev.V, traj.velocities)
    term3 = np.einsum('nij,nj->ni', cache.hess_U_raised, dev.V)
    return term1 + term2 + term3


def _joint_spline(times, arrays):
    """One cubic spline through several sampled tensors along a trajectory;
    the returned callable gives every tensor at a time from one evaluation."""
    spline = CubicSpline(times, np.concatenate(
        [a.reshape(len(times), -1) for a in arrays], axis=1), axis=0)
    shapes = [a.shape[1:] for a in arrays]
    cuts = np.cumsum([int(np.prod(s)) for s in shapes])[:-1]

    def at(t):
        return [part.reshape(s) for part, s in zip(np.split(spline(t), cuts), shapes)]

    return at


def integrate_deviation(traj: Trajectory, V0, DV0) -> DeviationField:
    """Integrate the linearized flow ``op(V) = 0`` along a stored trajectory.

    The first-order system in ``(V, W = nabla_dot V)`` is advanced by RK4
    with the trajectory's own step; Christoffel, curvature and potential
    coefficients are cubic-interpolated between the stored samples.
    """
    cache = traj.cache
    times = traj.times
    n = traj.dim
    coeffs_at = _joint_spline(times, (cache.gamma, cache.riem, cache.hess_U_raised,
                                      traj.velocities))

    def rhs(t, y):
        V, W = y[:n], y[n:]
        gam, riem, hess, vel = coeffs_at(t)
        dV = W - np.einsum('ijk,j,k->i', gam, vel, V)
        curv = np.einsum('labc,a,b,c->l', riem, vel, V, vel)
        force = hess @ V
        dW = -curv - force - np.einsum('ijk,j,k->i', gam, vel, W)
        return np.concatenate([dV, dW])

    y0 = np.concatenate([np.asarray(V0, dtype=float), np.asarray(DV0, dtype=float)])
    ys = _rk4(rhs, y0, times[0], len(times) - 1, traj.step)
    return DeviationField(traj, ys[:, :n], ys[:, n:])


def brute_force_deviation(sys: MechanicalSystem, q0, v0, dq, dv, alpha,
                          t_span, step) -> DeviationField:
    """Deviation field by central differencing of perturbed nonlinear runs.

    Integrates the full equations from ``(q0 ± alpha*dq, v0 ± alpha*dv)``
    and returns ``(γ_+ - γ_-) / (2 alpha)`` sampled on the base grid.  This
    is the independent oracle for :func:`integrate_deviation`; the matching
    initial data there are ``V0 = dq`` and
    ``DV0 = dv + Γ(q0)(v0, dq)``.  The three runs advance together as one
    ``(3, 2n)`` ensemble.
    """
    if not alpha > 0:
        raise ValueError("need alpha > 0")
    q0 = np.asarray(q0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    dq = np.asarray(dq, dtype=float)
    dv = np.asarray(dv, dtype=float)
    qs = np.stack([q0, q0 + alpha * dq, q0 - alpha * dq])
    vs = np.stack([v0, v0 + alpha * dv, v0 - alpha * dv])
    times, h, e0, ys = _newton_flow(sys, qs, vs, t_span, step, drift_bound=1e-6)
    n = q0.size
    base = Trajectory(times, ys[:, 0, :n], ys[:, 0, n:], energy=float(e0[0]), step=h,
                      system=sys)
    V = (ys[:, 1, :n] - ys[:, 2, :n]) / (2.0 * alpha)
    DV = cov_derivative_along(sys.metric, base.as_curve(), V, order=2)
    return DeviationField(base, V, DV)


def linearization_initial_data(sys: MechanicalSystem, q0, v0, dq, dv):
    """Initial ``(V0, DV0)`` of the linearized flow matching a perturbation of
    initial conditions by ``(dq, dv)``."""
    gam = christoffel(sys.metric, q0)
    dq = np.asarray(dq, dtype=float)
    dv = np.asarray(dv, dtype=float)
    return dq, dv + np.einsum('ijk,j,k->i', gam, np.asarray(v0, dtype=float), dq)
