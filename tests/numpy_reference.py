"""References for the RK4 flows.

Numpy: the classical RK4 loop on float64 arrays, and the right-hand sides
of the Newton and h-geodesic flows as numpy arithmetic on the batched
evaluators.  Lists: the RK4 loop on a list of Python floats with its
Newton, linearized-flow and h-geodesic stages on point evaluators, each
looping over the state and the indices at run time.  Both h-geodesic
references carry the dynamical time t as a last state, with rate
``1 / (2(E - U))``; the list one builds h by the product rule from g and U
itself.  The generated loops and stages of :mod:`jacobistab.dynamics` and
the point evaluator of h are pinned against both."""

import math

import numpy as np
from scipy.interpolate import CubicSpline

from jacobistab.errors import ChartDomainError
from jacobistab.geometry import (_HUGE, _NORMAL, _kernel_source, _lapack_inverse, _names,
                                 christoffel)
from jacobistab.numdiff import cumulative_simpson


def numpy_rk4(rhs, y0, t0, n_steps, h, check=None):
    """Classical fixed-step RK4 on arrays; returns samples including y0.

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


def newton_rhs(sys):
    """``(t, y) -> (v, acceleration)`` on arrays, by the batched acceleration."""
    n = sys.metric.dim

    def rhs(t, y):
        q, v = y[:n], y[n:]
        return np.concatenate([v, sys.acceleration(q, v)])
    return rhs


def geodesic_rhs(jm):
    """``(s, y) -> (u, acceleration, dt/ds)`` of the h-geodesic on arrays, by
    the batched Christoffel symbols of ``jm.h``."""
    n = jm.h.dim

    def rhs(s, y):
        q, u = y[:n], y[n:2 * n]
        acc = -np.einsum('ijk,j,k->i', christoffel(jm.h, q), u, u)
        return np.concatenate([u, acc, [0.5 / jm.clearance(q)]])
    return rhs


def simpson_time(jm, points, s):
    """The dynamical time along h-geodesic samples: Simpson's rule on
    ``dt/ds = 1 / (2(E - U))`` over the s-grid."""
    return cumulative_simpson(1.0 / jm.factor_values(points), s)


def list_rk4(rhs, y0, t0, n_steps, h, check=None):
    """Classical fixed-step RK4 on a list of Python floats; ``rhs(t, y)``
    takes and returns lists.  Each update is formed in floats in the order
    ``y + (0.5*h)*k`` and ``y + (h/6)*(((k1 + 2k2) + 2k3) + k4)``; ``check``
    acts as in :func:`numpy_rk4`."""
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


def point_kernel(n):
    """``kernel(q, g, dg, dU, v)``: ``-Γ(v, v) - g^-1 dU`` at one point as a
    list, from flat row-major sequences of floats, by the kernel source the
    generated stages inline."""
    body, accel = _kernel_source(n)
    source = "\n".join([
        "def kernel(q, g, dg, dU, v):",
        f"    ({', '.join(_names('g', n, 2))},) = g",
        f"    ({', '.join(_names('d', n, 3))},) = dg",
        f"    ({', '.join(_names('u', n, 1))},) = dU",
        f"    ({', '.join(_names('v', n, 1))},) = v",
        *(f"    {line}" for line in body),
        f"    return [{', '.join(accel)}]"]) + "\n"
    scope = {"isfinite": math.isfinite, "_lapack_inverse": _lapack_inverse,
             "_NORMAL": _NORMAL, "_HUGE": _HUGE}
    exec(compile(source, f"<reference kernel n={n}>", "exec"), scope)
    return scope["kernel"]


def point_metric(metric, q):
    """``metric.point(q)``, raising ``ChartDomainError`` where
    ``metric.check_point`` would."""
    gd = metric.point(q) if all(map(math.isfinite, q)) else None
    if gd is None:
        raise ChartDomainError(f"chart domain: point {list(q)} outside valid region")
    return gd


def list_newton_rhs(sys):
    """``(t, y) -> (v, acceleration)`` on lists, by the point kernel on the
    point evaluators; a chart-domain error names the stage time."""
    metric, potential = sys.metric, sys.potential
    n = metric.dim
    kernel = point_kernel(n)

    def stage(y):
        q, v = y[:n], y[n:]
        g, dg = point_metric(metric, q)
        return v + kernel(q, g, dg, potential.point(q)[1], v)

    def rhs(t, y):
        try:
            return stage(y)
        except ChartDomainError as exc:
            raise ChartDomainError(f"left chart domain at t={t:.6g}: {exc}") from exc
    return rhs


def list_deviation_rhs(traj):
    """``(t, y) -> (dV, dW)`` of the linearized flow on lists: one row of
    the spline table of the coefficients per stage time, and the terms of
    ``Γ(qdot, V)``, ``Γ(qdot, W)``, ``R(qdot, V)qdot`` and ``A V`` added
    from 0.0 in loops over the indices."""
    cache, times, h, n = traj.curve, traj.times, traj.step, traj.dim
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


def list_geodesic_rhs(jm):
    """``(s, y) -> (u, acceleration, dt/ds)`` of the h-geodesic on lists: the
    point kernel on ``h = f g`` and ``d_k h_ij = d_k f g_ij + f d_k g_ij``,
    with ``f = 2(E - U)``, from one evaluation of g and of U."""
    metric, potential = jm.system.metric, jm.system.potential
    n = metric.dim
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
