"""References for the RK4 flows.

Numpy: the classical RK4 loop on float64 arrays, and the right-hand sides
of the Newton flow, of the Newton flow with its linearization and of the
h-geodesic flow as numpy arithmetic on the batched evaluators.  Lists: the
RK4 loop on a list of Python floats with its Newton, linearized-flow and
h-geodesic stages on point evaluators, each looping over the state and the
indices at run time.  Both h-geodesic
references carry the dynamical time t as a last state, with rate
``1 / (2(E - U))``; the list one builds h by the product rule from g and U
itself.  The generated loops and stages of :mod:`jacobistab.dynamics` and
the point evaluator of h are pinned against both."""

import math

import numpy as np

from jacobistab.errors import ChartDomainError
from jacobistab.geometry import (_HUGE, _NORMAL, _kernel_source, _lapack_inverse, _lit, _names,
                                 christoffel, riemann)
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


def deviation_rhs(sys):
    """``(t, y) -> (v, acceleration, dV, dW)`` on arrays: the Newton flow
    and its linearization in ``(V, W = nabla_qdot V)``, with Γ, R and the
    raised potential Hessian of the batched evaluators at the state, the
    operator's terms as einsums and a ``matmul``."""
    n = sys.metric.dim

    def rhs(t, y):
        q, v, V, W = y[:n], y[n:2 * n], y[2 * n:3 * n], y[3 * n:]
        gam = christoffel(sys.metric, q)
        riem = riemann(sys.metric, q, gamma=gam)
        hess = sys.hess_potential_raised(q, gamma=gam)
        dV = W - np.einsum('ijk,j,k->i', gam, v, V)
        curv = np.einsum('labc,a,b,c->l', riem, v, V, v)
        dW = -curv - hess @ V - np.einsum('ijk,j,k->i', gam, v, W)
        return np.concatenate([v, sys.acceleration(q, v), dV, dW])
    return rhs


def reference_deviation(traj, V0, DV0, n_steps=None):
    """The linearized flow along ``traj`` by :func:`numpy_rk4` on
    :func:`deviation_rhs`, from its first sample with its step, over
    ``n_steps`` steps (all by default): the orbit samples and V and DV."""
    n = traj.dim
    n_steps = len(traj) - 1 if n_steps is None else n_steps
    y0 = np.concatenate([traj.points[0], traj.velocities[0], V0, DV0])
    ys = numpy_rk4(deviation_rhs(traj.system), y0, traj.times[0], n_steps, traj.step)
    return ys[:, :2 * n], ys[:, 2 * n:3 * n], ys[:, 3 * n:]


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
    list, and the inverse metric and Γ as flat row-major lists, from flat
    row-major sequences of floats, by the kernel source the generated
    stages inline."""
    body, accel, inverse, gamma = _kernel_source(n)
    source = "\n".join([
        "def kernel(q, g, dg, dU, v):",
        f"    ({', '.join(_names('g', n, 2))},) = g",
        f"    ({', '.join(_names('d', n, 3))},) = dg",
        f"    ({', '.join(_names('u', n, 1))},) = dU",
        f"    ({', '.join(_names('v', n, 1))},) = v",
        *(f"    {line}" for line in body),
        f"    return [{', '.join(accel)}], "
        f"[{', '.join(_lit(x) for row in inverse for x in row)}], "
        f"[{', '.join(_lit(gamma[key]) for key in np.ndindex(n, n, n))}]"]) + "\n"
    scope = {"isfinite": math.isfinite, "_lapack_inverse": _lapack_inverse,
             "_NORMAL": _NORMAL, "_HUGE": _HUGE}
    exec(compile(source, f"<reference kernel n={n}>", "exec"), scope)
    return scope["kernel"]


def point_metric(metric, q, second=True):
    """``metric.point(q, second)``, raising ``ChartDomainError`` where
    ``metric.check_point`` would."""
    gd = metric.point(q, second) if all(map(math.isfinite, q)) else None
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
        g, dg = point_metric(metric, q, second=False)
        return v + kernel(q, g, dg, potential.point(q, False)[1], v)[0]

    def rhs(t, y):
        try:
            return stage(y)
        except ChartDomainError as exc:
            raise ChartDomainError(f"left chart domain at t={t:.6g}: {exc}") from exc
    return rhs


def _total(terms):
    """The terms added from 0.0, left to right."""
    out = 0.0
    for term in terms:
        out += term
    return out


def list_deviation_rhs(sys):
    """``(t, y) -> (v, acceleration, dV, dW)`` of the Newton flow and its
    linearization on lists: the point kernel on the point evaluators, then
    the partials of g^-1 and of Γ, the curvature ``R^l_abc`` and the raised
    potential Hessian ``A`` by the formulas of the batched evaluators, and
    the terms of ``Γ(v, V)``, ``R(v, V)v``, ``A V`` and ``Γ(v, W)``, each
    sum added from 0.0 in loops over the indices; nothing is folded."""
    metric, potential = sys.metric, sys.potential
    n = metric.dim
    kernel = point_kernel(n)
    r = range(n)

    def stage(y):
        q, v, V, W = y[:n], y[n:2 * n], y[2 * n:3 * n], y[3 * n:]
        g, dg, d2g = point_metric(metric, q)
        _, dU, d2U = potential.point(q)
        acc, inv, gam = kernel(q, g, dg, dU, v)

        def d1(k, i, j):
            return dg[(k * n + i) * n + j]

        def d2(k, l, i, j):
            return d2g[((k * n + l) * n + i) * n + j]

        def G(l, i, j):
            return gam[(l * n + i) * n + j]

        def I(a, b):
            return inv[a * n + b]

        bracket = {(i, j, m): d1(i, j, m) + d1(j, i, m) - d1(m, i, j)
                   for i in r for j in r for m in r}
        dbracket = {(k, i, j, m): d2(k, i, j, m) + d2(k, j, i, m) - d2(k, m, i, j)
                    for k in r for i in r for j in r for m in r}
        dinv = {(k, l, m): -_total(I(l, a) * d1(k, a, b) * I(b, m) for a in r for b in r)
                for k in r for l in r for m in r}
        dgam = {(k, l, i, j): 0.5 * (_total(dinv[k, l, m] * bracket[i, j, m] for m in r)
                                     + _total(I(l, m) * dbracket[k, i, j, m] for m in r))
                for k in r for l in r for i in r for j in r}
        hess = [[d2U[j * n + k] - _total(dU[m] * G(m, j, k) for m in r) for k in r] for j in r]
        raised = [[_total(I(l, j) * hess[j][k] for j in r) for k in r] for l in r]
        dV, dW = [], []
        for l in r:
            curv = 0.0
            for a in r:
                for b in r:
                    for c in r:
                        R = (dgam[b, l, a, c] - dgam[a, l, b, c]
                             - _total(G(l, a, m) * G(m, b, c) for m in r)
                             + _total(G(l, b, m) * G(m, a, c) for m in r))
                        curv += R * v[a] * V[b] * v[c]
            force = _total(raised[l][k] * V[k] for k in r)
            gv = _total(G(l, j, k) * v[j] * V[k] for j in r for k in r)
            gw = _total(G(l, j, k) * v[j] * W[k] for j in r for k in r)
            dV.append(W[l] - gv)
            dW.append(-curv - force - gw)
        return v + acc + dV + dW

    def rhs(t, y):
        try:
            return stage(y)
        except ChartDomainError as exc:
            raise ChartDomainError(f"left chart domain at t={t:.6g}: {exc}") from exc
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
        g, dg = point_metric(metric, q, second=False)
        U, dU = potential.point(q, False)
        w = E - U
        f = 2.0 * w
        if not (math.isfinite(f) and f > 0.0 and w > margin):
            raise ChartDomainError(f"chart domain: point {q} outside valid region")
        df = [-2.0 * x for x in dU]
        h = [f * x for x in g]
        dh = [df[k] * g[ij] + f * dg[k * nn + ij] for k in range(n) for ij in range(nn)]
        return u + kernel(q, h, dh, zero, u)[0] + [0.5 / w]
    return rhs
