"""Numpy references for the RK4 flows: the classical RK4 loop on float64
arrays, and the right-hand sides of the Newton and h-geodesic flows as
numpy arithmetic on the batched evaluators.  The float ``_rk4`` of
:mod:`jacobistab.dynamics` and its list stages are pinned against them."""

import numpy as np

from jacobistab.errors import ChartDomainError
from jacobistab.geometry import christoffel


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
