"""Sampled-data differentiation helpers.

Central differences (:func:`central_diff`) give partials of a function
that can be evaluated anywhere: the finite-difference evaluators
:func:`~jacobistab.geometry.fd_metric` and
:func:`~jacobistab.geometry.fd_field`, and the checks that compare
partials against differences.  Sampled data are
differentiated by one scheme: a sliding polynomial stencil on arbitrarily
spaced nodes, 7 points wide along a curve, so that truncation errors stay
well below the identity tolerances.

The stencil weights depend only on the grid.  :func:`stencil_weights`
builds them (one Vandermonde solve per distinct row of node offsets, a
few dozen on a uniform grid) and :func:`apply_stencil`
applies them; these two are what the package calls.  A sampled curve,
:class:`~jacobistab.geometry.CurveGeometry`, keeps the weights of its own
parameter grid (its ``stencil``), so every field differentiated along it
reuses one solve.

Sampled data are integrated, and roots are found, by ports of scipy
1.17: :func:`simpson`, :func:`cumulative_simpson` (Cartwright's
unequal-interval Simpson integrals, summed in order) and :func:`brentq`
(Brent's root finder on Python floats).  Sampled curves are resampled by
one interpolant, :func:`hermite`: the cubic Hermite on the slopes a
record already carries (a geodesic's tangents, ``ds/dt = 2(E - U)``, a
deviation field's ``DV - C V``), so it needs no solve.  Each performs
scipy's float operations in scipy's order, so it gives scipy's bits.  The
linearized flow interpolates nothing, since it evaluates its coefficients
from the second partials at each RK4 stage state (see
:func:`jacobistab.dynamics._deviation_stage`).  With the RK45 of
:mod:`jacobistab.dynamics` these ports are why no module of the package
imports scipy: importing ``scipy.integrate``, ``scipy.interpolate`` and
``scipy.optimize`` costs about 0.4 s and 50 MB, more than most
subcommands' own work.
"""

from __future__ import annotations

import functools
import math

import numpy as np


def central_diff(fn, p, step):
    """Central-difference partials of ``fn`` at each point of a batch.

    ``p`` is ``(..., n)`` and ``fn`` maps ``(..., n)`` points to values
    ``(..., *s)``.  All 2n stencil points are evaluated in one call of
    ``fn``.  The derivative index follows the batch axes:
    ``out[..., k, *s] = d fn / d p_k``.
    """
    p = np.asarray(p, dtype=float)
    n = p.shape[-1]
    e = step * np.eye(n)
    stencil = np.concatenate([p[..., None, :] + e, p[..., None, :] - e], axis=-2)
    f = np.moveaxis(np.asarray(fn(stencil), dtype=float), p.ndim - 1, 0)
    return np.moveaxis((f[:n] - f[n:]) / (2.0 * step), 0, p.ndim - 1)


@functools.lru_cache(maxsize=16)
def _stencil_index(n, width):
    """Node indices ``(N, width)`` of the stencil of every node: centred,
    shifted inwards at the ends of the grid.  Built once per ``(n, width)``
    and shared, so read-only; a run meets a few grid sizes (at most 7 in
    ``verify-all``), and the 16 most recent are kept."""
    start = np.clip(np.arange(n) - (width - 1) // 2, 0, n - width)
    index = start[:, None] + np.arange(width)[None, :]
    index.flags.writeable = False
    return index


def stencil_weights(x):
    """First-derivative weights ``(..., N, w)`` of the sliding polynomial
    stencils on the grids ``x`` ``(..., N)``, with ``w = min(7, N)``:
    centred, shifted inwards at the ends of a grid, and exact for
    polynomials of degree below ``w`` on any strictly increasing nodes
    (O(h^6) on smooth data with 7 or more nodes).  :func:`apply_stencil`
    applies them to samples.

    The weights depend on the grid alone, so whoever owns a grid builds
    them once and applies them to every field sampled on it.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    if n < 2:
        raise ValueError("insufficient samples for a first derivative")
    width = min(7, n)

    d = x[..., _stencil_index(n, width)] - x[..., :, None]   # (..., N, w) node offsets
    scale = np.max(np.abs(d), axis=-1, keepdims=True)
    scale[scale == 0.0] = 1.0
    ds = d / scale
    # Solve the Vandermonde system sum_c w_c ds_c^r = delta_{r,1} once per
    # bitwise-distinct row of ds: the nodes of a uniform grid share a few
    # dozen rows, and equal rows give equal weights.
    rows = ds.reshape(-1, width)
    _, first, inverse = np.unique(rows.view(np.dtype((np.void, rows.itemsize * width))),
                                  return_index=True, return_inverse=True)
    vand = rows[first][:, None, :] ** np.arange(width)[:, None]
    rhs = np.zeros(vand.shape[:-1] + (1,))
    rhs[:, 1, 0] = 1.0
    return np.linalg.solve(vand, rhs)[:, :, 0][inverse.ravel()].reshape(ds.shape) / scale


def apply_stencil(weights, y):
    """Apply stencil weights ``(..., N, w)`` from :func:`stencil_weights` to
    samples ``y`` ``(..., N)`` or ``(..., N, ...)`` on the same grids."""
    y = np.asarray(y, dtype=float)
    n, width = weights.shape[-2:]
    # differencing offsets from the evaluation node annihilates constants
    # exactly and reduces cancellation on slowly varying data
    node = weights.ndim - 2
    yw = np.take(y, _stencil_index(n, width), axis=node) - np.expand_dims(y, node + 1)
    # one row per node of every grid, so that each row sums as on a single grid
    out = np.einsum('nw,nw...->n...', weights.reshape(-1, width),
                    yw.reshape((-1, width) + y.shape[node + 1:]))
    return out.reshape(y.shape)


def simpson(y, x) -> float:
    """Composite Simpson's rule of samples ``y`` ``(N,)`` over a strictly
    increasing grid ``x`` ``(N,)``, ``N >= 2``.

    An odd N takes the irregular-grid Simpson panels, an even N the panels
    over all but the last interval and Cartwright's correction for that
    one, and N = 2 the trapezoid: the float operations of
    ``scipy.integrate.simpson`` (1.17) in its order, so the same bits.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    n = len(y)
    if n == 2:
        return float(0.0 + 0.5 * (x[1] - x[0]) * (y[1] + y[0]))
    h = np.diff(x)
    stop = n - 2 if n % 2 else n - 3           # the panels start at even nodes below stop
    h0, h1 = h[0:stop:2], h[1:stop + 1:2]
    hsum, hprod = h0 + h1, h0 * h1
    h0divh1 = h0 / h1
    result = np.sum(hsum / 6.0 * (y[0:stop:2] * (2.0 - 1.0 / h0divh1)
                                  + y[1:stop + 1:2] * (hsum * (hsum / hprod))
                                  + y[2:stop + 2:2] * (2.0 - h0divh1)))
    if n % 2 == 0:
        h0, h1 = (np.asarray(v) for v in h[-2:])
        alpha = (2 * h1 ** 2 + 3 * h0 * h1) / (6 * (h1 + h0))
        beta = (h1 ** 2 + 3.0 * h0 * h1) / (6 * h0)
        eta = h1 ** 3 / (6 * h0 * (h0 + h1))
        result = result + (alpha * y[-1] + beta * y[-2] - eta * y[-3]) + 0.0
    return float(result)


def _cartwright(y, dx):
    """Simpson's integral over the first interval of each run of three nodes
    along the last axis (Cartwright, J. Math. Sci. Math. Educ. 12(2), 2017,
    eq. 8); on the reversed samples it gives the second interval."""
    x21, x32 = dx[..., :-1], dx[..., 1:]
    x21_x31 = x21 / (x21 + x32)
    x21x21_x31x32 = x21_x31 * (x21 / x32)
    return x21 / 6 * ((3 - x21_x31) * y[..., :-2]
                      + (3 + x21x21_x31x32 + x21_x31) * y[..., 1:-1]
                      + -x21x21_x31x32 * y[..., 2:])


def cumulative_simpson(y, x):
    """Cumulative composite-Simpson antiderivative of ``y`` ``(..., N)``
    sampled at every node of the last axis, 0 at the first; ``x`` is one
    strictly increasing grid ``(N,)`` or one per row of ``y``.

    Interval i takes the integral of the parabola through nodes i to i + 2
    when i is even, and through nodes i - 1 to i + 1 when i is odd or the
    last, and the intervals are summed in order; N < 3 takes the
    trapezoid.  These are the float
    operations of ``scipy.integrate.cumulative_simpson(..., initial=0)``
    (1.17) in its order, so the same bits.
    """
    y = np.asarray(y, dtype=float)
    dx = np.diff(np.broadcast_to(np.asarray(x, dtype=float), y.shape), axis=-1)
    if y.shape[-1] < 3:
        res = np.cumsum(dx * (y[..., 1:] + y[..., :-1]) / 2.0, axis=-1)
    else:
        if (dx <= 0.0).any():
            raise ValueError("x must be strictly increasing")
        first = _cartwright(y, dx)
        second = _cartwright(y[..., ::-1], dx[..., ::-1])[..., ::-1]
        sub = np.empty(dx.shape)
        sub[..., :-1:2] = first[..., ::2]
        sub[..., 1::2] = second[..., ::2]
        sub[..., -1] = second[..., -1]
        res = np.cumsum(sub, axis=-1)
    # the initial value 0.0 is added to every sum, which turns -0.0 into 0.0
    return np.concatenate((np.zeros(y.shape[:-1] + (1,)), res + 0.0), axis=-1)


def hermite(x, y, dydx):
    """The piecewise cubic through samples ``y`` ``(N, ...)`` with slopes
    ``dydx`` (shaped like ``y``) at the strictly increasing nodes ``x``
    ``(N,)``, ``N >= 2``, as a function that maps points ``(K,)`` to values
    ``(K, ...)``; points outside the grid take the end cubics.  Raises
    ``ValueError`` where scipy does: on fewer than 2 nodes, a sample count
    that is not the node count, slopes not shaped like the samples,
    non-finite data or a grid that does not increase.

    The cubic on ``[x_i, x_i+1)`` has Hermite coefficients in
    ``z = t - x_i`` and is summed from the constant term up.  These are the
    float operations of ``scipy.interpolate.CubicHermiteSpline`` (1.17) and
    its evaluation in their order, so the same bits.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    dydx = np.asarray(dydx, dtype=float)
    if x.ndim != 1 or len(x) < 2 or y.shape[:1] != x.shape or dydx.shape != y.shape:
        raise ValueError("need one sample and one slope per node of a 1-D grid of "
                         "at least 2 nodes")
    if not (np.isfinite(x).all() and np.isfinite(y).all() and np.isfinite(dydx).all()):
        raise ValueError("Hermite nodes, samples and slopes must be finite")
    dx = np.diff(x)
    if (dx <= 0.0).any():
        raise ValueError("Hermite nodes must be strictly increasing")
    n = len(x)
    dxr = dx.reshape((n - 1,) + (1,) * (y.ndim - 1))
    slope = np.diff(y, axis=0) / dxr
    t = (dydx[:-1] + dydx[1:] - 2 * slope) / dxr
    c = (y[:-1], dydx[:-1], (slope - dydx[:-1]) / dxr - t, t / dxr)

    def cubic(points):
        p = np.asarray(points, dtype=float)
        i = np.clip(np.searchsorted(x, p, side="right") - 1, 0, n - 2)
        z = (p - x[i]).reshape(p.shape + (1,) * (y.ndim - 1))
        # c0 + c1 z + c2 z^2 + c3 z^3 from the left, in place; 0.0 + c0
        # turns -0.0 into 0.0
        out = c[0][i]
        out += 0.0
        for k, power in enumerate((z, z * z, z * z * z), 1):
            term = c[k][i]
            term *= power
            out += term
        return out
    return cubic


_EPS4 = 4 * np.finfo(float).eps
"""The smallest relative tolerance of :func:`brentq`, as scipy's."""

_BRENTQ_MAXITER = 100
"""The iterations :func:`brentq` takes before it gives up, scipy's default."""


def brentq(f, a, b, xtol=2e-12, rtol=_EPS4):
    """A root of ``f`` in ``[a, b]``, where ``f(a)`` and ``f(b)`` differ in
    sign, by Brent's method: inverse quadratic interpolation or the secant
    step where it stays short, bisection elsewhere, to within
    ``xtol + rtol * |x|``.

    This is scipy 1.17's ``scipy.optimize.brentq`` (its ``brentq.c``) on
    Python floats, in its order, so the same root: ``f`` is called with
    floats, a NaN value raises ``ValueError``, a same-sign bracket raises
    ``ValueError`` and no convergence in :data:`_BRENTQ_MAXITER`
    iterations raises ``RuntimeError``.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _EPS4:
        raise ValueError(f"rtol too small ({rtol:g} < {_EPS4:g})")

    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_BRENTQ_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:        # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:                   # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:   # C's inf or NaN, which bisects
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry         # a good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {_BRENTQ_MAXITER} iterations.")
