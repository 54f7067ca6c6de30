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

Sampled data are integrated and interpolated, and roots are found, by
ports of scipy 1.17: :func:`simpson`, :func:`cumulative_simpson`
(Cartwright's unequal-interval Simpson integrals, summed in order),
:func:`cubic_spline` (the not-a-knot spline, whose tridiagonal system
:func:`_tridiagonal_solve` solves as LAPACK's ``dgtsv`` does),
:func:`pchip` (the shape-preserving Hermite cubic, on the spline's
evaluation) and :func:`brentq` (Brent's root finder on Python floats).
Each performs scipy's float operations in scipy's order, so it gives
scipy's bits.  The splines resample records (the round trip's geodesic,
the conjugate point's deviation component) and integrate the equal-energy
multiplier; the linearized flow interpolates nothing, since it evaluates
its coefficients from the second partials at each RK4 stage state (see
:func:`jacobistab.dynamics._deviation_stage`).  With the RK45 of
:mod:`jacobistab.dynamics` they are why no module of the package imports
scipy: importing ``scipy.integrate``, ``scipy.interpolate`` and
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


def _tridiagonal_solve(lower, diag, upper, b):
    """Solve the tridiagonal system with sub-, main and super-diagonals
    ``lower``, ``diag`` and ``upper`` (lists of floats, overwritten) for
    the right-hand sides ``b`` ``(n, m)``; returns the solutions ``(n, m)``.

    This is LAPACK ``dgtsv``: Gaussian elimination with a row interchange
    wherever the sub-diagonal entry is larger in magnitude than the pivot,
    then back substitution, with its float operations in its order.  The
    matrix is factored once and each column is swept on Python floats.
    """
    n = len(diag)
    d, du, dl = diag, upper, lower      # factored in place; dl gains the fill-in
    fact, swap = [], []
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            if d[i] == 0.0:
                raise np.linalg.LinAlgError("singular tridiagonal system")
            f = dl[i] / d[i]
            d[i + 1] = d[i + 1] - f * du[i]
            dl[i] = 0.0
            swap.append(False)
        else:
            f = d[i] / dl[i]
            d[i], temp = dl[i], d[i + 1]
            d[i + 1] = du[i] - f * temp
            if i < n - 2:
                dl[i] = du[i + 1]
                du[i + 1] = -f * dl[i]
            du[i] = temp
            swap.append(True)
        fact.append(f)
    if d[-1] == 0.0:
        raise np.linalg.LinAlgError("singular tridiagonal system")
    rdu, rdl, rd = (a[:n - 2][::-1] for a in (du, dl, d))       # back substitution
    x = np.empty((n, b.shape[1]))
    for j in range(b.shape[1]):
        col = b[:, j].tolist()
        e, acc = [], col[0]
        for f, s, v in zip(fact, swap, col[1:]):
            if s:       # rows i and i + 1 traded places
                e.append(v)
                acc = acc - f * v
            else:
                e.append(acc)
                acc = v - f * acc
        e.append(acc)
        x1 = e[-1] / d[-1]
        x0 = (e[-2] - du[-1] * x1) / d[-2]
        sol = [x1, x0]
        for ei, ui, li, di in zip(reversed(e[:n - 2]), rdu, rdl, rd):
            x0, x1 = (ei - ui * x0 - li * x1) / di, x0
            sol.append(x0)
        x[::-1, j] = sol
    return x


def _cholesky_solve(a, b):
    """Solve ``a x = b`` for a symmetric positive definite ``a`` ``(n, n)``
    and ``b`` ``(n, m)`` as LAPACK's ``dposv`` does: ``a = uᵀu``, then a
    forward and a back substitution that scale by the reciprocal pivots."""
    u = np.linalg.cholesky(a).T
    x = np.array(b, dtype=float)
    n = len(x)
    for i in range(n):
        for k in range(i):
            x[i] = x[i] - u[k, i] * x[k]
        x[i] = x[i] * (1.0 / u[i, i])
    for i in reversed(range(n)):
        for k in range(i + 1, n):
            x[i] = x[i] - u[i, k] * x[k]
        x[i] = x[i] * (1.0 / u[i, i])
    return x


def cubic_spline(x, y):
    """The not-a-knot cubic spline through samples ``y`` ``(N, ...)`` at the
    strictly increasing nodes ``x`` ``(N,)``, ``N >= 2``, as a function that
    maps points ``(K,)`` to values ``(K, ...)``; it extrapolates with the end
    cubics.  Raises ``ValueError`` on non-finite data or a grid that does
    not increase.

    Every column of ``y`` is a spline of its own.  Its node slopes solve
    the tridiagonal system with not-a-knot end rows by
    :func:`_tridiagonal_solve`; N = 3 takes the parabola through the nodes
    (a dense 3 × 3 solve) and N = 2 the chord.  The cubic on
    ``[x_i, x_i+1)`` has Hermite coefficients in ``z = t - x_i``, summed
    from the constant term up.  These are the float operations of
    ``scipy.interpolate.CubicSpline`` (1.17) and its evaluation in their
    order, so the same bits.
    """
    x, y, dx, slope, dxr = _spline_input(x, y)
    n = len(x)
    b = np.empty(y.shape)
    if n == 3:
        # the parabola, solved densely as scipy.linalg.solve does: LAPACK's
        # Cholesky solve where the matrix is symmetric (both spacings 1),
        # its LU solve (dgesv) elsewhere
        a = np.array([[1.0, 1.0, 0.0], [dx[1], 2 * (dx[0] + dx[1]), dx[0]], [0.0, 1.0, 1.0]])
        b[0] = 2 * slope[0]
        b[1] = 3 * (dxr[0] * slope[1] + dxr[1] * slope[0])
        b[2] = 2 * slope[1]
        solve = _cholesky_solve if dx[0] == dx[1] == 1.0 else np.linalg.solve
        s = solve(a, b.reshape(n, -1)).reshape(y.shape)
    else:
        if n == 2:
            lower, diag, upper = [0.0], [1.0, 1.0], [0.0]
            b[0] = b[1] = slope[0]
        else:
            d0, d1 = x[2] - x[0], x[-1] - x[-3]
            lower = dx[1:].tolist() + [float(d1)]
            diag = [float(dx[1])] + (2 * (dx[:-1] + dx[1:])).tolist() + [float(dx[-2])]
            upper = [float(d0)] + dx[:-1].tolist()
            b[0] = ((dxr[0] + 2 * d0) * dxr[1] * slope[0] + dxr[0] ** 2 * slope[1]) / d0
            b[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
            b[-1] = (dxr[-1] ** 2 * slope[-2] + (2 * d1 + dxr[-1]) * dxr[-2] * slope[-1]) / d1
        s = _tridiagonal_solve(lower, diag, upper, b.reshape(n, -1)).reshape(y.shape)
    return _hermite(x, y, s, slope, dxr)


def _hermite(x, y, dydx, slope, dxr):
    """The piecewise cubic through samples ``y`` with node slopes ``dydx``
    at the nodes ``x``, ``slope`` and ``dxr`` the chord slopes and spacings
    shaped like ``y[1:]``, as the function :func:`cubic_spline` returns.

    The cubic on ``[x_i, x_i+1)`` has Hermite coefficients in ``z = t - x_i``
    and is summed from the constant term up; points outside the grid take
    the end cubics.  These are the float operations of scipy 1.17's
    ``CubicHermiteSpline`` and its evaluation in their order.
    """
    n = len(x)
    t = (dydx[:-1] + dydx[1:] - 2 * slope) / dxr
    c = (y[:-1], dydx[:-1], (slope - dydx[:-1]) / dxr - t, t / dxr)

    def spline(points):
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
    return spline


def _spline_input(x, y):
    """``x`` and ``y`` as float arrays, with the spacings ``dx`` of ``x`` and
    the chord slopes and spacings shaped like ``y[1:]``.  Raises
    ``ValueError`` where scipy's splines do: on fewer than 2 nodes, a
    sample count that is not the node count, non-finite data or a grid that
    does not increase."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or len(x) < 2 or y.shape[:1] != x.shape:
        raise ValueError("need one sample per node of a 1-D grid of at least 2 nodes")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("spline nodes and samples must be finite")
    dx = np.diff(x)
    if (dx <= 0.0).any():
        raise ValueError("spline nodes must be strictly increasing")
    dxr = dx.reshape((len(x) - 1,) + (1,) * (y.ndim - 1))
    return x, y, dx, np.diff(y, axis=0) / dxr, dxr


def _pchip_edge(h0, h1, m0, m1):
    """The end slope of :func:`pchip`: the one-sided three-point estimate,
    set to 0 where its sign is not the first chord's and to three times the
    first chord slope where the chords change sign and it exceeds that."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    mask = np.sign(d) != np.sign(m0)
    mmm = ~mask & (np.sign(m0) != np.sign(m1)) & (np.abs(d) > 3. * np.abs(m0))
    d[mask] = 0.
    d[mmm] = 3. * m0[mmm]
    return d


def pchip(x, y):
    """The shape-preserving piecewise cubic Hermite interpolant (PCHIP,
    Fritsch and Carlson; Moler's end slopes) through samples ``y`` ``(N,
    ...)`` at the strictly increasing nodes ``x`` ``(N,)``, ``N >= 2``, as a
    function of points ``(K,)`` like :func:`cubic_spline`'s; it extrapolates
    with the end cubics and raises ``ValueError`` where that does.

    An interior node slope is 0 where the chords on either side differ in
    sign or one is flat, and their weighted harmonic mean elsewhere; N = 2
    takes the chord.  These are the float operations of
    ``scipy.interpolate.PchipInterpolator`` (1.17) in its order, so the
    same bits.
    """
    x, y, dx, slope, dxr = _spline_input(x, y)
    hk, mk = dxr.reshape(len(x) - 1, -1), slope.reshape(len(x) - 1, -1)
    dk = np.zeros((len(x), mk.shape[1]))
    if len(x) == 2:
        dk[0] = dk[1] = mk[0]
    else:
        smk = np.sign(mk)
        zero = (smk[1:] != smk[:-1]) | (mk[1:] == 0) | (mk[:-1] == 0)
        w1 = 2 * hk[1:] + hk[:-1]
        w2 = hk[1:] + 2 * hk[:-1]
        with np.errstate(divide="ignore", invalid="ignore"):     # masked by zero
            whmean = (w1 / mk[:-1] + w2 / mk[1:]) / (w1 + w2)
        dk[1:-1][~zero] = 1.0 / whmean[~zero]
        dk[0] = _pchip_edge(hk[0], hk[1], mk[0], mk[1])
        dk[-1] = _pchip_edge(hk[-1], hk[-2], mk[-1], mk[-2])
    return _hermite(x, y, dk.reshape(y.shape), slope, dxr)


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
