"""Sampled-data differentiation helpers.

Central differences (:func:`central_diff`, :func:`central_diff2`) give
partials of a function that can be evaluated anywhere.  Sampled data are
differentiated by one scheme: a sliding polynomial stencil on arbitrarily
spaced nodes, 7 points wide along a curve, so that truncation errors stay
well below the identity tolerances.

The stencil weights depend only on the grid.  :func:`stencil_weights`
builds them (one Vandermonde solve per distinct row of node offsets, a
few dozen on a uniform grid) and :func:`apply_stencil`
applies them; these two are what the package calls.  A sampled curve keeps
the weights of its own parameter grid
(:attr:`~jacobistab.geometry.SampledCurve.stencil`), so every field
differentiated along it reuses one solve.  :func:`local_derivative` is the
one-shot form of the two, for a single field on a grid of its own.
"""

from __future__ import annotations

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


def central_diff2(fn, p, step):
    """Second central-difference partials at each point of a batch,
    ``out[..., k, l, *s] = d^2 fn / dp_k dp_l``, from one call of ``fn``."""
    p = np.asarray(p, dtype=float)
    n = p.shape[-1]
    e = step * np.eye(n)
    k, l = np.triu_indices(n, 1)
    ek, el = e[k], e[l]
    offsets = np.concatenate([np.zeros((1, n)), e, -e,
                              ek + el, ek - el, -ek + el, -ek - el])
    f = np.moveaxis(np.asarray(fn(p[..., None, :] + offsets), dtype=float),
                    p.ndim - 1, 0)
    f0, fp, fm = f[0], f[1:n + 1], f[n + 1:2 * n + 1]
    fpp, fpm, fmp, fmm = np.split(f[2 * n + 1:], 4)
    out = np.empty((n, n) + f0.shape)
    diag = np.arange(n)
    out[diag, diag] = (fp - 2.0 * f0 + fm) / step**2
    mixed = (fpp - fpm - fmp + fmm) / (4.0 * step**2)
    out[k, l] = mixed
    out[l, k] = mixed
    return np.moveaxis(out, (0, 1), (p.ndim - 1, p.ndim))


def _stencil_index(n, width):
    """Node indices ``(N, width)`` of the stencil of every node: centred,
    shifted inwards at the ends of the grid."""
    start = np.clip(np.arange(n) - (width - 1) // 2, 0, n - width)
    return start[:, None] + np.arange(width)[None, :]


def stencil_weights(x):
    """First-derivative weights ``(..., N, w)`` of the sliding polynomial
    stencils of :func:`local_derivative` on the grids ``x`` ``(..., N)``,
    with ``w = min(7, N)``; :func:`apply_stencil` applies them to samples.

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


def local_derivative(x, y):
    """Differentiate sampled data with sliding 7-point polynomial stencils.

    Parameters
    ----------
    x : (..., N) strictly increasing sample locations (may be non-uniform),
        one grid per leading index.
    y : (..., N) or (..., N, ...) samples, whose leading axes match ``x``.

    Returns an array shaped like ``y`` holding dy/dx at every node, accurate
    to O(h^6) on smooth data with 7 or more nodes.  This one-shot form
    solves the weights on every call; a grid that carries many fields keeps
    its weights instead (see :attr:`~jacobistab.geometry.SampledCurve.stencil`).
    """
    return apply_stencil(stencil_weights(x), y)


def cumulative_simpson(y, x):
    """Cumulative composite-Simpson antiderivative sampled at every node of
    the last axis; ``x`` is one grid or one grid per row of ``y``."""
    from scipy.integrate import cumulative_simpson as _cs

    out = _cs(np.asarray(y, dtype=float), x=np.asarray(x, dtype=float), initial=0.0)
    return out
