"""Sampled-data differentiation helpers.

Two schemes are used throughout the package:

* ``np.gradient`` (second-order central differences) where a contract
  promises exactly O(step^2) behaviour, and
* :func:`local_derivative`, a sliding polynomial stencil on arbitrarily
  spaced nodes, where operator identities need truncation errors well
  below the identity tolerances.
"""

from __future__ import annotations

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


def local_derivative(x, y, m=1, width=7):
    """Differentiate sampled data with sliding polynomial stencils.

    Parameters
    ----------
    x : (..., N) strictly increasing sample locations (may be non-uniform),
        one grid per leading index.
    y : (..., N) or (..., N, ...) samples, whose leading axes match ``x``.
    m : derivative order (1 or 2 in practice).
    width : stencil width; accuracy is O(h^(width-m)) on smooth data.

    Returns an array shaped like ``y`` holding d^m y / dx^m at every node.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.shape[-1]
    if n < m + 1:
        raise ValueError("insufficient samples for derivative order %d" % m)
    width = min(width, n)
    if width < m + 1:
        raise ValueError("stencil width %d too small for order %d" % (width, m))

    start = np.clip(np.arange(n) - (width - 1) // 2, 0, n - width)
    idx = start[:, None] + np.arange(width)[None, :]
    d = x[..., idx] - x[..., :, None]            # (..., N, w) node offsets
    scale = np.max(np.abs(d), axis=-1, keepdims=True)
    scale[scale == 0.0] = 1.0
    ds = d / scale
    # Solve the Vandermonde system sum_c w_c ds_c^r = m! delta_{r,m}.
    vand = ds[..., None, :] ** np.arange(width)[:, None]
    rhs = np.zeros(vand.shape[:-1] + (1,))
    rhs[..., m, 0] = math.factorial(m)
    wts = np.linalg.solve(vand, rhs)[..., 0] / scale**m   # (..., N, w)

    # differencing offsets from the evaluation node annihilates constants
    # exactly and reduces cancellation on slowly varying data
    node = x.ndim - 1
    yw = np.take(y, idx, axis=node) - np.expand_dims(y, node + 1)
    # one row per node of every grid, so that each row sums as on a single grid
    out = np.einsum('nw,nw...->n...', wts.reshape(-1, width),
                    yw.reshape((-1, width) + y.shape[node + 1:]))
    return out.reshape(y.shape)


def cumulative_simpson(y, x):
    """Cumulative composite-Simpson antiderivative sampled at every node of
    the last axis; ``x`` is one grid or one grid per row of ``y``."""
    from scipy.integrate import cumulative_simpson as _cs

    out = _cs(np.asarray(y, dtype=float), x=np.asarray(x, dtype=float), initial=0.0)
    return out
