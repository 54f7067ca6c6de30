"""Conformal rescaling and curve reparametrization formulas.

Implements the closed-form transformation rules for the Levi-Civita
connection, covariant derivatives along reparametrized curves, and the
curvature tensor under ``g -> f * g``, together with a residual harness
that checks each formula against direct computation in the rescaled
metric.  All inner products and gradients below are taken with respect
to the base metric ``g``; the vector ``F`` is always ``grad ln f``.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .errors import DegenerateMetricError
from .geometry import (FD_STEP, ChartMetric, SampledCurve, ScalarField, _first_point, _mv,
                       _quad, _second_cov, _shaped, christoffel, cov_derivative_along,
                       riemann)
from .numdiff import apply_stencil, central_diff, cumulative_simpson


def factor_values(cf: ScalarField, p) -> np.ndarray:
    """Values ``(...)`` of a conformal factor; raises unless every one is
    finite and positive."""
    p = np.asarray(p, dtype=float)
    v = _shaped(cf.value(p), p.shape[:-1])
    bad = ~(np.isfinite(v) & (v > 0.0))
    if bad.any():
        raise DegenerateMetricError(f"conformal factor not positive at {_first_point(p, bad)}")
    return v


def _log_partials(cf: ScalarField, p) -> np.ndarray:
    return cf.grad_components(p) / factor_values(cf, p)[..., None]


def F_components(cf: ScalarField, metric: ChartMetric, p) -> np.ndarray:
    """Components of ``F = grad ln f`` with respect to the base metric."""
    p = np.asarray(p, dtype=float)
    return _mv(metric.g_inv(p), _log_partials(cf, p))


def F_partials(cf: ScalarField, metric: ChartMetric, p) -> np.ndarray:
    """Partials ``out[..., k, i] = d_k F^i`` of F: analytic when the factor
    and the metric both carry first partials, else central differences."""
    p = np.asarray(p, dtype=float)
    if cf.partials is None or metric.dg_eval is None:
        return central_diff(lambda q: F_components(cf, metric, q), p, FD_STEP)
    ginv = metric.g_inv(p)
    dginv = -np.einsum('...la,...kab,...bm->...klm', ginv, metric.dg(p), ginv)
    v = factor_values(cf, p)[..., None, None]
    dv = cf.grad_components(p)
    log_hess = cf.hess_components(p) / v - (dv[..., :, None] * dv[..., None, :]) / v**2
    return (np.einsum('...kim,...m->...ki', dginv, _log_partials(cf, p))
            + np.einsum('...im,...km->...ki', ginv, log_hess))


def conformal_rescale(metric: ChartMetric, cf: ScalarField,
                      extra_guard: Optional[Callable] = None,
                      name: str = "") -> ChartMetric:
    """Chart metric with components ``f * g_ij``.

    Analytic derivative evaluators are assembled by the product rule when
    both the base metric and the factor carry them; otherwise the rescaled
    metric falls back to finite differences of its own components.
    """

    def factor(p, k):
        """Factor values shaped to broadcast against k trailing axes."""
        return factor_values(cf, p)[(...,) + (None,) * k]

    def g_eval(p):
        return factor(p, 2) * metric.g(p)

    def guard(p):
        v = cf(p)
        ok = metric.contains(p) & np.isfinite(v) & (v > 0.0)
        if extra_guard is not None:
            ok = ok & extra_guard(p)
        return ok

    dg_eval = None
    d2g_eval = None
    if metric.dg_eval is not None and cf.partials is not None:
        def dg_eval(p):
            return (np.einsum('...k,...ij->...kij', cf.grad_components(p), metric.g(p))
                    + factor(p, 3) * metric.dg(p))

        if metric.d2g_eval is not None and cf.second_partials is not None:
            def d2g_eval(p):
                dfv = cf.grad_components(p)
                dgv = metric.dg(p)
                return (np.einsum('...kl,...ij->...klij', cf.hess_components(p), metric.g(p))
                        + np.einsum('...k,...lij->...klij', dfv, dgv)
                        + np.einsum('...l,...kij->...klij', dfv, dgv)
                        + factor(p, 4) * metric.d2g(p))

    return ChartMetric(dim=metric.dim, g_eval=g_eval, dg_eval=dg_eval,
                       d2g_eval=d2g_eval, domain_guard=guard,
                       name=name or (metric.name + "*factor"))


def _g_dot(gm):
    """``x @ g @ y`` at each point, shaped ``(..., 1)`` to scale vectors."""
    return lambda x, y: _quad(gm, x, y)[..., None]


def _cov(gam, x, y):
    """``nabla_X Y = Γ(X, Y)`` at each point for constant-component x, y."""
    return np.einsum('...ikm,...k,...m->...i', gam, x, y)


def conformal_connection(metric: ChartMetric, cf: ScalarField, p, x, y) -> np.ndarray:
    """Rescaled-metric covariant derivative of constant-component vectors.

    Returns ``nabla~_X Y = nabla_X Y + (1/2)<F,Y>X + (1/2)<F,X>Y - (1/2)<X,Y>F``
    at points ``p`` ``(..., n)`` for vectors ``(..., n)``, with every product
    taken in the base metric.
    """
    p = np.asarray(p, dtype=float)
    factor_values(cf, p)
    dot = _g_dot(metric.g(p))
    fv = F_components(cf, metric, p)
    nab = np.einsum('...ijk,...j,...k->...i', christoffel(metric, p), x, y)
    return nab + 0.5 * dot(fv, y) * x + 0.5 * dot(fv, x) * y - 0.5 * dot(x, y) * fv


def conformal_second_cov(metric: ChartMetric, cf: ScalarField, p, x, y, z) -> np.ndarray:
    """Second covariant derivative in the rescaled metric from base-metric data.

    Evaluates the full transformation of ``nabla~_X nabla~_Y Z`` at points
    ``p`` ``(..., n)`` for constant-component vectors x, y, z ``(..., n)``.
    """
    p = np.asarray(p, dtype=float)
    factor_values(cf, p)
    dot = _g_dot(metric.g(p))
    gam = christoffel(metric, p)
    fv = F_components(cf, metric, p)

    nab_xy, nab_xz, nab_yz = _cov(gam, x, y), _cov(gam, x, z), _cov(gam, y, z)
    nab_xf = np.einsum('...k,...ki->...i', x, F_partials(cf, metric, p)) + _cov(gam, x, fv)
    nab_x_nab_yz = _second_cov(metric, p, x, y, z, gamma=gam)

    return (nab_x_nab_yz
            + 0.5 * dot(fv, z) * nab_xy
            + 0.5 * dot(fv, y) * nab_xz
            - 0.5 * dot(y, z) * nab_xf
            + 0.5 * dot(fv, x) * nab_yz
            + (0.5 * dot(fv, nab_yz) + 0.5 * dot(fv, z) * dot(fv, y)
               - 0.25 * dot(y, z) * dot(fv, fv)) * x
            + (0.5 * dot(nab_xf, z) + 0.5 * dot(fv, nab_xz)
               + 0.25 * dot(fv, z) * dot(fv, x)) * y
            + (0.5 * dot(nab_xf, y) + 0.5 * dot(fv, nab_xy)
               + 0.25 * dot(fv, x) * dot(fv, y)) * z
            + (-0.5 * dot(nab_xy, z) - 0.5 * dot(y, nab_xz)
               - 0.5 * dot(x, nab_yz) - 0.25 * dot(fv, z) * dot(x, y)
               - 0.25 * dot(fv, y) * dot(x, z)) * fv)


def conformal_curvature(metric: ChartMetric, cf: ScalarField, p, x, y, z) -> np.ndarray:
    """Curvature ``R~(X, Y)Z`` of the rescaled metric expressed through
    base-metric data, at points ``p`` ``(..., n)`` for vectors ``(..., n)``."""
    p = np.asarray(p, dtype=float)
    factor_values(cf, p)
    dot = _g_dot(metric.g(p))
    gam = christoffel(metric, p)
    fv = F_components(cf, metric, p)
    dfv = F_partials(cf, metric, p)
    nab_xf = np.einsum('...k,...ki->...i', x, dfv) + _cov(gam, x, fv)
    nab_yf = np.einsum('...k,...ki->...i', y, dfv) + _cov(gam, y, fv)
    base = np.einsum('...labc,...a,...b,...c->...l', riemann(metric, p, gamma=gam), x, y, z)

    return (base
            - 0.5 * dot(x, z) * nab_yf
            + 0.5 * dot(y, z) * nab_xf
            + (0.5 * dot(nab_yf, z) - 0.25 * dot(fv, z) * dot(fv, y)
               + 0.25 * dot(y, z) * dot(fv, fv)) * x
            + (-0.5 * dot(nab_xf, z) + 0.25 * dot(fv, z) * dot(fv, x)
               - 0.25 * dot(x, z) * dot(fv, fv)) * y
            + (0.5 * dot(nab_yf, x) - 0.5 * dot(nab_xf, y)) * z
            + (0.25 * dot(fv, y) * dot(x, z)
               - 0.25 * dot(fv, x) * dot(y, z)) * fv)


def reparam_cov(metric: ChartMetric, f_along_curve, curve: SampledCurve, field):
    """Covariant derivatives after the reparametrization ``ds = f dt``.

    Returns the triple ``(nabla_{γ'}X, nabla_{γ'}γ', nabla_{γ'}nabla_{γ'}X)``
    sampled on the curve's parameter grid (or on each curve of a batch, with
    factor samples ``(..., N)``), computed from t-parameter derivatives:

        nabla_{γ'}X  = (1/f)   nabla_{γ̇}X
        nabla_{γ'}γ' = (1/f^2)(nabla_{γ̇}γ̇ - <grad ln f, γ̇> γ̇)
        nabla_{γ'}nabla_{γ'}X = (1/f^2)(nabla_{γ̇}nabla_{γ̇}X - <grad ln f, γ̇> nabla_{γ̇}X)

    ``<grad ln f, γ̇>`` is the chain-rule derivative d(ln|f|)/dt of the
    sampled factor.  Every t-derivative applies the curve's
    :attr:`~jacobistab.geometry.SampledCurve.stencil`.
    """
    f = np.asarray(f_along_curve, dtype=float)
    field = np.asarray(field, dtype=float)
    if f.shape != curve.params.shape:
        raise ValueError("factor samples must match the curve grid")
    if np.min(np.abs(f)) < 1e-300 or not np.all(np.isfinite(f)):
        raise DegenerateMetricError("degenerate reparametrization: factor vanishes on the curve")

    dlnf = apply_stencil(curve.stencil, np.log(np.abs(f)))[..., None]
    gammas = christoffel(metric, curve.points)
    nab_x = cov_derivative_along(metric, curve, field, gammas=gammas)
    nab_g = cov_derivative_along(metric, curve, curve.tangents, gammas=gammas)
    nab2_x = cov_derivative_along(metric, curve, nab_x, gammas=gammas)

    f = f[..., None]
    out1 = nab_x / f
    out2 = (nab_g - dlnf * curve.tangents) / f ** 2
    out3 = (nab2_x - dlnf * nab_x) / f ** 2
    return out1, out2, out3


# ---------------------------------------------------------------------------
# Residual harness
# ---------------------------------------------------------------------------

def _sample_point(rng, metric, cf, box):
    lo, hi = box
    for _ in range(1000):
        p = rng.uniform(lo, hi)
        if not metric.contains(p):
            continue
        try:
            factor_values(cf, p)
        except DegenerateMetricError:
            continue
        return p
    raise ValueError("could not sample a valid chart point in the given box")


def _unit_vector(rng, metric, p):
    v = rng.standard_normal(metric.dim)
    nrm = metric.norm(p, v)
    while nrm < 1e-8:
        v = rng.standard_normal(metric.dim)
        nrm = metric.norm(p, v)
    return v / nrm


_LEMMA2_STEPS = (1e-3, 30.0 * 1e-3)
"""The fine and the coarse window step of lemma 2 (see :func:`lemma_residuals`)."""


def _lemma2_residuals(metric, cf, p, w, coeff):
    """Residuals of the reparametrization formulas on short synthetic curves.

    For each window step of :data:`_LEMMA2_STEPS` and each sample, the curve
    is the straight line ``p + t w`` over 17 samples with the field
    ``c0 + t c1 + t^2 c2``; the window is wide enough that the chained
    second s-derivative at the centre only consumes interior-stencil
    values.  All windows are evaluated as one batch.  Returns the
    residuals ``(len(_LEMMA2_STEPS), N)`` and the mask of the windows that
    stay in the chart where the factor is positive (the others are not
    evaluated).
    """
    m = 17
    ts = (np.arange(m) - m // 2) * np.asarray(_LEMMA2_STEPS)[:, None, None]    # (k, 1, m)
    pts = p[:, None, :] + ts[..., None] * w[:, None, :]                  # (k, N, m, n)
    field = (coeff[:, 0, None, :] + ts[..., None] * coeff[:, 1, None, :]
             + ts[..., None] ** 2 * coeff[:, 2, None, :])
    keep = metric.contains(pts).all(axis=-1)
    f = np.full(keep.shape + (m,), np.nan)
    f[keep] = cf(pts[keep])
    keep &= (np.isfinite(f) & (f > 0.0)).all(axis=-1)
    res = np.full(keep.shape, np.nan)
    if not keep.any():
        return res, keep

    tangents = np.broadcast_to(w[:, None, :], pts.shape)
    ts = np.broadcast_to(ts, pts.shape[:-1])
    f, ts, pts, tangents, field = (a[keep] for a in (f, ts, pts, tangents, field))
    got = reparam_cov(metric, f, SampledCurve(ts, pts, tangents), field)

    # Direct side: differentiate with respect to the accumulated s-parameter.
    s = cumulative_simpson(f, ts)
    gammas = christoffel(metric, pts)
    # the tangents dγ/ds are filled in from the curve's own stencil weights
    curve_s = SampledCurve(s, pts, np.empty_like(pts))
    dgds = curve_s.tangents
    dgds[...] = apply_stencil(curve_s.stencil, pts)
    d1 = cov_derivative_along(metric, curve_s, field, gammas=gammas)
    d2 = cov_derivative_along(metric, curve_s, dgds, gammas=gammas)
    d3 = cov_derivative_along(metric, curve_s, d1, gammas=gammas)

    mid = m // 2
    res[keep] = _worst(got[0][:, mid] - d1[:, mid], got[1][:, mid] - d2[:, mid],
                       got[2][:, mid] - d3[:, mid])
    return res, keep


def _worst(*diffs) -> np.ndarray:
    """Largest absolute entry per sample; any non-finite one reads inf."""
    r = np.max(np.abs(np.concatenate(diffs, axis=-1)), axis=-1)
    return np.where(np.isfinite(r), r, np.inf)


def lemma_residuals(metric: ChartMetric, cf: ScalarField,
                    n_samples: int = 100, seed: int = 0, box=None,
                    fault: Optional[str] = None):
    """Compare each transformation formula against direct computation.

    For ``n_samples`` seeded random points and g-unit random vectors the
    formula side (base-metric quantities) is checked against the direct
    side (Christoffel/curvature of the rescaled metric, or s-parameter
    differentiation).  All random numbers are drawn first, sample by
    sample; then each formula and each direct side is evaluated once over
    the batch of samples.  Returns one record per formula:
    ``{"lemma": ..., "samples": ..., "max_residual": ..., "seed": ...}``.

    Lemma 2 is evaluated on windows at a fine and a coarse step, and the
    smaller residual of each sample kept: the fine step controls truncation
    for rapidly varying factors, the coarse one keeps differencing roundoff
    below 1e-12 for near-constant ones.  A sample whose windows both leave
    the chart or the factor's positive region is not counted.

    ``fault="lemma3-sign"`` flips the sign of the direct curvature side; it
    exists so harness failure detection can itself be tested.
    """
    rng = np.random.default_rng(seed)
    if box is None:
        box = (-np.ones(metric.dim), np.ones(metric.dim))
    box = (np.asarray(box[0], dtype=float), np.asarray(box[1], dtype=float))
    n = metric.dim
    p, x, y, z, w = (np.empty((n_samples, n)) for _ in range(5))
    coeff = np.empty((n_samples, 3, n))
    for i in range(n_samples):
        p[i] = _sample_point(rng, metric, cf, box)
        x[i], y[i], z[i], w[i] = (_unit_vector(rng, metric, p[i]) for _ in range(4))
        coeff[i] = rng.uniform(-1.0, 1.0, size=(3, n))
    w *= 0.5

    rescaled = conformal_rescale(metric, cf)
    want1 = np.einsum('...ijk,...j,...k->...i', christoffel(rescaled, p), x, y)
    r1 = _worst(conformal_connection(metric, cf, p, x, y) - want1,
                conformal_second_cov(metric, cf, p, x, y, z) - _second_cov(rescaled, p, x, y, z))

    r2, kept = _lemma2_residuals(metric, cf, p, w, coeff)
    counted = kept.any(axis=0)
    r2 = np.where((kept & ~np.isfinite(r2)).any(axis=0), np.inf,
                  np.where(kept, r2, np.inf).min(axis=0))[counted]

    want3 = np.einsum('...labc,...a,...b,...c->...l', riemann(rescaled, p), x, y, z)
    if fault == "lemma3-sign":
        want3 = -want3
    r3 = _worst(conformal_curvature(metric, cf, p, x, y, z) - want3)

    return [{"lemma": lemma, "samples": len(r), "max_residual": float(np.max(r, initial=0.0)),
             "seed": seed} for lemma, r in (("lemma1", r1), ("lemma2", r2), ("lemma3", r3))]
