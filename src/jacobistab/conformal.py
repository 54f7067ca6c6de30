"""Conformal rescaling and curve reparametrization formulas.

Implements the closed-form transformation rules for the Levi-Civita
connection, covariant derivatives along reparametrized curves, and the
curvature tensor under ``g -> f * g``, together with a residual harness
that checks each formula against direct computation in the rescaled
metric.  All inner products and gradients below are taken with respect
to the base metric ``g``; the vector ``F`` is always ``grad ln f``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import geometry as geo
from .errors import DegenerateMetricError
from .geometry import (ChartMetric, SampledCurve, TangentVector, VectorField,
                       _first_point, _mv, _shaped, christoffel,
                       cov_derivative_along, field_cov_derivative, riemann)
from .numdiff import central_diff, central_diff2, cumulative_simpson, local_derivative


@dataclass(frozen=True)
class ConformalFactor:
    """Positive scalar factor with optional analytic derivative data.

    All evaluators take points ``(..., n)``: ``f(p)`` returns ``(...)``
    values, ``df(p)`` the ``(..., n)`` partials of f, ``d2f(p)`` the
    ``(..., n, n)`` second partials.  ``F_eval``, when given, overrides the
    derived components ``(..., n)`` of ``F = grad ln f``.
    """

    f: Callable[[np.ndarray], float]
    df: Optional[Callable[[np.ndarray], np.ndarray]] = None
    d2f: Optional[Callable[[np.ndarray], np.ndarray]] = None
    F_eval: Optional[Callable[[np.ndarray], np.ndarray]] = None
    fd_step: float = geo.FD_STEP
    fd_step2: float = geo.FD_STEP2

    def _raw(self, p) -> np.ndarray:
        return _shaped(self.f(p), p.shape[:-1])

    def value(self, p) -> np.ndarray:
        """Factor values ``(...)``; raises unless every one is finite and positive."""
        p = np.asarray(p, dtype=float)
        v = self._raw(p)
        bad = ~(np.isfinite(v) & (v > 0.0))
        if bad.any():
            raise DegenerateMetricError(f"conformal factor not positive at {_first_point(p, bad)}")
        return v

    def partials(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        if self.df is not None:
            return _shaped(self.df(p), p.shape)
        return central_diff(self._raw, p, self.fd_step)

    def second_partials(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        if self.d2f is not None:
            return _shaped(self.d2f(p), p.shape + p.shape[-1:])
        if self.df is not None:
            return central_diff(self.partials, p, self.fd_step2)
        return central_diff2(self._raw, p, self.fd_step2)

    def log_partials(self, p) -> np.ndarray:
        return self.partials(p) / self.value(p)[..., None]

    def log_second_partials(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        v = self.value(p)[..., None, None]
        dv = self.partials(p)
        return self.second_partials(p) / v - (dv[..., :, None] * dv[..., None, :]) / v**2

    def F_components(self, metric: ChartMetric, p) -> np.ndarray:
        """Components of ``F = grad ln f`` with respect to the base metric."""
        p = np.asarray(p, dtype=float)
        if self.F_eval is not None:
            return _shaped(self.F_eval(p), p.shape)
        return _mv(metric.g_inv(p), self.log_partials(p))

    def F_field(self, metric: ChartMetric) -> VectorField:
        """``F`` as a vector field, with an analytic Jacobian when available."""
        analytic = (self.F_eval is None and self.df is not None
                    and metric.dg_eval is not None)

        def comp(q):
            return self.F_components(metric, q)

        if not analytic:
            return VectorField(comp=comp, fd_step=self.fd_step)

        def jac(q):
            q = np.asarray(q, dtype=float)
            ginv = metric.g_inv(q)
            dg = metric.dg(q)
            dginv = -np.einsum('...la,...kab,...bm->...klm', ginv, dg, ginv)
            lp = self.log_partials(q)
            l2p = self.log_second_partials(q)
            # out[..., k, i] = d_k F^i
            return (np.einsum('...kim,...m->...ki', dginv, lp)
                    + np.einsum('...im,...km->...ki', ginv, l2p))

        return VectorField(comp=comp, jac=jac, fd_step=self.fd_step)


def constant_factor(value: float = 1.0) -> ConformalFactor:
    return ConformalFactor(f=lambda p: value, df=lambda p: 0.0, d2f=lambda p: 0.0)


def conformal_rescale(metric: ChartMetric, cf: ConformalFactor,
                      extra_guard: Optional[Callable] = None,
                      name: str = "") -> ChartMetric:
    """Chart metric with components ``f * g_ij``.

    Analytic derivative evaluators are assembled by the product rule when
    both the base metric and the factor carry them; otherwise the rescaled
    metric falls back to finite differences of its own components.
    """

    def factor(p, k):
        """Factor values shaped to broadcast against k trailing axes."""
        return cf.value(p)[(...,) + (None,) * k]

    def g_eval(p):
        return factor(p, 2) * metric.g(p)

    def guard(p):
        v = cf._raw(p)
        ok = metric.contains(p) & np.isfinite(v) & (v > 0.0)
        if extra_guard is not None:
            ok = ok & extra_guard(p)
        return ok

    dg_eval = None
    d2g_eval = None
    if metric.dg_eval is not None and cf.df is not None:
        def dg_eval(p):
            return (np.einsum('...k,...ij->...kij', cf.partials(p), metric.g(p))
                    + factor(p, 3) * metric.dg(p))

        if metric.d2g_eval is not None and cf.d2f is not None:
            def d2g_eval(p):
                dfv = cf.partials(p)
                dgv = metric.dg(p)
                return (np.einsum('...kl,...ij->...klij', cf.second_partials(p), metric.g(p))
                        + np.einsum('...k,...lij->...klij', dfv, dgv)
                        + np.einsum('...l,...kij->...klij', dfv, dgv)
                        + factor(p, 4) * metric.d2g(p))

    return ChartMetric(dim=metric.dim, g_eval=g_eval, dg_eval=dg_eval,
                       d2g_eval=d2g_eval, domain_guard=guard,
                       fd_step=metric.fd_step, fd_step2=metric.fd_step2,
                       name=name or (metric.name + "*factor"))


def _check_base(x: TangentVector, y: TangentVector):
    if not np.allclose(x.base_point, y.base_point, atol=1e-12, rtol=0.0):
        raise ValueError("base point mismatch")
    return x.base_point


def conformal_connection(metric: ChartMetric, cf: ConformalFactor,
                         x: TangentVector, y: TangentVector) -> TangentVector:
    """Rescaled-metric covariant derivative of constant-component vectors.

    Returns ``nabla~_X Y = nabla_X Y + (1/2)<F,Y>X + (1/2)<F,X>Y - (1/2)<X,Y>F``
    with every product taken in the base metric.
    """
    p = _check_base(x, y)
    cf.value(p)
    gam = christoffel(metric, p)
    gm = metric.g(p)
    fv = cf.F_components(metric, p)
    xv, yv = x.components, y.components
    nab = np.einsum('ijk,j,k->i', gam, xv, yv)
    out = (nab + 0.5 * (fv @ gm @ yv) * xv + 0.5 * (fv @ gm @ xv) * yv
           - 0.5 * (xv @ gm @ yv) * fv)
    return TangentVector(p, out)


def _as_field(v) -> VectorField:
    if isinstance(v, VectorField):
        return v
    if isinstance(v, TangentVector):
        return VectorField.constant(v.components)
    return VectorField.constant(np.asarray(v, dtype=float))


def conformal_second_cov(metric: ChartMetric, cf: ConformalFactor,
                         x, y, z, p) -> np.ndarray:
    """Second covariant derivative in the rescaled metric from base-metric data.

    Evaluates the full transformation of ``nabla~_X nabla~_Y Z`` at ``p``
    for vector fields X, Y, Z (constant vectors are promoted to
    constant-component fields).
    """
    p = np.asarray(p, dtype=float)
    cf.value(p)
    X, Y, Z = _as_field(x), _as_field(y), _as_field(z)
    gm = metric.g(p)

    def dot(a, b):
        return float(a @ gm @ b)

    xv, yv, zv = X(p), Y(p), Z(p)
    ff = cf.F_field(metric)
    fv = ff(p)

    nab_xy = field_cov_derivative(metric, X, Y, p)
    nab_xz = field_cov_derivative(metric, X, Z, p)
    nab_yz = field_cov_derivative(metric, Y, Z, p)
    nab_xf = field_cov_derivative(metric, X, ff, p)
    nab_x_nab_yz = geo.field_second_cov(metric, X, Y, Z, p)

    out = (nab_x_nab_yz
           + 0.5 * dot(fv, zv) * nab_xy
           + 0.5 * dot(fv, yv) * nab_xz
           - 0.5 * dot(yv, zv) * nab_xf
           + 0.5 * dot(fv, xv) * nab_yz
           + (0.5 * dot(fv, nab_yz) + 0.5 * dot(fv, zv) * dot(fv, yv)
              - 0.25 * dot(yv, zv) * dot(fv, fv)) * xv
           + (0.5 * dot(nab_xf, zv) + 0.5 * dot(fv, nab_xz)
              + 0.25 * dot(fv, zv) * dot(fv, xv)) * yv
           + (0.5 * dot(nab_xf, yv) + 0.5 * dot(fv, nab_xy)
              + 0.25 * dot(fv, xv) * dot(fv, yv)) * zv
           + (-0.5 * dot(nab_xy, zv) - 0.5 * dot(yv, nab_xz)
              - 0.5 * dot(xv, nab_yz) - 0.25 * dot(fv, zv) * dot(xv, yv)
              - 0.25 * dot(fv, yv) * dot(xv, zv)) * fv)
    return out


def conformal_curvature(metric: ChartMetric, cf: ConformalFactor,
                        x: TangentVector, y: TangentVector,
                        z: TangentVector) -> TangentVector:
    """Curvature of the rescaled metric expressed through base-metric data."""
    p = _check_base(x, y)
    p2 = _check_base(y, z)
    cf.value(p)
    gm = metric.g(p)

    def dot(a, b):
        return float(a @ gm @ b)

    xv, yv, zv = x.components, y.components, z.components
    ff = cf.F_field(metric)
    fv = ff(p)
    nab_xf = field_cov_derivative(metric, x, ff, p)
    nab_yf = field_cov_derivative(metric, y, ff, p)
    r = riemann(metric, p)
    base = np.einsum('labc,a,b,c->l', r, xv, yv, zv)

    out = (base
           - 0.5 * dot(xv, zv) * nab_yf
           + 0.5 * dot(yv, zv) * nab_xf
           + (0.5 * dot(nab_yf, zv) - 0.25 * dot(fv, zv) * dot(fv, yv)
              + 0.25 * dot(yv, zv) * dot(fv, fv)) * xv
           + (-0.5 * dot(nab_xf, zv) + 0.25 * dot(fv, zv) * dot(fv, xv)
              - 0.25 * dot(xv, zv) * dot(fv, fv)) * yv
           + (0.5 * dot(nab_yf, xv) - 0.5 * dot(nab_xf, yv)) * zv
           + (0.25 * dot(fv, yv) * dot(xv, zv)
              - 0.25 * dot(fv, xv) * dot(yv, zv)) * fv)
    return TangentVector(p, out)


def reparam_cov(metric: ChartMetric, f_along_curve, curve: SampledCurve,
                field, order: int = 2):
    """Covariant derivatives after the reparametrization ``ds = f dt``.

    Returns the triple ``(nabla_{γ'}X, nabla_{γ'}γ', nabla_{γ'}nabla_{γ'}X)``
    sampled on the curve's parameter grid, computed from t-parameter
    derivatives:

        nabla_{γ'}X  = (1/f)   nabla_{γ̇}X
        nabla_{γ'}γ' = (1/f^2)(nabla_{γ̇}γ̇ - <grad ln f, γ̇> γ̇)
        nabla_{γ'}nabla_{γ'}X = (1/f^2)(nabla_{γ̇}nabla_{γ̇}X - <grad ln f, γ̇> nabla_{γ̇}X)

    ``<grad ln f, γ̇>`` is the chain-rule derivative d(ln|f|)/dt of the
    sampled factor.
    """
    f = np.asarray(f_along_curve, dtype=float)
    field = np.asarray(field, dtype=float)
    if f.shape[0] != len(curve):
        raise ValueError("factor samples must match the curve grid")
    if np.min(np.abs(f)) < 1e-300 or not np.all(np.isfinite(f)):
        raise DegenerateMetricError("degenerate reparametrization: factor vanishes on the curve")

    if order == 2:
        dlnf = np.gradient(np.log(np.abs(f)), curve.params, edge_order=2)
    else:
        dlnf = local_derivative(curve.params, np.log(np.abs(f)), m=1, width=7)

    gammas = christoffel(metric, curve.points)
    nab_x = cov_derivative_along(metric, curve, field, order=order, gammas=gammas)
    nab_g = cov_derivative_along(metric, curve, curve.tangents, order=order, gammas=gammas)
    nab2_x = cov_derivative_along(metric, curve, nab_x, order=order, gammas=gammas)

    out1 = nab_x / f[:, None]
    out2 = (nab_g - dlnf[:, None] * curve.tangents) / f[:, None] ** 2
    out3 = (nab2_x - dlnf[:, None] * nab_x) / f[:, None] ** 2
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
            cf.value(p)
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


def _lemma2_sample(metric, cf, rng, p, step, order):
    """Residual of the reparametrization formulas on a short synthetic curve.

    The window is wide enough (17 samples) that the chained second
    s-derivative at the centre only consumes interior-stencil values.
    The sample is evaluated at a fine and a coarse window step and the
    smaller residual kept: the fine step controls truncation for rapidly
    varying factors, the coarse one keeps differencing roundoff below
    1e-12 for near-constant ones.
    """
    w = 0.5 * _unit_vector(rng, metric, p)
    coeff = rng.uniform(-1.0, 1.0, size=(3, metric.dim))
    fine = _lemma2_window(metric, cf, p, w, coeff, step, order)
    coarse = _lemma2_window(metric, cf, p, w, coeff, 30.0 * step, order)
    if fine is None:
        return coarse
    if coarse is None:
        return fine
    return min(fine, coarse)


def _lemma2_window(metric, cf, p, w, coeff, step, order):
    n = metric.dim
    m = 17
    ts = (np.arange(m) - m // 2) * step
    pts = p[None, :] + ts[:, None] * w[None, :]
    if not np.all(metric.contains(pts)):
        return None
    try:
        f = cf.value(pts)
    except DegenerateMetricError:
        return None
    curve = SampledCurve(ts, pts, np.tile(w, (m, 1)))
    field = coeff[0][None, :] + ts[:, None] * coeff[1][None, :] + ts[:, None] ** 2 * coeff[2][None, :]

    got = reparam_cov(metric, f, curve, field, order=order)

    # Direct side: differentiate with respect to the accumulated s-parameter.
    s = cumulative_simpson(f, ts)
    gammas = christoffel(metric, pts)
    dgds = local_derivative(s, pts, m=1, width=7)
    curve_s = SampledCurve(s, pts, dgds)
    d1 = cov_derivative_along(metric, curve_s, field, order=4, gammas=gammas)
    d2 = cov_derivative_along(metric, curve_s, dgds, order=4, gammas=gammas)
    d3 = cov_derivative_along(metric, curve_s, d1, order=4, gammas=gammas)

    mid = m // 2
    return max(float(np.max(np.abs(got[0][mid] - d1[mid]))),
               float(np.max(np.abs(got[1][mid] - d2[mid]))),
               float(np.max(np.abs(got[2][mid] - d3[mid]))))


def lemma_residuals(metric: ChartMetric, cf: ConformalFactor,
                    n_samples: int = 100, seed: int = 0, box=None,
                    curve_step: float = 1e-3, fault: Optional[str] = None):
    """Compare each transformation formula against direct computation.

    For ``n_samples`` seeded random points and g-unit random vectors the
    formula side (base-metric quantities) is checked against the direct
    side (Christoffel/curvature of the rescaled metric, or s-parameter
    differentiation).  Returns one record per formula:
    ``{"lemma": ..., "samples": ..., "max_residual": ..., "seed": ...}``.

    ``fault="lemma3-sign"`` flips the sign of the direct curvature side; it
    exists so harness failure detection can itself be tested.
    """
    rng = np.random.default_rng(seed)
    if box is None:
        box = (-np.ones(metric.dim), np.ones(metric.dim))
    box = (np.asarray(box[0], dtype=float), np.asarray(box[1], dtype=float))
    rescaled = conformal_rescale(metric, cf)
    fd_only = metric.dg_eval is None or cf.df is None
    order = 2 if fd_only else 4

    res = {"lemma1": 0.0, "lemma2": 0.0, "lemma3": 0.0}
    done2 = 0
    for _ in range(n_samples):
        p = _sample_point(rng, metric, cf, box)
        xv = _unit_vector(rng, metric, p)
        yv = _unit_vector(rng, metric, p)
        zv = _unit_vector(rng, metric, p)
        x, y, z = TangentVector(p, xv), TangentVector(p, yv), TangentVector(p, zv)

        got1 = conformal_connection(metric, cf, x, y).components
        want1 = np.einsum('ijk,j,k->i', christoffel(rescaled, p), xv, yv)
        got1b = conformal_second_cov(metric, cf, x, y, z, p)
        want1b = geo.field_second_cov(rescaled, _as_field(x), _as_field(y), _as_field(z), p)
        r1 = max(float(np.max(np.abs(got1 - want1))), float(np.max(np.abs(got1b - want1b))))
        if not np.isfinite(r1):
            r1 = np.inf
        res["lemma1"] = max(res["lemma1"], r1)

        r2 = _lemma2_sample(metric, cf, rng, p, curve_step, order)
        if r2 is not None:
            done2 += 1
            if not np.isfinite(r2):
                r2 = np.inf
            res["lemma2"] = max(res["lemma2"], r2)

        got3 = conformal_curvature(metric, cf, x, y, z).components
        want3 = np.einsum('labc,a,b,c->l', riemann(rescaled, p), xv, yv, zv)
        if fault == "lemma3-sign":
            want3 = -want3
        r3 = float(np.max(np.abs(got3 - want3)))
        if not np.isfinite(r3):
            r3 = np.inf
        res["lemma3"] = max(res["lemma3"], r3)

    return [
        {"lemma": "lemma1", "samples": n_samples, "max_residual": res["lemma1"], "seed": seed},
        {"lemma": "lemma2", "samples": done2, "max_residual": res["lemma2"], "seed": seed},
        {"lemma": "lemma3", "samples": n_samples, "max_residual": res["lemma3"], "seed": seed},
    ]
