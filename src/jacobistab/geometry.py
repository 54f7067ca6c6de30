"""Chart-based Riemannian computations.

Everything works on a single coordinate chart.  Every evaluator follows
one shape-polymorphic contract: it takes chart points ``(..., n)`` and
returns one value per point with the same leading batch shape.  The
metric ``g`` and its inverse are ``(..., n, n)``, first metric partials
``(..., n, n, n)``, scalars ``(...)``, and a domain guard returns a
boolean mask ``(...)``.  A single point ``(n,)`` is the empty-batch case
of the same code.  When derivative evaluators are missing, central finite
differences are used, with all stencil points evaluated in one call.

Curvature follows the operator convention

    R(X, Y)Z = -nabla_X nabla_Y Z + nabla_Y nabla_X Z + nabla_[X,Y] Z

so the sectional curvature map ``K_X(Y) = R(X, Y)X`` enters deviation
equations with a plus sign, and ``<R(X,Y)X, Y> = +1`` for orthonormal
vectors on the unit sphere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ChartDomainError, DegenerateMetricError
from .numdiff import central_diff, central_diff2, local_derivative

Point = np.ndarray

# Central-difference defaults: first derivatives / second derivatives.
FD_STEP = 1e-5
FD_STEP2 = 1e-4


def _shaped(value, shape) -> np.ndarray:
    """An evaluator's output as a float array of ``shape``; outputs that
    broadcast to it (a constant, say) are broadcast."""
    out = np.asarray(value, dtype=float)
    return out if out.shape == shape else np.broadcast_to(out, shape)


def _first_point(p, bad) -> list:
    """The first point of a batch ``(..., n)`` where the mask ``bad`` holds."""
    return np.asarray(p)[bad][0].tolist()


def _finite(p):
    return np.isfinite(p).all(axis=-1)


# Products at each point of a batch, written with matmul so that a batch
# gives bitwise the same numbers as the per-point ``a @ x`` and ``x @ g @ y``.

def _mv(a, x):
    """``a @ x`` at each point."""
    return (a @ x[..., :, None])[..., 0]


def _dot(x, y):
    """``x @ y`` at each point."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def _quad(g, x, y):
    """``x @ g @ y`` at each point."""
    return (x[..., None, :] @ g @ y[..., :, None])[..., 0, 0]


@dataclass(frozen=True)
class ChartMetric:
    """Riemannian metric on one coordinate chart.

    Parameters
    ----------
    dim : chart dimension n.
    g_eval : points (..., n) -> (..., n, n) symmetric positive-definite
        component matrices.
    dg_eval : optional points -> (..., n, n, n), ``dg[..., k, i, j] = d_k g_ij``.
    d2g_eval : optional points -> (..., n, n, n, n),
        ``d2g[..., k, l, i, j] = d_k d_l g_ij``.
    domain_guard : points -> boolean mask (...) of valid chart points.

    Evaluator outputs that broadcast to the contracted shape (a constant
    matrix, say) are broadcast.
    """

    dim: int
    g_eval: Callable[[Point], np.ndarray]
    dg_eval: Optional[Callable[[Point], np.ndarray]] = None
    d2g_eval: Optional[Callable[[Point], np.ndarray]] = None
    domain_guard: Callable[[Point], np.ndarray] = field(default=_finite)
    name: str = ""

    def contains(self, p) -> np.ndarray:
        """Mask ``(...)`` of the points inside the chart domain."""
        p = np.asarray(p, dtype=float)
        return _finite(p) & np.asarray(self.domain_guard(p), dtype=bool)

    def check_point(self, p) -> Point:
        p = np.asarray(p, dtype=float)
        inside = self.contains(p)
        if not inside.all():
            raise ChartDomainError(
                f"chart domain: point {_first_point(p, ~inside)} outside valid region")
        return p

    def g(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        return _shaped(self.g_eval(p), p.shape[:-1] + (self.dim,) * 2)

    def g_inv(self, p) -> np.ndarray:
        gm = self.g(p)
        try:
            inv = np.linalg.inv(gm)
        except np.linalg.LinAlgError:
            bad = ~(np.linalg.det(gm) != 0.0)   # the exactly singular ones
        else:
            bad = ~np.isfinite(inv).all(axis=(-2, -1))
        if bad.any():
            raise DegenerateMetricError(f"degenerate metric at {_first_point(p, bad)}")
        return inv

    def dg(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        if self.dg_eval is not None:
            return _shaped(self.dg_eval(p), p.shape[:-1] + (self.dim,) * 3)
        return central_diff(self.g, p, FD_STEP)

    def d2g(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        if self.d2g_eval is not None:
            return _shaped(self.d2g_eval(p), p.shape[:-1] + (self.dim,) * 4)
        if self.dg_eval is not None:
            # d_k (d_l g_ij) by differencing the analytic first partials
            return central_diff(self.dg, p, FD_STEP2)
        return central_diff2(self.g, p, FD_STEP2)

    def inner(self, p, x, y):
        return _quad(self.g(p), np.asarray(x, dtype=float), np.asarray(y, dtype=float))[()]

    def norm(self, p, x):
        return np.sqrt(np.maximum(self.inner(p, x, x), 0.0))[()]


@dataclass(frozen=True)
class SampledCurve:
    """Curve samples: parameter values ``(..., N)``, chart points and tangents
    dγ/dparam ``(..., N, n)``; leading axes index a batch of curves."""

    params: np.ndarray
    points: np.ndarray
    tangents: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "params", np.asarray(self.params, dtype=float))
        object.__setattr__(self, "points", np.asarray(self.points, dtype=float))
        object.__setattr__(self, "tangents", np.asarray(self.tangents, dtype=float))
        if self.params.shape[-1] < 2:
            raise ValueError("insufficient samples: a curve needs at least 2 samples")
        if not (self.params.shape == self.points.shape[:-1] == self.tangents.shape[:-1]):
            raise ValueError("curve arrays must have equal length")
        if np.any(np.diff(self.params, axis=-1) <= 0):
            raise ValueError("curve parameter values must be strictly increasing")

    def __len__(self):
        return self.params.shape[-1]


@dataclass(frozen=True)
class ScalarField:
    """Scalar field with optional analytic partials.

    ``value(p)`` returns ``(...)`` values, ``partials(p)`` the ``(..., n)``
    array of d_j f, ``second_partials(p)`` the ``(..., n, n)`` array
    d_j d_l f.  Missing evaluators fall back to central differences of
    ``value``.
    """

    value: Callable[[Point], np.ndarray]
    partials: Optional[Callable[[Point], np.ndarray]] = None
    second_partials: Optional[Callable[[Point], np.ndarray]] = None

    def __call__(self, p):
        p = np.asarray(p, dtype=float)
        return _shaped(self.value(p), p.shape[:-1])[()]

    def grad_components(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        if self.partials is not None:
            return _shaped(self.partials(p), p.shape)
        return central_diff(self, p, FD_STEP)

    def hess_components(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        if self.second_partials is not None:
            return _shaped(self.second_partials(p), p.shape + p.shape[-1:])
        if self.partials is not None:
            d = central_diff(self.grad_components, p, FD_STEP2)
            return 0.5 * (d + np.swapaxes(d, -1, -2))
        return central_diff2(self, p, FD_STEP2)


def as_scalar_field(f) -> ScalarField:
    if isinstance(f, ScalarField):
        return f
    return ScalarField(value=f)


def _bracket(dg):
    """``d_i g_jk + d_j g_ik - d_k g_ij`` as ``out[..., i, j, k]``."""
    return dg + np.einsum('...jik->...ijk', dg) - np.einsum('...kij->...ijk', dg)


def christoffel(metric: ChartMetric, p, ginv=None) -> np.ndarray:
    """Christoffel symbols of the Levi-Civita connection,
    ``out[..., l, i, j] = Γ^l_ij`` at each point of a batch ``(..., n)``.

    Computed as ``Γ^l_ij = 0.5 g^{lk} (d_i g_jk + d_j g_ik - d_k g_ij)``;
    symmetric in the lower pair.  ``ginv`` reuses an inverse metric already
    evaluated at the same points.
    """
    p = metric.check_point(p)
    return _christoffel(metric, p, metric.g_inv(p) if ginv is None else ginv)


def _christoffel(metric: ChartMetric, p, ginv) -> np.ndarray:
    """:func:`christoffel` at points already checked against the domain."""
    return 0.5 * np.einsum('...lk,...ijk->...lij', ginv, _bracket(metric.dg(p)))


def christoffel_partials(metric: ChartMetric, p, ginv=None) -> np.ndarray:
    """Partial derivatives of the Christoffel symbols,
    ``out[..., k, l, i, j] = d_k Γ^l_ij``.

    Uses the analytic product-rule expression when metric partials are
    available, otherwise central differences of :func:`christoffel`.
    """
    p = metric.check_point(p)
    if metric.d2g_eval is None and metric.dg_eval is None:
        return central_diff(lambda q: christoffel(metric, q), p, FD_STEP2)
    if ginv is None:
        ginv = metric.g_inv(p)
    dg = metric.dg(p)
    d2g = metric.d2g(p)
    dbracket = (d2g + np.einsum('...kjim->...kijm', d2g)
                - np.einsum('...kmij->...kijm', d2g))
    dginv = -np.einsum('...la,...kab,...bm->...klm', ginv, dg, ginv)
    return 0.5 * (np.einsum('...klm,...ijm->...klij', dginv, _bracket(dg))
                  + np.einsum('...lm,...kijm->...klij', ginv, dbracket))


def riemann(metric: ChartMetric, p, gamma=None, ginv=None) -> np.ndarray:
    """Riemann curvature components,
    ``R(X, Y)Z = out[..., l, a, b, c] X^a Y^b Z^c``.

    Assembled from the operator definition (see module docstring), hence
    antisymmetric under swapping the first two vector slots.  ``gamma`` and
    ``ginv`` reuse Christoffel symbols and an inverse metric already
    evaluated at the same points.
    """
    gam = christoffel(metric, p, ginv) if gamma is None else gamma
    dgam = christoffel_partials(metric, p, ginv)
    return (-np.einsum('...albc->...labc', dgam)
            + np.einsum('...blac->...labc', dgam)
            - np.einsum('...lam,...mbc->...labc', gam, gam)
            + np.einsum('...lbm,...mac->...labc', gam, gam))


def grad_scalar(metric: ChartMetric, f, p) -> np.ndarray:
    """Riemannian gradient components ``g^{ij} d_j f`` ``(..., n)``."""
    p = metric.check_point(p)
    return _mv(metric.g_inv(p), as_scalar_field(f).grad_components(p))


def hessian_form(metric: ChartMetric, f, p, gamma=None) -> np.ndarray:
    """Covariant Hessian of a scalar as a symmetric bilinear form.

    ``out[..., j, l] = d_j d_l f - (d_k f) Γ^k_jl``, which agrees with
    ``<nabla_X grad f, Y>`` for all X, Y.  ``gamma`` reuses Christoffel
    symbols already evaluated at the same points.
    """
    sf = as_scalar_field(f)
    gam = christoffel(metric, p) if gamma is None else gamma
    df = sf.grad_components(p)
    d2f = sf.hess_components(p)
    return d2f - np.einsum('...k,...kjl->...jl', df, gam)


def cov_derivative_along(metric: ChartMetric, curve: SampledCurve, field,
                         order: int = 2, gammas=None) -> np.ndarray:
    """Covariant derivative of a sampled field along a sampled curve, or
    along each curve of a batch.

    Returns ``dV^i/dparam + Γ^i_jk γ̇^j V^k`` at every sample.  The default
    scheme is second-order central differencing (one-sided at the ends);
    ``order=4`` switches to wider polynomial stencils for use inside
    operator evaluations.
    """
    field = np.asarray(field, dtype=float)
    if len(curve) < 3:
        raise ValueError("insufficient samples: need at least 3")
    if field.shape != curve.points.shape:
        raise ValueError("field samples must match the curve grid")
    if gammas is None:
        gammas = christoffel(metric, curve.points)
    corr = np.einsum('...ijk,...j,...k->...i', gammas, curve.tangents, field)
    return _param_derivative(curve.params, field, order) + corr


def _param_derivative(params, y, order: int = 2) -> np.ndarray:
    """``dy/dparam`` along the sample axis of one grid ``(N,)`` or of each
    row of ``params``: second-order ``np.gradient`` for ``order=2``, 7-point
    :func:`local_derivative` stencils otherwise."""
    params = np.asarray(params, dtype=float)
    if order != 2:
        return local_derivative(params, y, m=1, width=7)
    if params.ndim == 1:
        return np.gradient(y, params, axis=0, edge_order=2)
    # np.gradient takes one grid: the rows that share a grid go together
    grids, which = np.unique(params, axis=0, return_inverse=True)
    out = np.empty(np.shape(y))
    for k, grid in enumerate(grids):
        rows = which.ravel() == k
        out[rows] = np.gradient(y[rows], grid, axis=1, edge_order=2)
    return out


def orthogonal_part(g, u, v) -> np.ndarray:
    """Samples ``(N, n)`` of v minus their g-projection on u, where g holds
    the metric ``(N, n, n)`` at each sample."""
    mu = np.einsum('nij,ni,nj->n', g, u, v) / np.einsum('nij,ni,nj->n', g, u, u)
    return v - mu[:, None] * u


def _second_cov(metric: ChartMetric, p, x, y, z, gamma=None) -> np.ndarray:
    """``nabla_X (nabla_Y Z)`` at points ``(..., n)`` for constant-component
    vectors x, y, z ``(..., n)``: the field ``nabla_Y Z = Γ(Y, Z)`` is
    central-differenced along X.  ``gamma`` reuses Christoffel symbols
    already evaluated at ``p``."""
    gam = christoffel(metric, p) if gamma is None else gamma
    y1, z1 = y[..., None, :], z[..., None, :]     # against the 2n stencil points
    d_yz = central_diff(lambda q: np.einsum('...ikm,...k,...m->...i',
                                            christoffel(metric, q), y1, z1), p, FD_STEP)
    return (np.einsum('...k,...ki->...i', x, d_yz)
            + np.einsum('...ikm,...k,...m->...i', gam, x,
                        np.einsum('...ikm,...k,...m->...i', gam, y, z)))


def validate_metric_at(metric: ChartMetric, p, dg_tol: float = 1e-6) -> None:
    """Raise if the metric violates its basic contracts at p (or a batch).

    Checks symmetry (1e-12), positive definiteness, and agreement of any
    analytic first partials with central differences, to ``dg_tol`` relative
    to the largest partial (absolute below 1): the error of the differences
    grows with the size of the metric and its partials.
    """
    p = metric.check_point(p)
    gm = metric.g(p)
    if np.max(np.abs(gm - np.swapaxes(gm, -1, -2))) >= 1e-12:
        raise DegenerateMetricError(f"metric not symmetric at {p.tolist()}")
    if np.min(np.linalg.eigvalsh(gm)) <= 0.0:
        raise DegenerateMetricError(f"degenerate metric at {p.tolist()}: not positive definite")
    if metric.dg_eval is not None:
        fd = central_diff(metric.g, p, FD_STEP)
        dg = metric.dg(p)
        if np.max(np.abs(fd - dg)) > dg_tol * max(1.0, np.max(np.abs(dg))):
            raise DegenerateMetricError(f"analytic metric partials disagree with differences at {p.tolist()}")


# ---------------------------------------------------------------------------
# Built-in metrics
# ---------------------------------------------------------------------------

def flat_metric(dim: int = 2) -> ChartMetric:
    """Euclidean metric on R^n."""
    eye = np.eye(dim)
    zero3 = np.zeros((dim, dim, dim))
    zero4 = np.zeros((dim, dim, dim, dim))
    return ChartMetric(dim=dim,
                       g_eval=lambda p: eye,
                       dg_eval=lambda p: zero3,
                       d2g_eval=lambda p: zero4,
                       name="flat")


def sphere_metric() -> ChartMetric:
    """Unit 2-sphere in (theta, phi) coordinates, ``g = diag(1, sin^2 theta)``."""

    def g(p):
        out = np.zeros(p.shape[:-1] + (2, 2))
        out[..., 0, 0] = 1.0
        out[..., 1, 1] = np.sin(p[..., 0]) ** 2
        return out

    def dg(p):
        out = np.zeros(p.shape[:-1] + (2, 2, 2))
        out[..., 0, 1, 1] = np.sin(2.0 * p[..., 0])
        return out

    def d2g(p):
        out = np.zeros(p.shape[:-1] + (2, 2, 2, 2))
        out[..., 0, 0, 1, 1] = 2.0 * np.cos(2.0 * p[..., 0])
        return out

    return ChartMetric(dim=2, g_eval=g, dg_eval=dg, d2g_eval=d2g,
                       domain_guard=lambda p: (0.0 < p[..., 0]) & (p[..., 0] < np.pi),
                       name="sphere")


def hyperbolic_metric() -> ChartMetric:
    """Upper half-plane with ``g = diag(1/y^2, 1/y^2)``, curvature -1."""

    def g(p):
        return np.eye(2) / p[..., 1, None, None] ** 2

    def dg(p):
        out = np.zeros(p.shape[:-1] + (2, 2, 2))
        out[..., 1, 0, 0] = -2.0 / p[..., 1] ** 3
        out[..., 1, 1, 1] = -2.0 / p[..., 1] ** 3
        return out

    def d2g(p):
        out = np.zeros(p.shape[:-1] + (2, 2, 2, 2))
        out[..., 1, 1, 0, 0] = 6.0 / p[..., 1] ** 4
        out[..., 1, 1, 1, 1] = 6.0 / p[..., 1] ** 4
        return out

    return ChartMetric(dim=2, g_eval=g, dg_eval=dg, d2g_eval=d2g,
                       domain_guard=lambda p: p[..., 1] > 0.0,
                       name="hyperbolic")


def conformal_flat_metric(sigma: Optional[ScalarField] = None, dim: int = 2) -> ChartMetric:
    """Conformally flat metric ``exp(2 sigma(q)) * identity``.

    The default exponent is ``sigma = q1``, giving ``g = e^{2x} I``.
    """
    eye = np.eye(dim)
    if sigma is None:
        sigma = ScalarField(value=lambda p: p[..., 0], partials=lambda p: eye[0],
                            second_partials=lambda p: np.zeros((dim, dim)))

    def scale(p, k):
        """``exp(2 sigma)`` shaped to broadcast against k trailing axes."""
        return np.exp(2.0 * np.asarray(sigma(p)))[(...,) + (None,) * k]

    def g(p):
        return scale(p, 2) * eye

    def dg(p):
        ds = sigma.grad_components(p)
        return 2.0 * scale(p, 3) * np.einsum('...k,ij->...kij', ds, eye)

    def d2g(p):
        ds = sigma.grad_components(p)
        d2s = sigma.hess_components(p)
        coef = 2.0 * d2s + 4.0 * (ds[..., :, None] * ds[..., None, :])
        return scale(p, 4) * np.einsum('...kl,ij->...klij', coef, eye)

    return ChartMetric(dim=dim, g_eval=g, dg_eval=dg, d2g_eval=d2g,
                       name="conformal-flat")


BUILTIN_METRICS = ("flat", "sphere", "hyperbolic", "conformal-flat")


def metric_by_name(name: str, dim: int = 2) -> ChartMetric:
    if name == "flat":
        return flat_metric(dim)
    if name == "sphere":
        return sphere_metric()
    if name == "hyperbolic":
        return hyperbolic_metric()
    if name == "conformal-flat":
        return conformal_flat_metric(dim=dim)
    raise ValueError(f"unknown metric '{name}' (choose from {BUILTIN_METRICS})")
