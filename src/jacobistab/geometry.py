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

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ChartDomainError, DegenerateMetricError
from .numdiff import apply_stencil, central_diff, central_diff2, stencil_weights

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


def _inverse(gm, p) -> np.ndarray:
    """LAPACK's inverse of the matrices ``gm`` at the points ``p``; raises
    where one is singular or its inverse is not finite."""
    try:
        inv = np.linalg.inv(gm)
    except np.linalg.LinAlgError:
        bad = ~(np.linalg.det(gm) != 0.0)   # the exactly singular ones
    else:
        bad = ~np.isfinite(inv).all(axis=(-2, -1))
    if bad.any():
        raise DegenerateMetricError(f"degenerate metric at {_first_point(p, bad)}")
    return inv


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
    point : optional point evaluator: a sequence of n floats ``q`` to
        ``(g, dg)``, flat row-major float tuples bitwise equal to
        ``g_eval`` and ``dg_eval`` at ``q``, or None where ``q`` fails
        ``domain_guard``.  The RK4 stages use it (see :func:`_kernel_source`).

    Evaluator outputs that broadcast to the contracted shape (a constant
    matrix, say) are broadcast.
    """

    dim: int
    g_eval: Callable[[Point], np.ndarray]
    dg_eval: Optional[Callable[[Point], np.ndarray]] = None
    d2g_eval: Optional[Callable[[Point], np.ndarray]] = None
    domain_guard: Callable[[Point], np.ndarray] = field(default=_finite)
    name: str = ""
    point: Optional[Callable] = None

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
        return _inverse(self.g(p), p)

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
    dγ/dparam ``(..., N, n)``; leading axes index a batch of curves.

    The curve owns the 7-point stencil weights of its parameter grid
    (:attr:`stencil`): every derivative along one curve object applies the
    same weights, solved once.
    """

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

    @functools.cached_property
    def stencil(self) -> np.ndarray:
        """First-derivative weights ``(..., N, min(7, N))`` of
        :func:`~jacobistab.numdiff.stencil_weights` on ``params``, built on
        first use; apply them with :func:`~jacobistab.numdiff.apply_stencil`."""
        return stencil_weights(self.params)


@dataclass(frozen=True)
class ScalarField:
    """Scalar field with optional analytic partials: a potential or a
    conformal factor.

    ``value(p)`` returns ``(...)`` values, ``partials(p)`` the ``(..., n)``
    array of d_j f, ``second_partials(p)`` the ``(..., n, n)`` array
    d_j d_l f.  Missing evaluators fall back to central differences of
    ``value``.  The optional point evaluator ``point`` takes a sequence of
    n floats to ``(f, df)``, a float and a tuple of n floats bitwise equal
    to ``value`` and ``partials`` there.
    """

    value: Callable[[Point], np.ndarray]
    partials: Optional[Callable[[Point], np.ndarray]] = None
    second_partials: Optional[Callable[[Point], np.ndarray]] = None
    point: Optional[Callable] = None

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
                         gammas=None) -> np.ndarray:
    """Covariant derivative of a sampled field along a sampled curve, or
    along each curve of a batch.

    Returns ``dV^i/dparam + Γ^i_jk γ̇^j V^k`` at every sample, with
    ``dV/dparam`` from the curve's 7-point :attr:`~SampledCurve.stencil`.
    ``gammas`` reuses Christoffel symbols already evaluated at the samples.
    """
    field = np.asarray(field, dtype=float)
    if len(curve) < 3:
        raise ValueError("insufficient samples: need at least 3")
    if field.shape != curve.points.shape:
        raise ValueError("field samples must match the curve grid")
    if gammas is None:
        gammas = christoffel(metric, curve.points)
    corr = np.einsum('...ijk,...j,...k->...i', gammas, curve.tangents, field)
    return apply_stencil(curve.stencil, field) + corr


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


def validate_metric_at(metric: ChartMetric, p) -> None:
    """Raise if the metric violates its basic contracts at p (or a batch).

    Checks symmetry (1e-12), positive definiteness, and agreement of any
    analytic first partials with central differences, to 1e-6 relative
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
        if np.max(np.abs(fd - dg)) > 1e-6 * max(1.0, np.max(np.abs(dg))):
            raise DegenerateMetricError(f"analytic metric partials disagree with differences at {p.tolist()}")


# ---------------------------------------------------------------------------
# Point kernels
# ---------------------------------------------------------------------------

# Diagonal entries in [_NORMAL, _HUGE] have finite reciprocals, which equal
# LAPACK's inverse of the diagonal matrix bit for bit.
_NORMAL = 2.2250738585072014e-308
_HUGE = 1.7976931348623157e308


def _names(prefix: str, n: int, rank: int) -> list:
    """Names of the entries of a rank-``rank`` tensor in row-major order."""
    return [prefix + "_".join(map(str, ix)) for ix in np.ndindex(*(n,) * rank)]


def _sum(terms) -> str:
    """Source of ``0.0 + t0 + t1 + ...``, added from the left as einsum does."""
    return " + ".join(["0.0", *terms])


def _det(m) -> str:
    """Source of the determinant of a matrix of names, by cofactors."""
    if len(m) <= 1:
        return m[0][0] if m else "1.0"
    return " + ".join(f"{'-' * (k % 2)}{m[0][k]} * ({_det([row[:k] + row[k + 1:] for row in m[1:]])})"
                      for k in range(len(m)))


def _lapack_inverse(q, g, n: int) -> list:
    """:meth:`ChartMetric.g_inv` of the flat n x n tuple ``g`` at ``q``, flat."""
    return _inverse(np.array(g).reshape(n, n), q).ravel().tolist()


def _kernel_source(n: int) -> tuple:
    """The point kernel of dimension n as source: ``-Γ(v, v) - g^-1 dU``
    at one point.

    Returns the lines that invert g and form Γ, and the n expressions of
    the acceleration.  They read g, its partials, the partials of U and the
    velocity from the locals ``g{i}_{j}``, ``d{k}_{i}_{j}``, ``u{k}`` and
    ``v{k}`` (see :func:`_names`) and the point from the sequence ``q``.

    The source is unrolled for n.  It forms every term of ``_bracket``,
    ``_christoffel``, ``Γ(v, v)`` and ``_mv`` as the batched path does and
    adds them from 0.0 in einsum's order (which decides the bits of
    ``Γ(v, v)``; with a diagonal g every other sum has one nonzero term).
    A diagonal g is inverted by reciprocals, which equal LAPACK's inverse,
    so there the kernel reproduces :meth:`MechanicalSystem.acceleration`
    bit for bit.  Any other g is inverted in closed form up to n = 3, which
    differs from LAPACK's inverse (and its fused sums in ``_mv``) in the
    last bits, and by LAPACK above n = 3 or where g is singular or not
    finite (raising ``DegenerateMetricError`` for ``q`` as
    :meth:`ChartMetric.g_inv` does).
    """
    r = range(n)
    g, d, b, c, i = (np.array(_names(x, n, k)).reshape((n,) * k).tolist()
                     for x, k in (("g", 2), ("d", 3), ("b", 3), ("c", 3), ("i", 2)))
    inverse = f"({', '.join(_names('i', n, 2))},)"
    lapack = f"{inverse} = _lapack_inverse(q, ({', '.join(_names('g', n, 2))},), {n})"
    diagonal = " and ".join([f"{g[a][e]} == 0.0" for a in r for e in r if a != e]
                            + [f"_NORMAL <= {g[a][a]} <= _HUGE" for a in r])
    lines = [f"if {diagonal}:",
             f"    {inverse} = "
             f"{', '.join(f'1.0 / {g[a][a]}' if a == e else '0.0' for a in r for e in r)},",
             "else:"]
    if n <= 3:          # closed form; LAPACK where it is singular or not finite
        def minor(a, e):
            return [row[:e] + row[e + 1:] for k, row in enumerate(g) if k != a]
        ok = "isfinite(det) and det != 0.0"
        lines += [f"    det = {_det(g)}", f"    if {ok}:"]
        lines += [f"        {i[a][e]} = {'-' * ((a + e) % 2)}({_det(minor(e, a))}) / det"
                  for a in r for e in r]
        lines += [f"    if not ({ok} and isfinite({' + '.join(_names('i', n, 2))})):",
                  f"        {lapack}"]
    else:
        lines += [f"    {lapack}"]
    # b_ijk = d_i g_jk + d_j g_ik - d_k g_ij, Γ^l_ij = 0.5 g^lk b_ijk
    lines += [f"{b[x][y][z]} = {d[x][y][z]} + {d[y][x][z]} - {d[z][x][y]}"
              for x in r for y in r for z in r]
    lines += [f"{c[l][x][y]} = 0.5 * ({_sum([f'{i[l][k]} * {b[x][y][k]}' for k in r])})"
              for l in r for x in r for y in r]
    accel = [f"-({_sum([f'{c[l][x][y]} * v{x} * v{y}' for x in r for y in r])})"
             f" - ({_sum([f'{i[l][k]} * u{k}' for k in r])})" for l in r]
    return lines, accel


def _point_source(n: int) -> list:
    """Lines that evaluate ``metric_point`` and ``potential_point`` at the
    point ``q = (q0, ...)``.

    They raise ``ChartDomainError`` where :meth:`ChartMetric.check_point`
    would: a coordinate not finite, or a metric point evaluator that
    returns None.  They bind the entries of g and of its partials to the
    names :func:`_names` makes from ``g`` and ``d``, U to ``U`` and d_k U
    to ``u{k}``, the locals :func:`_kernel_source` reads.
    """
    q = _names("q", n, 1)
    return [f"q = ({', '.join(q)},)",
            f"gd = metric_point(q) if {' and '.join(f'isfinite({x})' for x in q)} else None",
            "if gd is None:",
            '    raise ChartDomainError(f"chart domain: point {list(q)} outside valid region")',
            f"({', '.join(_names('g', n, 2))},), ({', '.join(_names('d', n, 3))},) = gd",
            f"U, ({', '.join(_names('u', n, 1))},) = potential_point(q)"]


def _stage_factory(label: str, params: str, args, lines, returns, **env) -> Callable:
    """Compile generated source into ``make(params)``, which returns
    ``stage(*args)``: it runs ``lines`` and returns the expressions
    ``returns`` as a tuple.  The source sees ``isfinite``,
    ``ChartDomainError``, the names the lines of :func:`_kernel_source`
    use and ``env``."""
    source = "\n".join([f"def make({params}):",
                         f"    def stage({', '.join(args)}):",
                         *(f"        {line}" for line in lines),
                         f"        return {', '.join(returns)},",
                         "    return stage"]) + "\n"
    scope = {"isfinite": math.isfinite, "ChartDomainError": ChartDomainError,
             "_lapack_inverse": _lapack_inverse, "_NORMAL": _NORMAL, "_HUGE": _HUGE, **env}
    exec(compile(source, f"<{label}>", "exec"), scope)
    return scope["make"]
