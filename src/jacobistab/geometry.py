"""Chart-based Riemannian computations.

Everything works on a single coordinate chart.  Every evaluator follows
one shape-polymorphic contract: it takes chart points ``(..., n)`` and
returns one value per point with the same leading batch shape.  The
metric ``g`` and its inverse are ``(..., n, n)``, first metric partials
``(..., n, n, n)``, scalars ``(...)``, and a domain guard returns a
boolean mask ``(...)``.  A single point ``(n,)`` is the empty-batch case
of the same code.  Every evaluator carries its partials; :func:`fd_metric`
and :func:`fd_field` build central-difference ones for opaque callables,
with all stencil points of a batch evaluated in one call.

Curvature follows the operator convention

    R(X, Y)Z = -nabla_X nabla_Y Z + nabla_Y nabla_X Z + nabla_[X,Y] Z

so the sectional curvature map ``K_X(Y) = R(X, Y)X`` enters deviation
equations with a plus sign, and ``<R(X,Y)X, Y> = +1`` for orthonormal
vectors on the unit sphere.
"""

from __future__ import annotations

import ast
import functools
import math
import re
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ChartDomainError, DegenerateMetricError
from .numdiff import apply_stencil, central_diff, stencil_weights

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
    dg_eval : points -> (..., n, n, n), ``dg[..., k, i, j] = d_k g_ij``.
    d2g_eval : points -> (..., n, n, n, n),
        ``d2g[..., k, l, i, j] = d_k d_l g_ij``.
    domain_guard : points -> boolean mask (...) of valid chart points.
    point : optional :class:`PointSource`, a point evaluator as float
        source: a sequence of n floats ``q`` to ``(g, dg, d2g)``, flat
        row-major float tuples bitwise equal to ``g_eval``, ``dg_eval`` and
        ``d2g_eval`` at ``q``, or None where ``q`` fails ``domain_guard``.
        The RK4 stages inline it (see :func:`_kernel_source` and
        :func:`_curvature_source`).

    Evaluator outputs that broadcast to the contracted shape (a constant
    matrix, say) are broadcast.
    """

    dim: int
    g_eval: Callable[[Point], np.ndarray]
    dg_eval: Callable[[Point], np.ndarray]
    d2g_eval: Callable[[Point], np.ndarray]
    domain_guard: Callable[[Point], np.ndarray] = field(default=_finite)
    name: str = ""
    point: Optional[PointSource] = None

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
        return _shaped(self.dg_eval(p), p.shape[:-1] + (self.dim,) * 3)

    def d2g(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        return _shaped(self.d2g_eval(p), p.shape[:-1] + (self.dim,) * 4)

    def inner(self, p, x, y):
        return _quad(self.g(p), np.asarray(x, dtype=float), np.asarray(y, dtype=float))[()]

    def norm(self, p, x):
        return np.sqrt(np.maximum(self.inner(p, x, x), 0.0))[()]


@dataclass(frozen=True)
class ScalarField:
    """Scalar field with its partials: a potential or a conformal factor.

    ``value(p)`` returns ``(...)`` values, ``partials(p)`` the ``(..., n)``
    array of d_j f, ``second_partials(p)`` the ``(..., n, n)`` array
    d_j d_l f.  :func:`fd_field` builds a field whose partials are central
    differences of ``value``.  The optional :class:`PointSource` ``point``
    takes a sequence of n floats to ``(f, df, d2f)``, a float and tuples of
    n and n * n floats bitwise equal to ``value``, ``partials`` and
    ``second_partials`` there.
    """

    value: Callable[[Point], np.ndarray]
    partials: Callable[[Point], np.ndarray]
    second_partials: Callable[[Point], np.ndarray]
    point: Optional[PointSource] = None

    def __call__(self, p):
        p = np.asarray(p, dtype=float)
        return _shaped(self.value(p), p.shape[:-1])[()]

    def grad_components(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        return _shaped(self.partials(p), p.shape)

    def hess_components(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        return _shaped(self.second_partials(p), p.shape + p.shape[-1:])


def fd_metric(metric: ChartMetric) -> ChartMetric:
    """``metric`` with central-difference partials of its components: first
    partials at ``FD_STEP``, second partials as differences of those at
    ``FD_STEP2``.  The components and the domain are ``metric``'s."""
    def dg(p):
        return central_diff(metric.g, p, FD_STEP)

    def d2g(p):
        return central_diff(dg, p, FD_STEP2)

    return ChartMetric(metric.dim, metric.g_eval, dg, d2g, metric.domain_guard,
                       metric.name + "-fd")


def fd_field(value: Callable[[Point], np.ndarray]) -> ScalarField:
    """The scalar field ``value`` with central-difference partials: first
    partials at ``FD_STEP``, second partials as the symmetrized differences
    of those at ``FD_STEP2``."""
    def partials(p):
        return central_diff(field, p, FD_STEP)

    def second_partials(p):
        d = central_diff(partials, p, FD_STEP2)
        return 0.5 * (d + np.swapaxes(d, -1, -2))

    field = ScalarField(value, partials, second_partials)
    return field


def _sample_fastest(p, *arrays) -> tuple:
    """``arrays`` laid out with their batch axes fastest in memory when
    ``p`` is a batch of points, as they are for a single point.

    The shapes stay the same, and what an einsum forms from them inherits
    the layout, so each einsum along a curve runs over the samples in its
    inner loop rather than over an axis of length n.  The summed axis is
    then not contiguous, and einsum adds its terms in order rather than in
    two lanes of even and odd terms: the same bits for n = 2, and possibly
    not the last bit for a dense n >= 3.  An array whose first batch axis
    already has the smallest stride, one formed from such arrays or one
    broadcast along the batch (a constant metric, say), is left as it is:
    a copy would cost memory and save no time."""
    if np.ndim(p) < 2:
        return arrays
    return tuple(a if a.strides[0] in (0, a.itemsize) else np.asfortranarray(a)
                 for a in arrays)


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
    ginv, dg = _sample_fastest(p, ginv, metric.dg(p))
    return 0.5 * np.einsum('...lk,...ijk->...lij', ginv, _bracket(dg))


def christoffel_partials(metric: ChartMetric, p, ginv=None) -> np.ndarray:
    """Partial derivatives of the Christoffel symbols,
    ``out[..., k, l, i, j] = d_k Γ^l_ij``, by the product rule from the
    metric's first and second partials.
    """
    p = metric.check_point(p)
    ginv, dg, d2g = _sample_fastest(p, metric.g_inv(p) if ginv is None else ginv,
                                    metric.dg(p), metric.d2g(p))
    # Each sum is formed in place, in the order of the expression it stands
    # for, and d2g is dropped once read: this is the peak of a curvature
    # build along a curve.
    dbracket = d2g + np.einsum('...kjim->...kijm', d2g)
    dbracket -= np.einsum('...kmij->...kijm', d2g)
    del d2g
    dginv = -np.einsum('...la,...kab,...bm->...klm', ginv, dg, ginv)
    out = np.einsum('...klm,...ijm->...klij', dginv, _bracket(dg))
    del dginv
    out += np.einsum('...lm,...kijm->...klij', ginv, dbracket)
    out *= 0.5
    return out


def riemann(metric: ChartMetric, p, gamma=None, ginv=None) -> np.ndarray:
    """Riemann curvature components,
    ``R(X, Y)Z = out[..., l, a, b, c] X^a Y^b Z^c``.

    Assembled from the operator definition (see module docstring), hence
    antisymmetric under swapping the first two vector slots.  ``gamma`` and
    ``ginv`` reuse Christoffel symbols and an inverse metric already
    evaluated at the same points.
    """
    gam, = _sample_fastest(p, christoffel(metric, p, ginv) if gamma is None else gamma)
    dgam = christoffel_partials(metric, p, ginv)
    # -A + B as B - A, which is the same float; each sum formed in place
    out = np.einsum('...blac->...labc', dgam) - np.einsum('...albc->...labc', dgam)
    out -= np.einsum('...lam,...mbc->...labc', gam, gam)
    out += np.einsum('...lbm,...mac->...labc', gam, gam)
    return out


def hessian_form(metric: ChartMetric, f: ScalarField, p, gamma=None) -> np.ndarray:
    """Covariant Hessian of a scalar as a symmetric bilinear form.

    ``out[..., j, l] = d_j d_l f - (d_k f) Γ^k_jl``, which agrees with
    ``<nabla_X grad f, Y>`` for all X, Y.  ``gamma`` reuses Christoffel
    symbols already evaluated at the same points.
    """
    gam = christoffel(metric, p) if gamma is None else gamma
    df = f.grad_components(p)
    d2f = f.hess_components(p)
    return d2f - np.einsum('...k,...kjl->...jl', df, gam)


def _connection(gamma, tangents) -> np.ndarray:
    """The connection along a curve, ``C^i_k = Γ^i_jk γ̇^j`` ``(..., n, n)``,
    from its Christoffel symbols and tangents at each sample, so that
    ``Γ(γ̇, V) = C V``."""
    gamma, tangents = _sample_fastest(tangents, gamma, tangents)
    return np.einsum('...ijk,...j->...ik', gamma, tangents)


def _tidal(riem, tangents) -> np.ndarray:
    """The tidal matrix along a curve, ``K^l_b = R^l_abc γ̇^a γ̇^c``
    ``(..., n, n)``, from its curvature and tangents at each sample, so
    that ``R(γ̇, V)γ̇ = K V``."""
    riem, tangents = _sample_fastest(tangents, riem, tangents)
    return np.einsum('...labc,...a,...c->...lb', riem, tangents, tangents)


def _apply(mats, field) -> np.ndarray:
    """The matrices ``(..., n, n)`` of a curve, its connection or tidal
    matrix, applied to the samples ``(..., n)`` of a field."""
    mats, field = _sample_fastest(field, mats, field)
    return np.einsum('...ik,...k->...i', mats, field)


class CurveGeometry:
    """A sampled curve and the metric and potential data along it.

    ``params`` are the parameter values ``(..., N)``, ``points`` and the
    tangents dγ/dparam ``(..., N, n)``; leading axes index a batch of
    curves.  ``sys``, a :class:`~jacobistab.dynamics.MechanicalSystem`,
    supplies the potential terms.  Each field is built on first use, in
    one vectorized pass over all samples, and kept: the 7-point stencil
    weights of the parameter grid (:attr:`stencil`), so every derivative
    along the curve applies one solve; the Christoffel symbols, curvature
    and potential terms, which share one inverse metric; and the tangents
    contracted into two matrices per sample, the connection ``C`` and the
    tidal matrix ``K``, so that each operator applies them to a field as
    one batched n x n product.
    """

    def __init__(self, metric: ChartMetric, params, points, tangents, sys=None):
        self.metric = metric
        self.params = np.asarray(params, dtype=float)
        self.points = np.asarray(points, dtype=float)
        self.tangents = np.asarray(tangents, dtype=float)
        self.sys = sys
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
        :func:`~jacobistab.numdiff.stencil_weights` on ``params``; apply them
        with :func:`~jacobistab.numdiff.apply_stencil`."""
        return stencil_weights(self.params)

    @functools.cached_property
    def g(self):
        return self.metric.g(self.points)

    @functools.cached_property
    def g_inv(self):
        return self.metric.g_inv(self.points)

    @functools.cached_property
    def gamma(self):
        return christoffel(self.metric, self.points, self.g_inv)

    @functools.cached_property
    def riem(self):
        return riemann(self.metric, self.points, gamma=self.gamma, ginv=self.g_inv)

    @functools.cached_property
    def connection(self):
        """``C^i_k = Γ^i_jk γ̇^j`` at every sample: ``Γ(γ̇, V) = C V``."""
        return _connection(self.gamma, self.tangents)

    @functools.cached_property
    def tidal(self):
        """``K^l_b = R^l_abc γ̇^a γ̇^c`` at every sample: ``R(γ̇, V)γ̇ = K V``."""
        return _tidal(self.riem, self.tangents)

    @functools.cached_property
    def grad_U(self):
        return self.sys.grad_potential(self.points, ginv=self.g_inv)

    @functools.cached_property
    def hess_U_raised(self):
        return self.sys.hess_potential_raised(self.points, ginv=self.g_inv,
                                              gamma=self.gamma)

    @functools.cached_property
    def U(self):
        return self.sys.potential(self.points)


def cov_derivative_along(curve: CurveGeometry, field) -> np.ndarray:
    """Covariant derivative of a sampled field along a sampled curve, or
    along each curve of a batch.

    Returns ``dV^i/dparam + C^i_k V^k`` at every sample, with
    ``dV/dparam`` from the curve's 7-point :attr:`~CurveGeometry.stencil`
    and ``C`` its :attr:`~CurveGeometry.connection`.
    """
    field = np.asarray(field, dtype=float)
    if len(curve) < 3:
        raise ValueError("insufficient samples: need at least 3")
    if field.shape != curve.points.shape:
        raise ValueError("field samples must match the curve grid")
    return apply_stencil(curve.stencil, field) + _apply(curve.connection, field)


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

    Checks symmetry (1e-12), positive definiteness, and agreement of the
    first partials with central differences, to 1e-6 relative
    to the largest partial (absolute below 1): the error of the differences
    grows with the size of the metric and its partials.
    """
    p = metric.check_point(p)
    gm = metric.g(p)
    if np.max(np.abs(gm - np.swapaxes(gm, -1, -2))) >= 1e-12:
        raise DegenerateMetricError(f"metric not symmetric at {p.tolist()}")
    if np.min(np.linalg.eigvalsh(gm)) <= 0.0:
        raise DegenerateMetricError(f"degenerate metric at {p.tolist()}: not positive definite")
    fd = central_diff(metric.g, p, FD_STEP)
    dg = metric.dg(p)
    if np.max(np.abs(fd - dg)) > 1e-6 * max(1.0, np.max(np.abs(dg))):
        raise DegenerateMetricError(f"analytic metric partials disagree with differences at {p.tolist()}")


# ---------------------------------------------------------------------------
# Point sources and point kernels
# ---------------------------------------------------------------------------

# Diagonal entries in [_NORMAL, _HUGE] have finite reciprocals, which equal
# LAPACK's inverse of the diagonal matrix bit for bit.
_NORMAL = 2.2250738585072014e-308
_HUGE = 1.7976931348623157e308

# the text of an expression of numeric literals only, and a source-local
# name; a literal never ends where a digit or a point follows, so a text
# that does not match fails without splitting its digit runs every way
_CONSTANT = re.compile(r"(?:\d+(?:\.\d*)?(?:[eE][-+]?\d+)?(?![\d.])|[-+*/()<=> ])+")
_LOCAL = re.compile(r"(?<![\w.])_(?=\w)")


def _fold(text: str) -> str:
    """``text``, or its value when it is an expression of numeric literals
    whose value is finite: computed as the generated code would compute it,
    so folding it changes no bits."""
    if not _CONSTANT.fullmatch(text):
        return text
    try:
        value = eval(text, {"__builtins__": {}})
    except (ArithmeticError, SyntaxError, ValueError):
        return text
    if isinstance(value, bool) or math.isfinite(value):
        return repr(value)
    return text


def _const(value) -> Optional[float]:
    """The number an entry holds when it is a literal (0.0 for a structural
    zero, None), else None."""
    if value is None:
        return 0.0
    if _CONSTANT.fullmatch(value):
        try:
            return float(value)
        except ValueError:          # an expression of literals
            pass
    return None


def _lit(value) -> str:
    """The text of an entry, a structural zero written as ``0.0``."""
    return "0.0" if value is None else value


def _prod(*factors) -> Optional[str]:
    """Source of the product of ``factors``, or None when a factor is zero:
    the product is then ±0 wherever its factors are finite."""
    if any(_const(f) == 0.0 for f in factors):
        return None
    return _fold(" * ".join(factors))


def _sum(terms) -> str:
    """Source of ``0.0 + t0 + t1 + ...``, added from the left as einsum does.

    A term that is None (a product with a zero factor, ±0) is dropped: a sum
    that starts at 0.0 is never -0.0, and adding ±0 to it changes nothing."""
    return _fold(" + ".join(["0.0", *(t for t in terms if t is not None)]))


def _names(prefix: str, n: int, rank: int) -> list:
    """Names of the entries of a rank-``rank`` tensor in row-major order."""
    return [prefix + "_".join(map(str, ix)) for ix in np.ndindex(*(n,) * rank)]


@dataclass(frozen=True)
class PointSource:
    """A point evaluator as float source: Python float arithmetic on the
    coordinates ``q0 ... q{n-1}`` that the RK4 stages inline.

    Its outputs are a value and its first and second partials: ``(g, dg,
    d2g)`` for a metric, ``(U, dU, d2U)`` for a scalar field.  ``lines``
    are the statements that form all but the last output, ``lines2`` those
    that form the second partials after them, so a stage that reads no
    second partials runs ``lines`` alone.  The locals they bind and the
    parameters they read are named with a leading underscore, and a line
    ``OUTSIDE`` marks the point as outside the chart.  ``entries`` holds,
    for each output (a float where its shape in ``shapes`` is ``()``, else
    a flat row-major tuple), the text of every entry: a literal, a name, or
    None for a structural zero, an entry that is 0.0 wherever the
    evaluator is defined.  ``params`` pairs each parameter with its value;
    it is not part of the source, so sources that differ only in their
    parameters (the same system at two energies, say) compare equal and
    share one compiled stage.

    ``fast`` holds the two blocks of the fast form that the RK4 fast stages
    inline, or is empty where they are ``lines`` and ``lines2``: the same
    value lines without the exception handlers and fallbacks, each checked
    block followed by one line ``if not isfinite(0.0 + 0.0 * x + ...):``
    over the block's entries, then ``OUTSIDE``.

    Called on a sequence of n floats, it runs its source (compiled once
    per source) and returns its three outputs, or None outside the chart;
    with ``second=False`` it runs ``lines`` alone and returns the value and
    its first partials.
    """

    dim: int
    shapes: tuple
    lines: tuple
    entries: tuple
    lines2: tuple = ()
    params: tuple = field(default=(), compare=False, repr=False)
    fast: tuple = ()

    def __call__(self, q, second: bool = True):
        return (self._point if second else self._first)(q)

    @functools.cached_property
    def _point(self) -> Callable:
        return _point_factory(self, True)(**self.bind(""))

    @functools.cached_property
    def _first(self) -> Callable:
        return _point_factory(self, False)(**self.bind(""))

    def inline(self, prefix: str, outside: str, fast: bool = False) -> tuple:
        """``lines``, ``lines2`` (with ``fast``, the two blocks of the fast
        form) and the entries with ``prefix`` put before every local and
        parameter name, and each ``OUTSIDE`` line replaced by the statement
        ``outside``."""
        def rename(text):
            return _LOCAL.sub(prefix + "_", text)

        def block(lines):
            return [line.replace("OUTSIDE", outside) if line.strip() == "OUTSIDE"
                    else rename(line) for line in lines]

        lines, lines2 = self.fast if fast and self.fast else (self.lines, self.lines2)
        return block(lines), block(lines2), tuple(
            tuple(None if e is None else rename(e) for e in out) for out in self.entries)

    def bind(self, prefix: str) -> dict:
        """The parameters, named as :meth:`inline` names them."""
        return {_LOCAL.sub(prefix + "_", name): value for name, value in self.params}


def point_source(dim: int, shapes, temps, entries, guard: str = "", fallback=None,
                 check=((), ())) -> PointSource:
    """The :class:`PointSource` of an evaluator given by its locals and its
    ``entries``.  ``temps`` holds two sequences of ``(name, expression)``
    pairs computed in order: the locals of all outputs but the last, and
    those of the last, the second partials.

    Where ``guard``, a condition on the coordinates, is false, the point is
    outside the chart.  With a ``fallback``, a function ``(q, lo, hi)`` of
    the point tuple to the outputs ``lo:hi`` (or None outside the chart),
    an exception in a block of ``temps`` or an entry of that block's
    ``check`` (two sequences too) that is not finite calls the fallback for
    that block's outputs instead, and the block's locals that are entries
    are read from them.  The fast form (see :class:`PointSource`) tests
    the same entries.
    """
    head = [f"if not ({guard}):", "    OUTSIDE"] if guard else []
    split = len(shapes) - 1
    blocks, fast, used = [], [], False
    for block, checked, (lo, hi) in zip(temps, check, ((0, split), (split, len(shapes)))):
        assigns = [f"{name} = {text}" for name, text in block]
        # 0.0 * x is 0.0 where x is finite and NaN where it is not: a test
        # of every entry that no sum can overflow
        total = _sum(f"0.0 * {e}" for e in checked if _const(e) is None)
        if fallback is None or (not assigns and _const(total) is not None):
            blocks.append(assigns)
            fast.append(assigns)
            continue
        used = True
        local, read = {name for name, _ in block}, {}
        for k in range(lo, hi):
            for j, e in enumerate(entries[k]):
                if e in local:
                    read.setdefault(e, f"_out[{k - lo}]" if shapes[k] == ()
                                    else f"_out[{k - lo}][{j}]")
        blocks.append(["try:", *(f"    {a}" for a in assigns), f"    _ok = isfinite({total})",
                       "except (ArithmeticError, ValueError, TypeError):", "    _ok = False",
                       "if not _ok:",
                       f"    _out = _fallback(({', '.join(_names('q', dim, 1))},), {lo}, {hi})",
                       "    if _out is None:", "        OUTSIDE",
                       *(f"    {name} = {value}" for name, value in read.items())])
        fast.append([*assigns, f"if not isfinite({total}):", "    OUTSIDE"])
    params = (("_fallback", fallback),) if used else ()
    return PointSource(dim, tuple(shapes), (*head, *blocks[0]), tuple(map(tuple, entries)),
                       tuple(blocks[1]), params,
                       ((*head, *fast[0]), tuple(fast[1])) if used else ())


@functools.lru_cache(maxsize=None)
def _point_factory(source: PointSource, second: bool) -> Callable:
    """``make(params)``, which returns the point evaluator of ``source``,
    of all its outputs or, without ``second``, of all but the last,
    compiled once per source."""
    lines, lines2, entries = source.inline("", "return None")
    if not second:
        lines2, entries = [], entries[:-1]
    returns = [_lit(out[0]) if shape == () else f"({', '.join(map(_lit, out))},)"
               for shape, out in zip(source.shapes, entries)]
    return _stage_factory(f"point n={source.dim}", ", ".join(source.bind("")), ["q"],
                          [f"{', '.join(_names('q', source.dim, 1))}, = q", *lines, *lines2],
                          returns)


def _det(m) -> str:
    """Source of the determinant of a matrix of names, by cofactors."""
    if len(m) <= 1:
        return m[0][0] if m else "1.0"
    return " + ".join(f"{'-' * (k % 2)}{m[0][k]} * ({_det([row[:k] + row[k + 1:] for row in m[1:]])})"
                      for k in range(len(m)))


def _lapack_inverse(q, g, n: int) -> list:
    """:meth:`ChartMetric.g_inv` of the flat n x n tuple ``g`` at ``q``, flat."""
    return _inverse(np.array(g).reshape(n, n), q).ravel().tolist()


def _inverse_source(n: int, point: str, g, fast: bool = False) -> tuple:
    """Lines that invert the n x n matrix of entries ``g`` (see
    :func:`_kernel_source`), and the entries of the inverse: a name, a
    literal, or None where it is ±0 on every branch.  With ``fast``, a g
    that is not finite raises before LAPACK, whose inverse of it can be
    finite."""
    r = range(n)
    off = [(a, e) for a in r for e in r if a != e]
    diagonal = all(_const(g[a][e]) == 0.0 for a, e in off)
    test = [_fold(f"{_lit(g[a][e])} == 0.0") for a, e in off]
    test += [_fold(f"{_NORMAL!r} <= {_lit(g[a][a])} <= {_HUGE!r}") for a in r]
    test = list(dict.fromkeys(test))        # h·δ has one local on the diagonal
    names = np.array(_names("i", n, 2)).reshape(n, n).tolist()
    # where g is diagonal, every branch gives ±0 (or raises) off the diagonal
    inv = [[None if diagonal and a != e else names[a][e] for e in r] for a in r]
    if all(t == "True" for t in test):          # diagonal wherever g is defined
        lines = []
        for a in r:
            x = _fold(f"1.0 / {_lit(g[a][a])}")
            if _const(x) is None:
                lines.append(f"{names[a][a]} = {x}")
                x = names[a][a]
            inv[a][a] = x
        return lines, inv
    lit = [[_lit(x) for x in row] for row in g]
    inverse = f"({', '.join(_names('i', n, 2))},)"
    flat = ", ".join(x for row in lit for x in row)
    lapack = [f"{inverse} = _lapack_inverse({point}, ({flat},), {n})"]
    entries = [x for row in lit for x in row if _const(x) is None]
    if fast and entries:
        lapack[:0] = [f"if not isfinite({_sum(f'0.0 * {x}' for x in entries)}): "
                      "raise ArithmeticError"]
    if n <= 3:          # closed form; LAPACK where it is singular or not finite
        def minor(a, e):
            return [row[:e] + row[e + 1:] for k, row in enumerate(lit) if k != a]
        ok = "isfinite(det) and det != 0.0"
        general = [f"det = {_fold(_det(lit))}", f"if {ok}:"]
        general += [f"    {names[a][e]} = {'-' * ((a + e) % 2)}({_det(minor(e, a))}) / det"
                    for a in r for e in r]
        general += [f"if not ({ok} and isfinite({' + '.join(_names('i', n, 2))})):",
                    *(f"    {line}" for line in lapack)]
    else:
        general = lapack
    if "False" in test:
        return general, inv
    lines = [f"if {' and '.join(t for t in test if t != 'True')}:"]
    lines += [f"    {names[a][e]} = {f'1.0 / {lit[a][a]}' if a == e else '0.0'}"
              for a in r for e in r if a == e or not diagonal]
    return lines + ["else:", *(f"    {line}" for line in general)], inv


def _kernel_source(n: int, point: str = "q", g=None, d=None, u=None,
                   fast: bool = False) -> tuple:
    """The point kernel of dimension n as source: ``-Γ(v, v) - g^-1 dU``
    at one point.

    Returns the lines that invert g and form Γ, the n expressions of the
    acceleration, and the entries of the inverse (rows of n) and of Γ (a
    dict from ``(l, i, j)`` to the text of ``Γ^l_ij``).  ``g``, ``d`` and
    ``u`` are the flat entries of g, of its partials ``d_k g_ij`` and of
    the partials of U.  Entries are names, literals, or None for a
    structural zero (see :class:`PointSource`); by default
    the locals ``g{i}_{j}``, ``d{k}_{i}_{j}`` and ``u{k}`` (see
    :func:`_names`).  The velocity is read from the locals ``v{k}`` and the
    point from the expression ``point``.

    The source is unrolled for n.  It forms every term of ``_bracket``,
    ``_christoffel``, ``Γ(v, v)`` and ``_mv`` as the batched path does and
    adds them from 0.0 in einsum's order (which decides the bits of
    ``Γ(v, v)``; with a diagonal g every other sum has one nonzero term).
    Structural zeros are folded: a product with a zero factor is dropped
    from these sums, which are led by 0.0, and anywhere else the literal
    0.0 stands in its place and the operation is kept; an expression of
    literals only is replaced by its value.  Each changes no bits where the
    entries and the velocity are finite.

    A diagonal g is inverted by reciprocals, which equal LAPACK's inverse,
    so there the kernel reproduces :meth:`MechanicalSystem.acceleration`
    bit for bit.  Any other g is inverted in closed form up to n = 3, which
    differs from LAPACK's inverse (and its fused sums in ``_mv``) in the
    last bits, and by LAPACK above n = 3 or where g is singular or not
    finite (raising ``DegenerateMetricError`` for the point as
    :meth:`ChartMetric.g_inv` does).

    Where the partials are symmetric in ``(i, j)`` by name, ``Γ^l_ji`` is
    the local of ``Γ^l_ij``.  With ``fast``, the source of the fast stages:
    the LAPACK branch is that of :func:`_inverse_source`'s fast form.
    """
    r = range(n)
    g = _names("g", n, 2) if g is None else g
    d = _names("d", n, 3) if d is None else d
    u = _names("u", n, 1) if u is None else u
    lines, i = _inverse_source(n, point, [[g[a * n + e] for e in r] for a in r], fast)

    def bound(name, text):
        """``text`` as a literal, or bound to the local ``name``."""
        if _const(text) is None:
            lines.append(f"{name} = {text}")
            return name
        return text

    def dk(k, x, y):
        return _lit(d[(k * n + x) * n + y])

    # b_ijk = d_i g_jk + d_j g_ik - d_k g_ij, Γ^l_ij = 0.5 g^lk b_ijk; a b
    # that no nonzero product reads is not formed
    brackets = {f"b{x}_{y}_{z}": _fold(f"{dk(x, y, z)} + {dk(y, x, z)} - {dk(z, x, y)}")
                for x in r for y in r for z in r}
    b = {name: name if _const(text) is None else text for name, text in brackets.items()}
    # where d_k g_ij is d_k g_ji by name, b_jik is b_ijk bit for bit (x + y
    # is y + x), so Γ^l_ji is Γ^l_ij and is formed once
    symmetric = all(dk(z, x, y) == dk(z, y, x) for z in r for x in r for y in r)
    c = {(l, x, y): _fold(f"0.5 * ({_sum(_prod(i[l][k], b[f'b{x}_{y}_{k}']) for k in r)})")
         for l in r for x in r for y in r if not (symmetric and x > y)}
    read = set(re.findall(r"\bb\d+_\d+_\d+", " ".join(c.values())))
    lines += [f"{name} = {text}" for name, text in brackets.items() if name in read]
    c = {key: bound("c{}_{}_{}".format(*key), text) for key, text in c.items()}
    if symmetric:
        c.update({(l, x, y): c[l, y, x] for l in r for x in r for y in r if x > y})
    accel = [_fold(f"-({_sum(_prod(c[l, x, y], f'v{x}', f'v{y}') for x in r for y in r)})"
                   f" - ({_sum(_prod(i[l][k], u[k]) for k in r)})") for l in r]
    return lines, accel, i, c


_NAME = re.compile(r"\b[A-Za-z_]\w*")


def _curvature_source(n: int, i, c, d, d2, u, d2u) -> tuple:
    """The curvature and the raised potential Hessian at one point as
    source, to follow the point kernel of :func:`_kernel_source`.

    ``i`` and ``c`` are the kernel's entries of the inverse metric and of
    Γ; ``d``, ``d2``, ``u`` and ``d2u`` the flat entries of ``d_k g_ij``,
    ``d_k d_l g_ij``, ``d_k U`` and ``d_j d_l U`` (names, literals, or
    None for a structural zero).  Returns the lines, the entries of
    ``R^l_abc`` as a dict keyed ``(l, a, b, c)`` and those of the raised
    Hessian ``A^i_l`` keyed ``(i, l)``: names, literals, or None where the
    entry is ±0 wherever its factors are finite.

    Every term is formed as :func:`christoffel_partials`, :func:`riemann`
    and :func:`hessian_form` form it, each sum added from 0.0, and ``A``
    as ``g^-1 H`` summed from 0.0, which is BLAS's ``matmul`` where a row
    of ``g^-1`` has one nonzero entry.  ``R^l_aac`` is ``x - x`` minus and
    plus the same sum, which is 0.0 where it is finite, so it counts as a
    structural zero.  Structural zeros fold as in :func:`_kernel_source`,
    and a local that no entry of R or A reads is not formed.
    """
    r = range(n)
    defs = []

    def bound(name, text):
        """``text`` bound to the local ``name``, its literal, or None for
        a literal zero."""
        if _const(text) is None:
            defs.append((name, text))
            return name
        return None if _const(text) == 0.0 else text

    def dk(k, x, y):
        return _lit(d[(k * n + x) * n + y])

    def d2k(k, l, x, y):
        return _lit(d2[((k * n + l) * n + x) * n + y])

    # the bracket of _christoffel and its partials, the partials of g^-1
    bracket = {(x, y, m): bound(f"B{x}_{y}_{m}", _fold(
        f"{dk(x, y, m)} + {dk(y, x, m)} - {dk(m, x, y)}")) for x in r for y in r for m in r}
    dbracket = {(k, x, y, m): bound(f"E{k}_{x}_{y}_{m}", _fold(
        f"{d2k(k, x, y, m)} + {d2k(k, y, x, m)} - {d2k(k, m, x, y)}"))
        for k in r for x in r for y in r for m in r}
    dinv = {(k, l, m): bound(f"N{k}_{l}_{m}", _fold(
        f"-({_sum(_prod(i[l][a], _lit(d[(k * n + a) * n + b]), i[b][m]) for a in r for b in r)})"))
        for k in r for l in r for m in r}
    # symmetric in (x, y) bit for bit, as the bracket and its partials are
    dgam = {(k, l, x, y): bound(f"D{k}_{l}_{x}_{y}", _fold(
        f"0.5 * (({_sum(_prod(dinv[k, l, m], bracket[x, y, m]) for m in r)})"
        f" + ({_sum(_prod(i[l][m], dbracket[k, x, y, m]) for m in r)}))"))
        for k in r for l in r for x in r for y in r if x <= y}
    dgam.update({(k, l, y, x): dgam[k, l, x, y] for k, l, x, y in list(dgam)})
    # Γ^l_am Γ^m_be, read by R^l_abe and R^l_bae
    square = {(l, a, b, e): bound(f"X{l}_{a}_{b}_{e}", _sum(_prod(c[l, a, m], c[m, b, e])
                                                            for m in r))
              for l in r for a in r for b in r for e in r}
    riem = {}
    for l, a, b, e in np.ndindex(n, n, n, n):
        riem[l, a, b, e] = None if a == b else bound(f"R{l}_{a}_{b}_{e}", _fold(
            f"{_lit(dgam[b, l, a, e])} - {_lit(dgam[a, l, b, e])}"
            f" - {_lit(square[l, a, b, e])} + {_lit(square[l, b, a, e])}"))
    hess = {(j, l): bound(f"H{j}_{l}", _fold(
        f"{_lit(d2u[j * n + l])} - ({_sum(_prod(u[k], c[k, j, l]) for k in r)})"))
        for j in r for l in r}
    raised = {(a, l): bound(f"A{a}_{l}", _sum(_prod(i[a][j], hess[j, l]) for j in r))
              for a in r for l in r}
    live = set(_NAME.findall(" ".join(x for x in (*riem.values(), *raised.values()) if x)))
    kept = []
    for name, text in reversed(defs):
        if name in live:
            kept.append(f"{name} = {text}")
            live.update(_NAME.findall(text))
    return kept[::-1], riem, raised


_ASSIGN = re.compile(r"([A-Za-z_]\w*) = (.+)")
_TARGETS = re.compile(r"\s*(?!if |else:|raise |try:|except )([^=]+?) = ")
_FINITE_TEST = re.compile(r"if not isfinite\(0\.0((?: \+ 0\.0 \* \w+)+)\):")


def _verdict(node, verdict) -> tuple:
    """Whether the expression ``node`` is free of exceptions where the
    stage's coordinates are finite, and a bound on its magnitude: inf where
    it is finite but unbounded, None where it can be inf or NaN without
    raising.  ``verdict(name)`` gives those of a name."""
    if isinstance(node, ast.Constant):
        return True, abs(node.value)
    if isinstance(node, ast.Name):
        return verdict(node.id)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _verdict(node.operand, verdict)
    if isinstance(node, ast.BinOp):
        (free_a, a), (free_b, b) = _verdict(node.left, verdict), _verdict(node.right, verdict)
        free = free_a and free_b
        if isinstance(node.op, ast.Pow) and isinstance(node.right, ast.Constant):
            # a float power to an integer raises where it overflows
            integer = float(node.right.value).is_integer()
            return False, _HUGE if integer and a is not None else None
        if not isinstance(node.op, (ast.Add, ast.Sub, ast.Mult)):
            return False, None
        if a is None or b is None:
            return free, None
        if isinstance(node.op, ast.Mult):
            if a == 0.0 or b == 0.0:
                return free, 0.0
            if math.inf in (a, b) and min(a, b) <= 1.0:
                return free, math.inf
            bound = a * b
        else:
            bound = a + b
        return free, bound if bound <= _HUGE else None
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        args = [_verdict(a, verdict) for a in node.args]
        free = all(f for f, _ in args)
        finite = all(b is not None for _, b in args)
        if node.func.id in ("sin", "cos"):
            return free and finite, 1.0 if finite else None
        if node.func.id in ("exp", "ln"):    # raise where they overflow or are undefined
            return False, _HUGE if finite else None
    return False, None


def _pruned(lines, returns, coords) -> tuple:
    """The body ``lines`` and ``returns`` of a fast stage with each value
    computed once and no line that nothing needs.

    An assignment of a text bound before keeps its local.  A line that
    binds a local nothing reads goes where it cannot raise.  A source's
    test ``if not isfinite(0.0 + 0.0 * x + ...)`` keeps only its terms x
    that nothing else reads and that can be inf or NaN without raising:
    where the others are not finite, so are the outputs, or a line raises.
    The coordinates ``coords`` are finite wherever a fast stage's step is
    accepted.  Values and their order of operations are unchanged.
    """
    stmts = []
    for line in lines:
        if line.startswith(" "):
            stmts[-1].append(line)
        else:
            stmts.append([line])

    # assignments of a text already bound: the same value
    assigned = {}
    for s in stmts:
        for line in s:
            m = _TARGETS.match(line)
            for name in _NAME.findall(m.group(1)) if m else ():
                assigned[name] = assigned.get(name, 0) + 1
    available, readers, rename, unique = {}, {}, {}, []

    def renamed(text):
        return _NAME.sub(lambda m: rename.get(m.group(), m.group()), text) if rename else text

    for s in stmts:
        s = [renamed(line) for line in s]
        m = _ASSIGN.fullmatch(s[0]) if len(s) == 1 else None
        if m and assigned[m.group(1)] == 1:
            if m.group(2) in available:
                rename[m.group(1)] = available[m.group(2)]
                continue
            available[m.group(2)] = m.group(1)
            for name in set(_NAME.findall(m.group(2))):
                readers.setdefault(name, set()).add(m.group(2))
        else:
            for line in s:
                t = _TARGETS.match(line)
                for name in _NAME.findall(t.group(1)) if t else ():
                    for text in readers.pop(name, ()):
                        available.pop(text, None)
        unique.append(s)
    returns = [renamed(text) for text in returns]

    # what the outputs read, and what must run; then the tests' terms
    defs = {m.group(1): m.group(2) for s in unique if len(s) == 1
            for m in [_ASSIGN.fullmatch(s[0])] if m and assigned[m.group(1)] == 1}
    verdicts = {}

    def verdict(name):
        if name not in verdicts:
            if name in defs:
                verdicts[name] = _verdict(ast.parse(defs[name], mode="eval").body, verdict)
            else:       # a coordinate, or a parameter or a local of a branch
                verdicts[name] = True, math.inf if name in coords else None
        return verdicts[name]

    tests = {id(s): _FINITE_TEST.fullmatch(s[0]) for s in unique}
    seeds = set(_NAME.findall(" ".join(returns)))
    parts = []
    for s in unique:
        m = _ASSIGN.fullmatch(s[0]) if len(s) == 1 else None
        parts.append((m.group(1), set(_NAME.findall(m.group(2)))) if m and m.group(1) in defs
                     else (None, set(_NAME.findall(" ".join(s)))))

    def sweep(needed_extra):
        live, needed, kept = set(seeds), set(seeds) | needed_extra, []
        for s, (name, reads) in zip(reversed(unique), reversed(parts)):
            if tests[id(s)]:
                kept.append(s)
                continue
            if name and name not in live:
                if name not in needed and verdict(name)[0]:
                    continue        # nothing reads it, and it cannot raise
            else:
                live |= reads
            needed |= reads
            kept.append(s)
        return live, kept[::-1]

    live, _ = sweep(set())
    terms = {}
    for s in unique:
        if tests[id(s)]:
            names = re.findall(r"0\.0 \* (\w+)", tests[id(s)].group(1))
            terms[id(s)] = [x for x in names if x not in live and verdict(x)[1] is None]
    _, kept = sweep({x for names in terms.values() for x in names})
    out = []
    for s in kept:
        if tests[id(s)]:
            if not terms[id(s)]:
                continue
            s = [f"if not isfinite({_sum(f'0.0 * {x}' for x in terms[id(s)])}):", *s[1:]]
        out.extend(s)
    return out, returns


def _stage_factory(label: str, params: str, args, lines, returns, **env) -> Callable:
    """Compile generated source into ``make(params)``, which returns
    ``stage(*args)``: it runs ``lines`` and returns the expressions
    ``returns`` as a tuple.  The source sees ``isfinite``, ``sin``,
    ``cos``, ``exp``, ``ln`` and ``pi`` on floats,
    ``ChartDomainError``, ``_lapack_inverse`` and ``env``."""
    source = "\n".join([f"def make({params}):",
                         f"    def stage({', '.join(args)}):",
                         *(f"        {line}" for line in lines),
                         f"        return {', '.join(returns)},",
                         "    return stage"]) + "\n"
    scope = {"isfinite": math.isfinite, "sin": math.sin, "cos": math.cos, "exp": math.exp,
             "ln": math.log, "pi": math.pi, "ChartDomainError": ChartDomainError,
             "_lapack_inverse": _lapack_inverse, **env}
    exec(compile(source, f"<{label}>", "exec"), scope)
    return scope["make"]
