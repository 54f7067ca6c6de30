"""Built-in metrics and mechanical systems with known analytic behaviour.

A built-in system is a preset: a built-in metric, a potential and
reference initial data.  It is built by :func:`mechanical_system`, as a
``system = custom`` config is, so ``system = sphere-cos`` and a custom
config with ``metric = sphere`` and ``potential = cos(q1)`` give the same
system.  Each setup fixes initial data, an energy, and a characteristic
time span on which the identity checks run.  Curvatures and potentials
are simple enough that every fixture value in the tests has a closed form
or an independent numerical oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conformal import conformal_rescale
from .dynamics import MechanicalSystem
from .expressions import metric_from_exprs, scalar_field_from_expr
from .geometry import ChartMetric, ScalarField, _dot


# ---------------------------------------------------------------------------
# Built-in metrics
# ---------------------------------------------------------------------------

# The sphere and the hyperbolic metric stay hand-written: compiled from
# expressions (the sphere's partial as 2 sin θ cos θ, not sin 2θ) they
# differ in the last bits, which moves recorded residuals.

def flat_metric(dim: int = 2) -> ChartMetric:
    """Euclidean metric on R^n."""
    return metric_from_exprs({}, dim, name="flat")


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

    def point(q):
        # at one point numpy's sine is a float64 scalar, which it squares
        # with C pow as Python does (an array it squares as x*x)
        theta = q[0]
        if not 0.0 < theta < math.pi:
            return None
        return ((1.0, 0.0, 0.0, math.sin(theta) ** 2),
                (0.0, 0.0, 0.0, math.sin(2.0 * theta), 0.0, 0.0, 0.0, 0.0))

    return ChartMetric(dim=2, g_eval=g, dg_eval=dg, d2g_eval=d2g,
                       domain_guard=lambda p: (0.0 < p[..., 0]) & (p[..., 0] < np.pi),
                       name="sphere", point=point)


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

    def point(q):
        # numpy's float power is not C pow: the cube goes through numpy
        y = q[1]
        if not y > 0.0:
            return None
        a = 1.0 / (y * y)
        d = -2.0 / float(np.power(y, 3))
        return (a, 0.0, 0.0, a), (0.0, 0.0, 0.0, 0.0, d, 0.0, 0.0, d)

    return ChartMetric(dim=2, g_eval=g, dg_eval=dg, d2g_eval=d2g,
                       domain_guard=lambda p: p[..., 1] > 0.0,
                       name="hyperbolic", point=point)


def conformal_flat_metric(dim: int = 2) -> ChartMetric:
    """Conformally flat metric ``g = e^{2 q1} * identity``."""
    return conformal_rescale(flat_metric(dim), scalar_field_from_expr("exp(2*q1)", dim),
                             name="conformal-flat")


BUILTIN_METRICS = ("flat", "sphere", "hyperbolic", "conformal-flat")

# boxes of chart points used when sampling random test data on a metric
SAMPLE_BOXES = {
    "flat": ((-1.0, -1.0), (1.0, 1.0)),
    "sphere": ((0.7, -1.0), (2.4, 1.0)),
    "hyperbolic": ((-1.0, 0.6), (1.0, 2.0)),
}


def metric_by_name(name: str, dim: int = 2) -> ChartMetric:
    """The built-in metric ``name`` in dimension ``dim``; a ValueError for an
    unknown name or a dimension the metric does not have."""
    if name in ("sphere", "hyperbolic") and dim != 2:
        raise ValueError(f"the {name} metric is 2-dimensional, not {dim}-dimensional")
    if name == "flat":
        return flat_metric(dim)
    if name == "sphere":
        return sphere_metric()
    if name == "hyperbolic":
        return hyperbolic_metric()
    if name == "conformal-flat":
        return conformal_flat_metric(dim)
    raise ValueError(f"unknown metric '{name}' (choose from {BUILTIN_METRICS})")


# ---------------------------------------------------------------------------
# Built-in systems
# ---------------------------------------------------------------------------

def mechanical_system(metric: ChartMetric, potential, name: str = "custom") -> MechanicalSystem:
    """The system of ``metric`` and a potential: an expression string over
    ``q1..qn``, compiled with exact partials, or a :class:`ScalarField`."""
    if isinstance(potential, str):
        potential = scalar_field_from_expr(potential, metric.dim)
    return MechanicalSystem(metric, potential, name=name)


@dataclass(frozen=True)
class SystemSetup:
    """A mechanical system plus reference initial conditions for experiments."""

    name: str
    system: MechanicalSystem
    energy: float
    q0: np.ndarray
    v0: np.ndarray
    t_span: tuple
    sample_box: tuple       # SAMPLE_BOXES of the metric
    step: float = 1e-3


def _fma(a: float, b: float, c: float) -> float:
    """``a*b + c`` on floats rounded once, as the BLAS kernels behind
    :func:`_dot` add a product: the exact product is split into ``p + e``
    (Dekker), and ``fsum`` rounds ``p + e + c`` correctly."""
    p = a * b
    t = 134217729.0 * a
    ah = t - (t - a)
    al = a - ah
    t = 134217729.0 * b
    bh = t - (t - b)
    bl = b - bh
    return math.fsum((p, ((ah * bh - p) + ah * bl + al * bh) + al * bl, c))


# U = |q|^2 / 2 stays hand-written: _dot adds q2*q2 to q1*q1 in one fused
# multiply-add, which no expression reproduces.
_HARMONIC = ScalarField(value=lambda q: 0.5 * _dot(q, q), partials=lambda q: q,
                        second_partials=lambda q: np.eye(2),
                        point=lambda q: (0.5 * _fma(q[1], q[1], q[0] * q[0]), tuple(q)))

# name: metric, potential, energy, q0, v0, t_span
_PRESETS = {
    "flat-free": ("flat", "0", 0.5, (0.0, 0.0), (1.0, 0.0), (0.0, 2.0)),
    "flat-harmonic": ("flat", _HARMONIC, 1.0, (1.0, 0.0), (0.0, 1.0), (0.0, 2.0 * np.pi)),
    # turning point at t = 1 for these initial data; stay clear of it
    "uniform-gravity": ("flat", "q1", 0.5, (0.0, 0.0), (1.0, 0.0), (0.0, 0.5)),
    "sphere-free": ("sphere", "0", 0.5, (np.pi / 2.0, 0.0), (0.0, 1.0), (0.0, 2.0 * np.pi)),
    # theta oscillates between pi/2 and ~2.47; E - U stays >= 0.5
    "sphere-cos": ("sphere", "cos(q1)", 0.5, (np.pi / 2.0, 0.0), (0.0, 1.0), (0.0, 2.0)),
    "hyperbolic-free": ("hyperbolic", "0", 0.5, (0.0, 1.0), (1.0, 0.0), (0.0, 1.5)),
}

BUILTIN_SYSTEMS = tuple(_PRESETS)


def builtin_setup(name: str) -> SystemSetup:
    try:
        metric, potential, energy, q0, v0, t_span = _PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown system '{name}' (choose from {BUILTIN_SYSTEMS})") from None
    return SystemSetup(name, mechanical_system(metric_by_name(metric), potential, name=name),
                       energy=energy, q0=np.array(q0), v0=np.array(v0), t_span=t_span,
                       sample_box=SAMPLE_BOXES[metric])


def all_setups():
    return [builtin_setup(name) for name in BUILTIN_SYSTEMS]
