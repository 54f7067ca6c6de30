"""Built-in metrics and mechanical systems with known analytic behaviour.

A built-in system is a preset: a built-in metric, a potential and
reference initial data, the metric and the potential given by expression
strings.  It is built by :func:`mechanical_system`, as a ``system =
custom`` config is, so ``system = sphere-cos`` and a custom config with
``metric = sphere`` and ``potential = cos(q1)`` give the same system.  Each setup fixes initial data, which fix its energy, and a
characteristic time span on which the identity checks run.  Curvatures
and potentials are simple enough that every fixture value in the tests
has a closed form or an independent numerical oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import MechanicalSystem
from .expressions import metric_from_exprs, scalar_field_from_expr
from .geometry import ChartMetric


# ---------------------------------------------------------------------------
# Built-in metrics
# ---------------------------------------------------------------------------

# Every built-in metric and potential is compiled from expressions, as a
# custom one is, and the sphere and the hyperbolic plane add a chart domain.
# The forms are chosen for their bits: sin^2 θ as (1 - cos 2θ)/2, whose
# compiled partials are sin 2θ and 2 cos 2θ bit for bit (sin(q1)^2 raises
# the lemma residuals), and 1/y^2 with products, 1/(y*y), whose point source
# equals its batched evaluators bit for bit (a power is C pow on floats and
# numpy's power in a batch).

def flat_metric(dim: int = 2) -> ChartMetric:
    """Euclidean metric on R^n."""
    return metric_from_exprs({}, dim, name="flat")


def sphere_metric() -> ChartMetric:
    """Unit 2-sphere in (theta, phi) coordinates, ``g = diag(1, sin^2 theta)``,
    on 0 < theta < pi."""
    return metric_from_exprs({(2, 2): "(1 - cos(2*q1))/2"}, 2, name="sphere",
                             domain={1: (0.0, np.pi)})


def hyperbolic_metric() -> ChartMetric:
    """Upper half-plane with ``g = diag(1/y^2, 1/y^2)``, curvature -1.  Where
    an evaluator divides by zero or overflows, close to y = 0, it raises
    ``ChartDomainError``."""
    return metric_from_exprs({(1, 1): "1/(q2*q2)", (2, 2): "1/(q2*q2)"}, 2,
                             name="hyperbolic", domain={2: (0.0, np.inf)})


def conformal_flat_metric(dim: int = 2) -> ChartMetric:
    """Conformally flat metric ``g = e^{2 q1} * identity``."""
    return metric_from_exprs({(i, i): "exp(2*q1)" for i in range(1, dim + 1)}, dim,
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
    q0: np.ndarray
    v0: np.ndarray
    t_span: tuple
    step: float = 1e-3


# name: metric, potential, q0, v0, t_span
_PRESETS = {
    "flat-free": ("flat", "0", (0.0, 0.0), (1.0, 0.0), (0.0, 2.0)),
    "flat-harmonic": ("flat", "0.5*(q1*q1 + q2*q2)", (1.0, 0.0), (0.0, 1.0), (0.0, 2.0 * np.pi)),
    # turning point at t = 1 for these initial data; stay clear of it
    "uniform-gravity": ("flat", "q1", (0.0, 0.0), (1.0, 0.0), (0.0, 0.5)),
    "sphere-free": ("sphere", "0", (np.pi / 2.0, 0.0), (0.0, 1.0), (0.0, 2.0 * np.pi)),
    # E = 1/2; theta oscillates between pi/2 and ~2.47; E - U stays >= 0.5
    "sphere-cos": ("sphere", "cos(q1)", (np.pi / 2.0, 0.0), (0.0, 1.0), (0.0, 2.0)),
    "hyperbolic-free": ("hyperbolic", "0", (0.0, 1.0), (1.0, 0.0), (0.0, 1.5)),
}

BUILTIN_SYSTEMS = tuple(_PRESETS)


def builtin_setup(name: str) -> SystemSetup:
    try:
        metric, potential, q0, v0, t_span = _PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown system '{name}' (choose from {BUILTIN_SYSTEMS})") from None
    return SystemSetup(name, mechanical_system(metric_by_name(metric), potential, name=name),
                       q0=np.array(q0), v0=np.array(v0), t_span=t_span)


def all_setups():
    return [builtin_setup(name) for name in BUILTIN_SYSTEMS]
