"""Built-in mechanical systems with known analytic behaviour.

Each setup fixes initial data, an energy, and a characteristic time span
on which the identity checks run.  Curvatures and potentials are simple
enough that every fixture value in the tests has a closed form or an
independent numerical oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import MechanicalSystem
from .geometry import ScalarField, _dot, _fma, flat_metric, hyperbolic_metric, sphere_metric


@dataclass(frozen=True)
class SystemSetup:
    """A mechanical system plus reference initial conditions for experiments."""

    name: str
    system: MechanicalSystem
    energy: float
    q0: np.ndarray
    v0: np.ndarray
    t_span: tuple
    step: float = 1e-3
    # box of chart points used when sampling random test data
    sample_box: tuple = ((-1.0, -1.0), (1.0, 1.0))


# Potentials follow the evaluator contract: points (..., n) to values (...),
# partials (..., n) and second partials (..., n, n); constants broadcast.
# The point evaluator transcribes U and dU for one point of floats, bit for bit.

def _zero_potential(dim):
    at_point = (0.0, (0.0,) * dim)
    return ScalarField(value=lambda q: 0.0,
                       partials=lambda q: np.zeros(dim),
                       second_partials=lambda q: np.zeros((dim, dim)),
                       point=lambda q: at_point)


def flat_free() -> SystemSetup:
    sys = MechanicalSystem(flat_metric(2), _zero_potential(2), name="flat-free")
    return SystemSetup("flat-free", sys, energy=0.5,
                       q0=np.array([0.0, 0.0]), v0=np.array([1.0, 0.0]),
                       t_span=(0.0, 2.0))


def flat_harmonic() -> SystemSetup:
    potential = ScalarField(
        value=lambda q: 0.5 * _dot(q, q),
        partials=lambda q: q,
        second_partials=lambda q: np.eye(2),
        # _dot adds q1*q1 to q0*q0 in one fused multiply-add
        point=lambda q: (0.5 * _fma(q[1], q[1], q[0] * q[0]), tuple(q)))
    sys = MechanicalSystem(flat_metric(2), potential, name="flat-harmonic")
    return SystemSetup("flat-harmonic", sys, energy=1.0,
                       q0=np.array([1.0, 0.0]), v0=np.array([0.0, 1.0]),
                       t_span=(0.0, 2.0 * np.pi))


def uniform_gravity() -> SystemSetup:
    potential = ScalarField(value=lambda q: q[..., 0],
                            partials=lambda q: np.array([1.0, 0.0]),
                            second_partials=lambda q: np.zeros((2, 2)),
                            point=lambda q: (q[0], (1.0, 0.0)))
    sys = MechanicalSystem(flat_metric(2), potential, name="uniform-gravity")
    # turning point at t = 1 for these initial data; stay clear of it
    return SystemSetup("uniform-gravity", sys, energy=0.5,
                       q0=np.array([0.0, 0.0]), v0=np.array([1.0, 0.0]),
                       t_span=(0.0, 0.5))


def sphere_free() -> SystemSetup:
    sys = MechanicalSystem(sphere_metric(), _zero_potential(2), name="sphere-free")
    return SystemSetup("sphere-free", sys, energy=0.5,
                       q0=np.array([np.pi / 2.0, 0.0]), v0=np.array([0.0, 1.0]),
                       t_span=(0.0, 2.0 * np.pi),
                       sample_box=((0.7, -1.0), (2.4, 1.0)))


def sphere_cosine() -> SystemSetup:
    def dU(q):
        out = np.zeros(q.shape)
        out[..., 0] = -np.sin(q[..., 0])
        return out

    def d2U(q):
        out = np.zeros(q.shape + (2,))
        out[..., 0, 0] = -np.cos(q[..., 0])
        return out

    def point(q):
        return math.cos(q[0]), (-math.sin(q[0]), 0.0)

    potential = ScalarField(value=lambda q: np.cos(q[..., 0]), partials=dU,
                            second_partials=d2U, point=point)
    sys = MechanicalSystem(sphere_metric(), potential, name="sphere-cos")
    # theta oscillates between pi/2 and ~2.47; E - U stays >= 0.5
    return SystemSetup("sphere-cos", sys, energy=0.5,
                       q0=np.array([np.pi / 2.0, 0.0]), v0=np.array([0.0, 1.0]),
                       t_span=(0.0, 2.0),
                       sample_box=((0.7, -1.0), (2.4, 1.0)))


def hyperbolic_free() -> SystemSetup:
    sys = MechanicalSystem(hyperbolic_metric(), _zero_potential(2), name="hyperbolic-free")
    return SystemSetup("hyperbolic-free", sys, energy=0.5,
                       q0=np.array([0.0, 1.0]), v0=np.array([1.0, 0.0]),
                       t_span=(0.0, 1.5),
                       sample_box=((-1.0, 0.6), (1.0, 2.0)))


_FACTORIES = {
    "flat-free": flat_free,
    "flat-harmonic": flat_harmonic,
    "uniform-gravity": uniform_gravity,
    "sphere-free": sphere_free,
    "sphere-cos": sphere_cosine,
    "hyperbolic-free": hyperbolic_free,
}

BUILTIN_SYSTEMS = tuple(_FACTORIES)


def builtin_setup(name: str) -> SystemSetup:
    try:
        return _FACTORIES[name]()
    except KeyError:
        raise ValueError(f"unknown system '{name}' (choose from {BUILTIN_SYSTEMS})") from None


def all_setups():
    return [factory() for factory in _FACTORIES.values()]
