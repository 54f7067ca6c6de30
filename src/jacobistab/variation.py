"""Second-variation functionals and the identities relating them.

Three quadratic functionals are evaluated by composite Simpson quadrature
on the integrator grid:

* ``d2S``  : second variation of the mechanical action (t-integral of
  ``-<op(V), V>``),
* ``d2S0J``: second variation of the free action of the Jacobi metric
  (s-integral of ``-<devop(V), V>_h``),
* ``d2LJ`` : second variation of the Jacobi-metric length functional,
  which only sees the component of V orthogonal to the geodesic.

The identity suite checks, with both sides computed by independent code
paths,

    d2S0J = d2S + ∫ 2 <qdot, nabla_dot V> <F, V> dt,        F = grad ln(2(E-U))
    d2LJ  = d2S - ∫ dt/(2(E-U)) [<qdot, nabla_dot V> - <nabla_dot qdot, V>]^2
    d2S|orth = d2LJ + ∫ (<F_h, Vperp>_h)^2 ds

with ``F_h`` the h-gradient of ``ln(2(E-U))``.  The squared-bracket
correction is pointwise nonnegative, which is the quantitative form of
"length-minimizing geodesics are action-minimizing solutions, but not
conversely".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np
from scipy.integrate import simpson

from .dynamics import DeviationField, Trajectory, hessian_operator
from .geometry import _quad, orthogonal_part
from .jacobi import _check_orthogonal, jacobi_operator_direct
from .numdiff import apply_stencil


@dataclass(frozen=True)
class ProperVariation:
    """Sine-bump variation field along a trajectory, zero at both endpoints.

    ``values`` hold V on the trajectory grid and ``dvalues`` the plain
    coordinate derivative dV/dt (exact for the sine basis); ``dev``, built
    on first use and kept, is V with ``DV = dV/dt + Γ(qdot, V)``.
    """

    trajectory: Trajectory = field(repr=False, compare=False)
    values: np.ndarray
    dvalues: np.ndarray
    seed: Optional[int] = None

    @cached_property
    def dev(self) -> DeviationField:
        traj = self.trajectory
        corr = np.einsum('nijk,nj,nk->ni', traj.cache.gamma, traj.velocities, self.values)
        return DeviationField(traj, self.values, self.dvalues + corr)


def make_proper_variation(traj: Trajectory, coefficients=None, modes: int = 3,
                          seed: Optional[int] = None, amplitude: float = 1.0,
                          orthogonal: bool = False) -> ProperVariation:
    """Build a proper variation from sine-bump basis coefficients.

    The basis is ``sin(k pi (t - t0) / (t1 - t0))`` per coordinate, so the
    endpoint zeros are exact.  Either pass explicit ``coefficients`` of
    shape (modes, n) or a seed from which they are drawn uniformly.  With
    ``orthogonal=True`` the field is pointwise projected g-orthogonal to
    the velocity.
    """
    if len(traj) < 9:
        raise ValueError("grid too coarse: need at least 9 nodes")
    n = traj.dim
    t0, t1 = traj.times[0], traj.times[-1]
    span = t1 - t0
    if coefficients is None:
        if seed is None:
            raise ValueError("empty variation spec: give coefficients or a seed")
        rng = np.random.default_rng(seed)
        coefficients = amplitude * rng.uniform(-1.0, 1.0, size=(modes, n))
    coefficients = np.atleast_2d(np.asarray(coefficients, dtype=float))
    if coefficients.size == 0:
        raise ValueError("empty variation spec")

    phase = np.pi * (traj.times - t0) / span
    values = np.zeros((len(traj), n))
    dvalues = np.zeros((len(traj), n))
    for k, row in enumerate(coefficients, start=1):
        values += np.sin(k * phase)[:, None] * row[None, :]
        dvalues += (k * np.pi / span) * np.cos(k * phase)[:, None] * row[None, :]
    values[0] = 0.0
    values[-1] = 0.0

    if orthogonal:
        values = orthogonal_part(traj.cache.g, traj.velocities, values)
        values[0] = 0.0
        values[-1] = 0.0
        dvalues = apply_stencil(traj.as_curve().stencil, values)

    return ProperVariation(traj, values, dvalues, seed=seed)


def _check_grid(traj: Trajectory, var: ProperVariation):
    if len(traj) < 9:
        raise ValueError("grid too coarse: need at least 9 nodes")
    if var.values.shape != traj.points.shape:
        raise ValueError("variation samples must match the trajectory grid")
    scale = max(1.0, float(np.max(np.abs(var.values))))
    ends = max(float(np.max(np.abs(var.values[0]))), float(np.max(np.abs(var.values[-1]))))
    if ends > 1e-12 * scale:
        raise ValueError("variation must vanish at both endpoints")


def second_variation_S(traj: Trajectory, var: ProperVariation) -> float:
    """Quadrature of ``-<op(V), V>`` over dynamical time."""
    _check_grid(traj, var)
    delta_v = hessian_operator(traj, var.dev)
    integrand = -np.einsum('nij,ni,nj->n', traj.cache.g, delta_v, var.values)
    return float(simpson(integrand, x=traj.times))


def second_variation_S0J(traj: Trajectory, var: ProperVariation) -> float:
    """Quadrature of ``-<devop(V), V>_h`` over arc length."""
    _check_grid(traj, var)
    geo = traj.geo
    dj_v = jacobi_operator_direct(geo, var.values)
    integrand = -np.einsum('nij,ni,nj->n', geo.cache.g, dj_v, var.values)
    return float(simpson(integrand, x=geo.s))


def second_variation_LJ(traj: Trajectory, var: ProperVariation) -> float:
    """Length-functional second variation: only the h-orthogonal part of V counts."""
    _check_grid(traj, var)
    geo = traj.geo
    vperp = orthogonal_part(geo.cache.g, geo.tangents, var.values)
    dj_v = jacobi_operator_direct(geo, vperp)
    integrand = -np.einsum('nij,ni,nj->n', geo.cache.g, dj_v, vperp)
    return float(simpson(integrand, x=geo.s))


def _bracket_correction(traj: Trajectory, var: ProperVariation):
    """t-quadrature of the squared bracket
    ``[<qdot, nabla_dot V> - <nabla_dot qdot, V>]^2 / (2(E-U))`` and the
    minimum of its integrand.

    The bracket is evaluated from sampled covariant derivatives (no
    equations-of-motion substitution), so the integrand is pointwise
    nonnegative up to rounding.
    """
    cache = traj.cache
    w = traj.clearance
    bracket = (np.einsum('nij,ni,nj->n', cache.g, traj.velocities, var.dev.DV)
               - np.einsum('nij,ni,nj->n', cache.g, traj.cov_acceleration, var.values))
    integrand = bracket**2 / (2.0 * w)
    return float(simpson(integrand, x=traj.times)), float(np.min(integrand))


def _free_action_correction(traj: Trajectory, var: ProperVariation) -> float:
    """t-quadrature of ``2<qdot, nabla_dot V><F, V>`` with
    ``F = grad ln(2(E-U)) = -grad U / (E-U)``: d2S0J = d2S + this."""
    cache = traj.cache
    w = traj.clearance
    f_vec = -cache.grad_U / w[:, None]          # F = grad ln(2(E-U))
    qdot_dv = np.einsum('nij,ni,nj->n', cache.g, traj.velocities, var.dev.DV)
    f_dot_v = np.einsum('nij,ni,nj->n', cache.g, f_vec, var.values)
    return float(simpson(2.0 * qdot_dv * f_dot_v, x=traj.times))


def _orthogonal_correction(traj: Trajectory, var: ProperVariation) -> float:
    """s-quadrature of ``(<F_h, V>_h)^2`` for a g-orthogonal V (see
    :func:`~jacobistab.jacobi._check_orthogonal`), with ``F_h`` the
    h-gradient of ``ln(2(E-U))``: d2S = d2LJ + this."""
    _check_orthogonal(traj, var.values)
    cache = traj.cache
    w = traj.clearance
    # <F_h, V>_h = -<grad U, V>_g / (E - U)
    phi = -np.einsum('nij,ni,nj->n', cache.g, cache.grad_U, var.values) / w
    return float(simpson(phi**2, x=traj.geo.s))


def action_of_displaced(traj: Trajectory, var: ProperVariation, xi: float) -> float:
    """Mechanical action of the coordinate-displaced curve ``γ + ξ V``."""
    sys = traj.system
    pts = traj.points + xi * var.values
    vel = traj.velocities + xi * var.dvalues
    kin = 0.5 * _quad(sys.metric.g(pts), vel, vel)
    pot = sys.potential(pts)
    return float(simpson(kin - pot, x=traj.times))


def action_second_difference(traj: Trajectory, var: ProperVariation,
                             xi: float = 1e-3) -> float:
    """Independent oracle for d2S: central second difference of the action."""
    s_plus = action_of_displaced(traj, var, xi)
    s_zero = action_of_displaced(traj, var, 0.0)
    s_minus = action_of_displaced(traj, var, -xi)
    return (s_plus - 2.0 * s_zero + s_minus) / xi**2


@dataclass(frozen=True)
class FunctionalReport:
    """Evaluated functionals and identity residuals for one experiment."""

    system: str
    E: float
    seed: Optional[int]
    d2S: float
    d2S0J: float
    d2LJ: float
    thm1_correction: float
    thm2_correction: float
    thm1_residual: float
    thm2_residual: float
    integrand_min: float
    orth_residual: Optional[float]
    pathway_delta: Optional[float]


def evaluate_functionals(traj: Trajectory, var: ProperVariation,
                         orth_var: Optional[ProperVariation] = None) -> FunctionalReport:
    """Evaluate the three functionals of a variation and the identity
    residuals, plus the orthogonal identity of ``orth_var`` when given.

    Each functional of each field is evaluated once: d2S, d2S0J and d2LJ of
    ``var``, d2S and d2LJ of ``orth_var``.  For ``orth_var`` the
    h-gradient correction must agree with the squared-bracket one;
    ``pathway_delta`` is their difference.
    """
    d2s = second_variation_S(traj, var)
    d2s0j = second_variation_S0J(traj, var)
    d2lj = second_variation_LJ(traj, var)
    thm1_correction = _free_action_correction(traj, var)
    thm2_correction, integrand_min = _bracket_correction(traj, var)
    orth_residual = pathway_delta = None
    if orth_var is not None:
        orth_d2s = second_variation_S(traj, orth_var)
        orth_d2lj = second_variation_LJ(traj, orth_var)
        correction = _orthogonal_correction(traj, orth_var)
        orth_residual = abs(orth_d2s - (orth_d2lj + correction))
        pathway_delta = abs(correction - _bracket_correction(traj, orth_var)[0])
    return FunctionalReport(
        system=traj.system.name, E=traj.energy, seed=var.seed,
        d2S=d2s, d2S0J=d2s0j, d2LJ=d2lj,
        thm1_correction=thm1_correction, thm2_correction=thm2_correction,
        thm1_residual=abs(d2s0j - (d2s + thm1_correction)),
        thm2_residual=abs(d2lj - (d2s - thm2_correction)),
        integrand_min=integrand_min,
        orth_residual=orth_residual, pathway_delta=pathway_delta)


def functional_sweep(traj: Trajectory, count: int, seed: int, modes: int = 3,
                     amplitude: float = 1.0) -> list:
    """:func:`evaluate_functionals` of ``count`` seeded pairs: the k-th pair is
    a plain variation drawn with seed ``seed + k`` and an orthogonal one drawn
    with seed ``seed + 1000 + k``."""
    return [evaluate_functionals(
        traj, make_proper_variation(traj, modes=modes, seed=seed + k, amplitude=amplitude),
        orth_var=make_proper_variation(traj, modes=modes, seed=seed + 1000 + k,
                                       amplitude=amplitude, orthogonal=True))
            for k in range(count)]
