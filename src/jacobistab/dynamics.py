"""Newtonian dynamics on a chart and the linearized stability operator.

The trajectory stability operator acting on a field V along a solution is

    op(V) = nabla_dot nabla_dot V + K_dot(V) + nabla_V grad U

where ``K_dot(V) = R(qdot, V) qdot``.  Solutions of ``op(V) = 0`` describe
the first-order separation of neighbouring trajectories; an independent
brute-force oracle differentiates perturbed nonlinear runs instead.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .errors import ChartDomainError, EnergyDriftError, GeometryError
from .geometry import (ChartMetric, CurveGeometry, PointSource, ScalarField, _apply,
                       _christoffel, _const, _curvature_source, _fold, _kernel_source, _mv,
                       _names, _prod, _pruned, _quad, _stage_factory, _sum, christoffel,
                       cov_derivative_along, hessian_form, riemann)
from .numdiff import _EPS4, brentq

@dataclass(frozen=True)
class MechanicalSystem:
    """Metric plus potential U, a :class:`~jacobistab.geometry.ScalarField`
    with its partials; its point evaluator is optional.  Every method below
    takes a single point or a batch.
    """

    metric: ChartMetric
    potential: ScalarField
    name: str = ""

    def energy(self, q, v):
        q = np.asarray(q, dtype=float)
        v = np.asarray(v, dtype=float)
        return (0.5 * _quad(self.metric.g(q), v, v) + self.potential(q))[()]

    def grad_potential(self, q, ginv=None) -> np.ndarray:
        """Raised gradient components ``g^{ij} d_j U``; ``ginv`` reuses an
        inverse metric already evaluated at ``q``."""
        q = np.asarray(q, dtype=float)
        if ginv is None:
            ginv = self.metric.g_inv(q)
        return _mv(ginv, self.potential.grad_components(q))

    def hess_potential_raised(self, q, ginv=None, gamma=None) -> np.ndarray:
        """Matrix ``A^i_l`` with ``(nabla_V grad U)^i = A^i_l V^l``; ``ginv``
        and ``gamma`` reuse data already evaluated at ``q``."""
        q = np.asarray(q, dtype=float)
        if ginv is None:
            ginv = self.metric.g_inv(q)
        return ginv @ hessian_form(self.metric, self.potential, q, gamma=gamma)

    def acceleration(self, q, v) -> np.ndarray:
        q = self.metric.check_point(q)
        ginv = self.metric.g_inv(q)
        gam = _christoffel(self.metric, q, ginv)
        return (-np.einsum('...ijk,...j,...k->...i', gam, v, v)
                - self.grad_potential(q, ginv))


@dataclass(frozen=True)
class Trajectory:
    """Time-sampled solution of the equations of motion of ``system``.

    The trajectory is the context of every identity along it: it builds on
    first use, and keeps, its samples as one
    :class:`~jacobistab.geometry.CurveGeometry` ``curve`` in t with the
    g-data along it, its covariant acceleration ``cov_acceleration``, its
    Jacobi metric ``jm`` at its own energy, its ``clearance`` E - U and its
    view ``geo`` as an h-geodesic record, whose own ``curve`` carries the
    h-data.  ``energy_drift`` is the largest relative energy drift over all
    samples, taken by the integrator's energy check.
    """

    times: np.ndarray
    points: np.ndarray
    velocities: np.ndarray
    energy: float
    step: float
    energy_drift: float
    system: MechanicalSystem = field(repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        object.__setattr__(self, "points", np.asarray(self.points, dtype=float))
        object.__setattr__(self, "velocities", np.asarray(self.velocities, dtype=float))

    def __len__(self):
        return len(self.times)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @cached_property
    def curve(self) -> CurveGeometry:
        """The samples as one curve in t, with the g-data along it."""
        return CurveGeometry(self.system.metric, self.times, self.points, self.velocities,
                             self.system)

    @cached_property
    def clearance(self) -> np.ndarray:
        """``E - U`` at every sample, with the Jacobi metric's margin enforced."""
        return 0.5 * self.jm.factor_values(self.points)

    @cached_property
    def cov_acceleration(self) -> np.ndarray:
        """``nabla_qdot qdot`` at every sample, from 7-point stencils."""
        return cov_derivative_along(self.curve, self.velocities)

    @cached_property
    def jm(self):
        from . import jacobi
        return jacobi.jacobi_metric(self.system, self.energy)

    @cached_property
    def geo(self):
        from . import jacobi
        return jacobi.geodesic_from_trajectory(self)


@dataclass(frozen=True)
class DeviationField:
    """Vector field V along a trajectory with its covariant derivative samples."""

    trajectory: Trajectory
    V: np.ndarray
    DV: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "V", np.asarray(self.V, dtype=float))
        object.__setattr__(self, "DV", np.asarray(self.DV, dtype=float))
        if self.V.shape != self.trajectory.points.shape or self.DV.shape != self.V.shape:
            raise ValueError("deviation samples must match the trajectory grid")


class Stage:
    """An RK4 stage in its two forms, each generated on first use:
    ``fast``, which :func:`_rk4` calls, and ``guarded``, which replays a
    step that the fast form rejected (see :func:`_rk4_loop`).  The guarded
    form checks the first ``n`` floats of each stage state, the
    coordinates.  Called, the stage runs the guarded form."""

    def __init__(self, n: int, make_fast: Callable, make_guarded: Callable):
        self.n, self._make_fast, self._make_guarded = n, make_fast, make_guarded

    @cached_property
    def fast(self) -> Callable:
        return self._make_fast()

    @cached_property
    def guarded(self) -> Callable:
        return self._make_guarded()

    def __call__(self, t, *y):
        return self.guarded(t, *y)


def _rk4(rhs, y0, t0, n_steps, h, check=None):
    """Classical fixed-step RK4 on a state of Python floats; returns the
    samples, y0 included, as one float64 array.

    ``rhs(t, y_0, ..., y_{m-1})`` takes the m floats of a state and returns
    a tuple of m floats; it is a :class:`Stage` or a plain callable, which
    has no fast form and is called as its own guarded form.  The loop for
    m is generated on first use (see :func:`_rk4_loop`).  With ``check``,
    every new state is passed to it as a tuple, and a chart-domain error
    raised by a stage or by ``check`` ends the run early: the samples up to
    the last accepted state are returned.
    """
    out = np.empty((n_steps + 1, len(y0)))
    out[0] = y0
    stage = rhs if isinstance(rhs, Stage) else Stage(0, lambda: rhs, lambda: rhs)
    return _rk4_loop(len(y0), stage.n)(stage, out, t0, n_steps, h, check)


_BLOCK = 256
"""Rows of RK4 samples written into the output array at a time."""


@functools.lru_cache(maxsize=None)
def _rk4_loop(m: int, n: int) -> Callable:
    """The RK4 loop of :func:`_rk4` for states of m floats whose first n
    are checked by the guarded stage, generated on first use: the state
    lives in the locals ``y0 ... y{m-1}``, and each update is written out
    in floats in the order ``y_j + (0.5*h)*k_j`` and
    ``y_j + (h/6)*(((k1_j + 2 k2_j) + 2 k3_j) + k4_j)``, so the samples are
    bitwise those of the same RK4 on float64 arrays.

    Each step runs the stage's fast form, then one ``isfinite`` test on the
    sum of the new state and the coordinates of the last three stage
    states.  A sum is finite only where every term is, and a new state
    only where the state and the four stage outputs are, so the test
    passes only where every stage state and output is finite.  Where it
    fails, or the fast form raises anything, the step is run again with
    the guarded form, which raises the error, or takes the fallback, that
    the step meets, from the state kept as the last row; on an accepted
    step both forms run the same float operations.  New states are kept as
    floats and written into the preallocated ``out`` a block of rows at a
    time."""
    y, a, b, c, d = (_names(x, m, 1) for x in "yabcd")
    inputs = [_names(x, n, 1) for x in ("qb", "qc", "qd")]
    state = ", ".join(y)

    def step(call, bind):
        """One step on ``call`` into ``y``; with ``bind``, the coordinates
        of the last three stage states are bound first."""
        lines, k = [f"{', '.join(a)}, = {call}(t, {state})"], a
        for time, size, out, names in (("t + half", "half", b, inputs[0]),
                                       ("t + half", "half", c, inputs[1]),
                                       ("t + h", "h", d, inputs[2])):
            args = [f"{y[j]} + {size} * {k[j]}" for j in range(m)]
            if bind and n:
                lines.append(f"{', '.join(names)}, = {', '.join(args[:n])},")
                args[:n] = names
            lines.append(f"{', '.join(out)}, = {call}({time}, {', '.join(args)})")
            k = out
        update = ", ".join(f"{y[j]} + sixth * ((({a[j]} + 2.0 * {b[j]}) + 2.0 * {c[j]}) + {d[j]})"
                           for j in range(m))
        return lines + [f"{state}, = {update},"]

    flush = "flat[start:start + len(rows)] = rows"
    source = "\n".join([
        "def rk4(stages, out, t0, n_steps, h, check):",
        "    fast = stages.fast",
        f"    {state}, = out[0].tolist()",
        "    half, sixth = 0.5 * h, h / 6.0",
        f"    flat, rows, start = out.reshape(-1), [], {m}",
        "    t = t0",
        f"    for block in range(0, n_steps, {_BLOCK}):",
        f"        for k in range(block, min(block + {_BLOCK}, n_steps)):",
        "            try:",
        *(f"                {line}" for line in step("fast", True)),
        f"                ok = isfinite({' + '.join(y + [x for names in inputs for x in names])})",
        "            except Exception:",
        "                ok = False",
        "            if not ok:",
        f"                {state}, = rows[-{m}:] if rows else flat[start - {m}:start].tolist()",
        "                guarded = stages.guarded",
        "                try:",
        *(f"                    {line}" for line in step("guarded", False)),
        "                    if check is not None:",
        f"                        check(({state},))",
        "                except ChartDomainError:",
        "                    if check is None:",
        "                        raise",
        f"                    {flush}",
        "                    return out[:k + 1]",
        "            elif check is not None:",
        "                try:",
        f"                    check(({state},))",
        "                except ChartDomainError:",
        f"                    {flush}",
        "                    return out[:k + 1]",
        f"            rows += {state},",
        "            t = t0 + (k + 1) * h",
        f"        {flush}",
        "        start += len(rows)",
        "        rows.clear()",
        "    return out"]) + "\n"
    scope = {"ChartDomainError": ChartDomainError, "isfinite": math.isfinite}
    exec(compile(source, f"<rk4 m={m} n={n}>", "exec"), scope)
    return scope["rk4"]


# The Dormand–Prince 5(4) pair with Shampine's quartic dense output, as
# scipy.integrate's RK45 (1.17) writes it.
_DP_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_DP_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]])
_DP_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_DP_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_DP_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


class _DenseStep:
    """The quartic interpolant of one RK45 step from ``t_old`` to ``t``: at
    a scalar time a state ``(m,)``, at times ``(K,)`` states ``(m, K)``."""

    def __init__(self, t_old, t, y_old, Q):
        self.t_old, self.h, self.y_old, self.Q = t_old, t - t_old, y_old, Q

    def __call__(self, t):
        t = np.asarray(t)
        x = (t - self.t_old) / self.h
        if t.ndim == 0:
            p = np.cumprod(np.tile(x, 4))
        else:
            p = np.cumprod(np.tile(x, (4, 1)), axis=0)
        y = self.h * np.dot(self.Q, p)
        y += self.y_old[:, None] if y.ndim == 2 else self.y_old
        return y


class _DenseSolution:
    """The dense steps of an RK45 run over the step times ``ts``, as one
    function of the time; a time on a step boundary takes the earlier step,
    and times are grouped by step, so that each step is called once."""

    def __init__(self, ts, steps):
        self.steps = steps
        self.ascending = ts[-1] >= ts[0]
        self.ts_sorted = ts if self.ascending else ts[::-1]

    def _segments(self, t):
        seg = np.searchsorted(self.ts_sorted, t, side="left" if self.ascending else "right")
        seg = np.clip(seg - 1, 0, len(self.steps) - 1)
        return seg if self.ascending else len(self.steps) - 1 - seg

    def __call__(self, t):
        t = np.asarray(t)
        if t.ndim == 0:
            return self.steps[int(self._segments(t))](t)
        order = np.argsort(t)
        reverse = np.empty_like(order)
        reverse[order] = np.arange(order.shape[0])
        t_sorted = t[order]
        ys, start = [], 0
        for segment, group in itertools.groupby(self._segments(t_sorted)):
            end = start + len(list(group))
            ys.append(self.steps[segment](t_sorted[start:end]))
            start = end
        return np.hstack(ys)[:, reverse]


class Rk45Solution(NamedTuple):
    """What :func:`_rk45` returns: the step times ``t``, the states ``y``
    ``(m, len(t))`` there, ``status`` (0: reached the end, 1: stopped at
    the event, -1: the step size fell below the spacing of floats) and
    the dense solution ``sol``."""

    t: np.ndarray
    y: np.ndarray
    status: int
    sol: _DenseSolution


def _rk45(rhs, y0, t0, t_bound, rtol, atol, event) -> Rk45Solution:
    """Adaptive Dormand–Prince 5(4) from ``t0`` to ``t_bound != t0`` with
    dense output, stopped at the first zero of ``event(t, y)`` that it crosses
    downwards; ``rhs(t, y)`` maps a state ``(m,)`` to its rate ``(m,)``.

    This is ``scipy.integrate.solve_ivp(rhs, (t0, t_bound), y0,
    method="RK45", rtol=rtol, atol=atol, dense_output=True, events=event)``
    (scipy 1.17) with a terminal event of direction -1: the initial step,
    the RMS error norm, the step control, the dense output and the event's
    root, by :func:`~jacobistab.numdiff.brentq` on the step's interpolant,
    are its float operations in its order, with its numpy calls, so the
    same bits.
    """
    t, t_bound, y = float(t0), float(t_bound), np.asarray(y0, dtype=float)
    direction = np.sign(t_bound - t)
    f = rhs(t, y)
    # the initial step (Hairer, Nørsett and Wanner, Sec. II.4)
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, abs(t_bound - t))
    d2 = _rms((rhs(t + h0 * direction, y + h0 * direction * f) - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    h_abs = min(100 * h0, h1, abs(t_bound - t))

    K = np.empty((7, len(y)))
    ts, ys, steps = [t], [y], []
    g, status = event(t, y), None
    while status is None:
        min_step = 10 * np.abs(np.nextafter(t, direction * np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                status = -1
                break
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = f
            for s, (a, c) in enumerate(zip(_DP_A[1:], _DP_C[1:]), start=1):
                dy = np.dot(K[:s].T, a[:s]) * h
                K[s] = rhs(t + c * h, y + dy)
            y_new = y + h * np.dot(K[:-1].T, _DP_B)
            f_new = rhs(t + h, y_new)
            K[-1] = f_new
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _rms(np.dot(K.T, _DP_E) * h / scale)
            if error_norm < 1:
                factor = 10 if error_norm == 0 else min(10, 0.9 * error_norm ** -0.2)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * error_norm ** -0.2)
            rejected = True
        if status == -1:
            break
        t_old, y_old, t, y, f = t, y, t_new, y_new, f_new
        if direction * (t - t_bound) >= 0:
            status = 0
        steps.append(_DenseStep(t_old, t, y_old, K.T.dot(_DP_P)))
        g_new = event(t, y)
        if g >= 0 and g_new <= 0:
            sol = steps[-1]
            t = np.float64(brentq(lambda x: event(x, sol(x)), t_old, t, xtol=_EPS4, rtol=_EPS4))
            y, status = sol(t), 1
        g = g_new
        if len(ts) > 1 and ts[-1] == t:
            steps.pop()
        else:
            ts.append(t)
            ys.append(y)
    ts = np.array(ts)
    return Rk45Solution(ts, np.vstack(ys).T, status, _DenseSolution(ts, steps))


def _left_chart(t, exc) -> ChartDomainError:
    """The error of a Newton stage at time t that left the chart with ``exc``."""
    return ChartDomainError(f"left chart domain at t={t:.6g}: {exc}")


def _newton_source(metric: PointSource, potential: PointSource, second: bool,
                   fast: bool = False) -> tuple:
    """The Newton stage's source for the point sources ``metric`` and
    ``potential``: the sources inlined, their locals and parameters named
    with ``m`` and ``p`` before them (see
    :meth:`~jacobistab.geometry.PointSource.inline`), then the point kernel
    of :func:`~jacobistab.geometry._kernel_source` on their entries, with
    their structural zeros folded.  With ``second``, the sources' second
    blocks run too.

    The guarded form checks its inputs and the values it forms.  A
    coordinate that is not finite, or a point outside the metric's chart,
    raises ``ChartDomainError`` where :meth:`ChartMetric.check_point`
    would, and the stage raises it again naming the stage time.  Folding
    changes no bits where the entries and the velocity are finite; where
    the velocity or the acceleration is not, the stage forms the
    acceleration again with nothing folded, which gives the NaN and inf of
    the unfolded kernel.

    With ``fast``, the fast form: the same value lines, the sources' and
    the kernel's fast forms, with no check of the inputs, no exception
    handler and no unfolded kernel; the chart tests raise as they are.
    It gives the guarded form's bits wherever its inputs and outputs are
    finite and it raises nothing (see :func:`_rk4_loop`).

    Returns the lines, the names of q, v and the acceleration, the
    parameters, the kernel's entries of the inverse metric and of Γ, and
    the entries of dg, d2g, dU and d2U.
    """
    n = metric.dim
    q, v, a = _names("q", n, 1), _names("v", n, 1), _names("a", n, 1)
    coords = ", ".join(q)
    outside = f'raise ChartDomainError(f"chart domain: point {{[{coords}]}} outside valid region")'
    g_lines, g_lines2, (g, d, d2) = metric.inline("m", outside, fast)
    u_lines, u_lines2, (_, u, d2u) = potential.inline("p", outside, fast)
    inlined = g_lines + u_lines + (g_lines2 + u_lines2 if second else [])
    body, accel, inverse, gamma = _kernel_source(n, f"({coords},)", g, d, u, fast)
    params = ", ".join([*metric.bind("m"), *potential.bind("p")])
    if fast:
        lines = [*inlined, *body, f"{', '.join(a)}, = {', '.join(accel)},"]
        return lines, (q, v, a), params, inverse, gamma, (d, d2, u, d2u)
    # the same kernel with every zero entry a local: nothing folds
    unfolded = [[x if _const(x) != 0.0 else "nz" if math.copysign(1.0, _const(x)) < 0 else "z"
                 for x in entries] for entries in (g, d, u)]
    exact, accel_exact = _kernel_source(n, f"({coords},)", *unfolded)[:2]
    lines = ["try:", f"    if not ({' and '.join(f'isfinite({x})' for x in q)}):",
             f"        {outside}", *(f"    {line}" for line in inlined),
             "except ChartDomainError as exc:",
             "    raise _left_chart(t, exc) from exc",
             *body, f"{', '.join(a)}, = {', '.join(accel)},",
             f"if not isfinite({' + '.join(v + a)}):",
             "    z, nz = 0.0, -0.0", *(f"    {line}" for line in exact),
             f"    {', '.join(a)}, = {', '.join(accel_exact)},"]
    return lines, (q, v, a), params, inverse, gamma, (d, d2, u, d2u)


def _factory(label: str, params: str, args, lines, returns, fast: bool, coords) -> Callable:
    """:func:`~jacobistab.geometry._stage_factory` on a stage's source;
    the fast form's body is pruned first (see
    :func:`~jacobistab.geometry._pruned`)."""
    if fast:
        lines, returns = _pruned(lines, returns, coords)
    return _stage_factory(f"{'fast ' if fast else ''}{label}", params, args, lines, returns,
                          _left_chart=_left_chart)


@functools.lru_cache(maxsize=None)
def _newton_factory(metric: PointSource, potential: PointSource, fast: bool = True) -> Callable:
    """``make(params)``, which returns the fast or the guarded Newton stage
    of the point sources ``metric`` and ``potential`` (see
    :func:`_newton_source`), generated once per pair of sources and form."""
    lines, (q, v, a), params, *_ = _newton_source(metric, potential, False, fast)
    return _factory(f"newton stage n={metric.dim}", params, ["t", *q, *v], lines, v + a, fast, q)


def _stage(sys: MechanicalSystem):
    """The right-hand side ``(t, q_0, ..., v_{n-1}) -> (v, acceleration)``
    of the equations of motion, a tuple of 2n floats.

    A system with point sources runs the :class:`Stage` whose two forms
    :func:`_newton_factory` generates from them; any other system runs
    :meth:`MechanicalSystem.acceleration`.  A chart-domain error at a
    stage is raised again naming the stage time.  The geodesics of a
    Jacobi metric step on the stage of its free system.
    """
    metric, potential = sys.metric, sys.potential
    n = metric.dim
    if metric.point is not None and potential.point is not None:
        return _point_stage(_newton_factory, metric.point, potential.point)

    def stage(t, *y):
        try:
            acc = sys.acceleration(y[:n], y[n:])
        except ChartDomainError as exc:
            raise _left_chart(t, exc) from exc
        return (*y[n:], *acc.tolist())
    return stage


def _point_stage(factory, metric: PointSource, potential: PointSource) -> Stage:
    """The :class:`Stage` of ``factory`` on the point sources, with their
    parameters."""
    params = {**metric.bind("m"), **potential.bind("p")}
    return Stage(metric.dim, lambda: factory(metric, potential, True)(**params),
                 lambda: factory(metric, potential, False)(**params))


def _check_flow(sys: MechanicalSystem, times, points, velocities, e0, drift_bound) -> float:
    """Domain and energy checks over all samples in one batched pass; returns
    the largest relative energy drift.

    Errors are reported at the earliest sample: a domain exit there, or an
    energy drift above ``drift_bound`` (relative) or not finite before it.
    """
    inside = sys.metric.contains(points)
    n_in = int(np.argmin(inside)) if not inside.all() else len(times)
    energy = sys.energy(points[:n_in], velocities[:n_in])
    drift = np.abs(energy - e0) / np.maximum(1.0, np.abs(e0))
    over = ~(drift <= drift_bound)
    if np.any(over):
        k = int(np.argmax(over))
        raise EnergyDriftError(
            f"energy drift {drift[k]:.3e} exceeded bound {drift_bound:.3e} "
            f"at t={times[k]:.6g}")
    if n_in < len(times):
        raise ChartDomainError(f"left chart domain at t={times[n_in]:.6g}")
    return float(np.max(drift))


def integrate_newton(sys: MechanicalSystem, q0, v0, t_span, step,
                     drift_bound: float = 1e-6) -> Trajectory:
    """Fixed-step RK4 solution of the equations of motion.

    Halts with a chart-domain error if the solution leaves the chart and
    with an energy-drift error if the conserved energy moves by more than
    ``drift_bound`` (relative) or stops being finite, each reported at the
    earliest sample where it happens.
    """
    return _integrate(sys, q0, v0, t_span, step, drift_bound)[0]


def _integrate(sys: MechanicalSystem, q0, v0, t_span, step, drift_bound, deviation=()):
    """:func:`integrate_newton`, which also returns the RK4 samples; with
    ``deviation = (V0, DV0)`` it steps the joint flow of
    :func:`_deviation_stage`, whose orbit is the same."""
    q0 = sys.metric.check_point(q0)
    v0 = np.asarray(v0, dtype=float)
    t0, t1 = float(t_span[0]), float(t_span[1])
    if step <= 0 or t1 <= t0:
        raise ValueError("need step > 0 and t_span[1] > t_span[0]")
    n_steps = max(1, int(round((t1 - t0) / step)))
    h = (t1 - t0) / n_steps
    e0 = sys.energy(q0, v0)
    stage = _deviation_stage(sys) if deviation else _stage(sys)
    ys = _rk4(stage, np.concatenate([q0, v0, *deviation]), t0, n_steps, h)
    n = q0.size
    times, points, velocities = t0 + h * np.arange(n_steps + 1), ys[:, :n], ys[:, n:2 * n]
    drift = _check_flow(sys, times, points, velocities, e0, drift_bound)
    return Trajectory(times, points, velocities, energy=float(e0), step=h,
                      energy_drift=drift, system=sys), ys


def _check_attached(traj: Trajectory, dev: DeviationField):
    if dev.trajectory is not traj:
        if (len(dev.trajectory) != len(traj)
                or not np.allclose(dev.trajectory.times, traj.times)):
            raise ValueError("mismatched sampling grids between trajectory and deviation field")


def hessian_operator(traj: Trajectory, dev: DeviationField) -> np.ndarray:
    """Evaluate the stability operator on a sampled deviation field.

    Returns ``nabla_dot DV + K_dot(V) + nabla_V grad U`` at every sample,
    using the stored ``DV`` (so only one layer of sampled differentiation
    happens here); ``K_dot(V)`` is the trajectory's tidal matrix applied
    to V.
    """
    _check_attached(traj, dev)
    curve = traj.curve
    term1 = cov_derivative_along(curve, dev.DV)
    term2 = _apply(curve.tidal, dev.V)
    term3 = np.einsum('nij,nj->ni', curve.hess_U_raised, dev.V)
    return term1 + term2 + term3


@functools.lru_cache(maxsize=None)
def _deviation_factory(metric: PointSource, potential: PointSource,
                       fast: bool = True) -> Callable:
    """``make(params)``, which returns the fast or the guarded
    linearized-flow stage of the point sources ``metric`` and
    ``potential``, generated once per pair of sources and form (see
    :func:`_deviation_stage`)."""
    lines, (q, v, a), params, i, c, (d, d2, u, d2u) = _newton_source(metric, potential,
                                                                      True, fast)
    n = metric.dim
    r = range(n)
    V, W = _names("V", n, 1), _names("W", n, 1)
    curvature_lines, riem, raised = _curvature_source(n, i, c, d, d2, u, d2u)
    lines += curvature_lines
    product = {}
    for l, j, k in np.ndindex(n, n, n):
        product[l, j, k] = _prod(c[l, j, k], v[j])
        if product[l, j, k]:
            lines.append(f"P{l}_{j}_{k} = {product[l, j, k]}")
            product[l, j, k] = f"P{l}_{j}_{k}"

    def gamma(l, F):        # Γ(v, F)^l
        return _sum(_prod(product[l, j, k], F[k]) for j in r for k in r)

    def curvature(l):       # (R(v, V)v)^l
        return _sum(_prod(riem[l, x, y, e], v[x], V[y], v[e]) for x in r for y in r for e in r)

    def force(l):           # (A V)^l
        return _sum(_prod(raised[l, j], V[j]) for j in r)

    returns = ([f"{W[l]} - ({gamma(l, V)})" for l in r]
               + [_fold(f"-({curvature(l)}) - ({force(l)}) - ({gamma(l, W)})") for l in r])
    return _factory(f"deviation stage n={n}", params, ["t", *q, *v, *V, *W], lines,
                    v + a + returns, fast, q)


def _deviation_stage(sys: MechanicalSystem):
    """The right-hand side ``(t, q, v, V, W) -> (v, acceleration, dV, dW)``
    of the equations of motion together with their linearization, the
    flow of ``(V, W = nabla_qdot V)``, a tuple of 4n floats.

    At each stage state it forms Γ(v, ·), the tidal term ``R(v, V)v``,
    from the curvature formula on the second metric partials, and the
    raised potential Hessian ``A``; R is never a derivative of the Newton
    stage, so the oracle comparison of the linearized flow stays
    independent.  A system with point sources runs the stage
    :func:`_deviation_factory` generates: the Newton stage's own lines,
    so the orbit is bitwise that of :func:`integrate_newton`, then the
    sources' second blocks and the lines of
    :func:`~jacobistab.geometry._curvature_source`, and ``Γ(v, V)``,
    ``R(v, V)v``, ``A V`` and ``Γ(v, W)`` written out term by term, left
    to right and added from 0.0 in einsum's order.  ``A V`` is summed the
    same way, which differs from BLAS's ``matmul`` in the last bit where
    a row of ``A`` has more than one nonzero entry.  Any other system
    evaluates :meth:`MechanicalSystem.acceleration` and the batched
    :func:`~jacobistab.geometry.christoffel`,
    :func:`~jacobistab.geometry.riemann` and
    :meth:`MechanicalSystem.hess_potential_raised` at the stage state.
    """
    metric, potential = sys.metric, sys.potential
    n = metric.dim
    if metric.point is not None and potential.point is not None:
        return _point_stage(_deviation_factory, metric.point, potential.point)

    def stage(t, *y):
        q, v, V, W = (np.array(y[k * n:(k + 1) * n]) for k in range(4))
        try:
            acc = sys.acceleration(q, v)
            gam = christoffel(metric, q)
            riem = riemann(metric, q, gamma=gam)
            hess = sys.hess_potential_raised(q, gamma=gam)
        except ChartDomainError as exc:
            raise _left_chart(t, exc) from exc
        with np.errstate(over="ignore", invalid="ignore"):
            dV = W - np.einsum('ijk,j,k->i', gam, v, V)
            dW = (-np.einsum('labc,a,b,c->l', riem, v, V, v) - hess @ V
                  - np.einsum('ijk,j,k->i', gam, v, W))
        return (*y[n:2 * n], *acc.tolist(), *dV.tolist(), *dW.tolist())
    return stage


def _deviation_field(traj: Trajectory, ys) -> DeviationField:
    """The field of the samples ``ys`` ``(N, 4n)`` of the joint flow along
    ``traj``; raises :class:`GeometryError` at the first sample whose
    ``(V, W)`` is not finite."""
    n = traj.dim
    bad = ~np.isfinite(ys[:, 2 * n:]).all(axis=1)
    if bad.any():
        k = int(np.argmax(bad))
        raise GeometryError(f"linearized flow not finite at sample {k} (t={traj.times[k]:.6g})")
    return DeviationField(traj, ys[:, 2 * n:3 * n], ys[:, 3 * n:])


def integrate_deviation(traj: Trajectory, V0, DV0) -> DeviationField:
    """Integrate the linearized flow ``op(V) = 0`` along a trajectory.

    The first-order system in ``(V, W = nabla_dot V)`` is advanced by RK4
    together with the orbit, from the trajectory's first sample with its
    own step, so every coefficient is evaluated at the RK4 stage states
    (see :func:`_deviation_stage`) and the memory is that of the samples
    returned.  The orbit must come out bitwise as ``traj``'s points and
    velocities, the RK4 orbit of its system, or a ValueError is raised.
    Raises :class:`GeometryError` at the first sample whose state is not
    finite.
    """
    n = traj.dim
    y0 = np.concatenate([traj.points[0], traj.velocities[0],
                         np.asarray(V0, dtype=float), np.asarray(DV0, dtype=float)])
    ys = _rk4(_deviation_stage(traj.system), y0, traj.times[0], len(traj) - 1, traj.step)
    if not (np.array_equal(ys[:, :n], traj.points)
            and np.array_equal(ys[:, n:2 * n], traj.velocities)):
        raise ValueError("the trajectory is not the RK4 orbit of its system from its first "
                         "sample with its step")
    return _deviation_field(traj, ys)


def integrate_with_deviation(sys: MechanicalSystem, q0, v0, t_span, step, V0, DV0,
                             drift_bound: float = 1e-6) -> DeviationField:
    """:func:`integrate_newton` and :func:`integrate_deviation` from
    ``(V0, DV0)`` along its orbit, in one run of the joint flow: the same
    samples, bit for bit, from half the steps."""
    traj, ys = _integrate(sys, q0, v0, t_span, step, drift_bound,
                          (np.asarray(V0, dtype=float), np.asarray(DV0, dtype=float)))
    return _deviation_field(traj, ys)


def brute_force_deviation(sys: MechanicalSystem, q0, v0, dq, dv, alpha,
                          t_span, step, drift_bound: float = 1e-6):
    """Deviation field by central differencing of perturbed nonlinear runs.

    Integrates the full equations from ``(q0, v0)`` and from
    ``(q0 ± alpha*dq, v0 ± alpha*dv)``, in that order, and returns the base
    trajectory and ``V = (γ_+ - γ_-) / (2 alpha)`` sampled on its grid.
    Each run is held to ``drift_bound``.  This is the independent oracle
    for :func:`integrate_deviation`; the matching initial data there are
    ``V0 = dq`` and ``DV0 = dv + Γ(q0)(v0, dq)``.  The oracle differences
    nonlinear RK4 orbits, while the linearized flow evaluates the curvature
    from second metric partials, so neither derives from the other;
    :func:`linearization_against_oracle` takes the base run from the
    linearized flow's own orbit, which is the same.
    """
    if not alpha > 0:
        raise ValueError("need alpha > 0")
    base = integrate_newton(sys, q0, v0, t_span, step, drift_bound)
    return base, _central_difference(sys, q0, v0, dq, dv, alpha, t_span, step, drift_bound)


def _central_difference(sys, q0, v0, dq, dv, alpha, t_span, step, drift_bound):
    """``(γ_+ - γ_-) / (2 alpha)`` of :func:`brute_force_deviation`."""
    q0, v0, dq, dv = (np.asarray(a, dtype=float) for a in (q0, v0, dq, dv))
    plus, minus = (integrate_newton(sys, q, v, t_span, step, drift_bound) for q, v in
                   ((q0 + alpha * dq, v0 + alpha * dv), (q0 - alpha * dq, v0 - alpha * dv)))
    return (plus.points - minus.points) / (2.0 * alpha)


def linearization_initial_data(sys: MechanicalSystem, q0, v0, dq, dv):
    """Initial ``(V0, DV0)`` of the linearized flow matching a perturbation of
    initial conditions by ``(dq, dv)``."""
    gam = christoffel(sys.metric, q0)
    dq = np.asarray(dq, dtype=float)
    dv = np.asarray(dv, dtype=float)
    return dq, dv + np.einsum('ijk,j,k->i', gam, np.asarray(v0, dtype=float), dq)


def linearization_against_oracle(sys: MechanicalSystem, q0, v0, dq, dv, alpha,
                                 t_span, step, drift_bound: float = 1e-6):
    """The linearized flow for the perturbation ``(dq, dv)`` of ``(q0, v0)``
    and the sup over all samples of its difference from the oracle of
    :func:`brute_force_deviation`.

    The flow is integrated together with its base orbit
    (:func:`integrate_with_deviation`), which is bitwise the oracle's base
    run and is held to ``drift_bound`` as that run is; the oracle then adds
    its plus and minus runs.  A failing run raises, the joint run first.
    """
    if not alpha > 0:
        raise ValueError("need alpha > 0")
    lin = integrate_with_deviation(sys, q0, v0, t_span, step,
                                   *linearization_initial_data(sys, q0, v0, dq, dv),
                                   drift_bound=drift_bound)
    V = _central_difference(sys, q0, v0, dq, dv, alpha, t_span, step, drift_bound)
    return lin, float(np.max(np.abs(V - lin.V)))
