import numpy as np
import pytest
from scipy import integrate, interpolate, optimize
from scipy.linalg import lapack

from jacobistab import geometry, numdiff
from jacobistab.dynamics import hessian_operator, integrate_deviation, integrate_newton
from jacobistab.geometry import CurveGeometry
from jacobistab.jacobi import equal_energy_projection
from jacobistab.numdiff import (_stencil_index, _tridiagonal_solve, apply_stencil, brentq,
                                central_diff, cubic_spline, cumulative_simpson, pchip, simpson,
                                stencil_weights)
from jacobistab.systems import builtin_setup, flat_metric
from jacobistab.variation import make_proper_variation


def test_local_derivative_exact_on_polynomials():
    x = np.linspace(0.0, 1.0, 25)
    y = 3.0 * x**4 - 2.0 * x**2 + x - 5.0
    dy = apply_stencil(stencil_weights(x), y)
    assert np.max(np.abs(dy - (12 * x**3 - 4 * x + 1))) < 1e-10


def test_local_derivative_nonuniform_grid():
    rng = np.random.default_rng(0)
    x = np.sort(rng.uniform(0.0, 2.0, 60))
    y = np.sin(x)
    dy = apply_stencil(stencil_weights(x), y)
    assert np.max(np.abs(dy - np.cos(x))) < 1e-6


def test_local_derivative_vector_samples():
    x = np.linspace(0.0, np.pi, 200)
    y = np.stack([np.sin(x), np.cos(2 * x)], axis=1)
    dy = apply_stencil(stencil_weights(x), y)
    want = np.stack([np.cos(x), -2 * np.sin(2 * x)], axis=1)
    assert np.max(np.abs(dy - want)) < 1e-9


def test_local_derivative_rejects_short_input():
    with pytest.raises(ValueError):
        apply_stencil(stencil_weights(np.array([0.0])), np.array([1.0]))


def _grids():
    rng = np.random.default_rng(5)
    yield np.linspace(0.0, 2.0, 41)                                   # uniform
    yield np.sort(rng.uniform(0.0, 2.0, 60))                          # non-uniform
    yield np.sort(rng.uniform(0.0, 2.0, (3, 25)), axis=-1)           # batched (k, N)
    yield np.array([0.0, 0.3, 0.7, 1.2, 1.5])                         # N < width


@pytest.mark.parametrize("x", list(_grids()), ids=["uniform", "nonuniform", "batched", "short"])
def test_curve_stencil_equals_one_shot(x):
    pts = np.stack([np.sin(x), x ** 2], axis=-1)
    curve = CurveGeometry(flat_metric(2), x, pts, pts)
    for y in (np.cos(3.0 * x), pts):
        assert np.array_equal(apply_stencil(curve.stencil, y),
                              apply_stencil(stencil_weights(x), y))


def _weights_node_by_node(x):
    """The stencil weights with one Vandermonde solve at every node."""
    n = x.shape[-1]
    width = min(7, n)
    d = x[..., _stencil_index(n, width)] - x[..., :, None]
    scale = np.max(np.abs(d), axis=-1, keepdims=True)
    vand = (d / scale)[..., None, :] ** np.arange(width)[:, None]
    rhs = np.zeros(vand.shape[:-1] + (1,))
    rhs[..., 1, 0] = 1.0
    return np.linalg.solve(vand, rhs)[..., 0] / scale


@pytest.mark.parametrize("x", [*_grids(), 0.25 + 1e-3 * np.arange(5001),
                               (np.arange(17) - 8) * np.array([1e-3, 3e-2])[:, None]],
                         ids=["uniform", "nonuniform", "batched", "short", "long-uniform",
                              "windows"])
def test_distinct_rows_solved_once_give_the_node_by_node_weights(x):
    # a uniform grid has few distinct rows of node offsets; each is solved
    # once, and the weights are bitwise those of a solve at every node
    assert stencil_weights(x).tobytes() == _weights_node_by_node(x).tobytes()


def test_trajectory_solves_its_weights_once(monkeypatch):
    solved = []

    def counting(x):
        solved.append(np.shape(x))
        return stencil_weights(x)

    stencil_weights = geometry.stencil_weights
    monkeypatch.setattr(geometry, "stencil_weights", counting)
    su = builtin_setup("sphere-cos")
    traj = integrate_newton(su.system, su.q0, su.v0, (0.0, 0.5), su.step)
    traj.cov_acceleration
    var = make_proper_variation(traj, seed=3, orthogonal=True)
    dev = equal_energy_projection(traj, var.values)
    hessian_operator(traj, dev)
    hessian_operator(traj, var.dev)
    assert solved == [traj.times.shape]


def test_central_diff_matches_gradient():
    def f(p):
        return p[..., 0] ** 2 * p[..., 1] + np.exp(p[..., 1])

    p = np.array([1.2, -0.3])
    d = central_diff(f, p, 1e-5)
    assert abs(d[0] - 2 * p[0] * p[1]) < 1e-9
    assert abs(d[1] - (p[0] ** 2 + np.exp(p[1]))) < 1e-9


def test_cumulative_simpson_quartic():
    x = np.linspace(0.0, 1.0, 101)
    s = cumulative_simpson(x**2, x)
    assert abs(s[0]) == 0.0
    assert np.max(np.abs(s - x**3 / 3.0)) < 1e-10


def test_stencil_index_is_built_once_and_read_only():
    index = _stencil_index(50, 7)
    assert _stencil_index(50, 7) is index
    assert not index.flags.writeable
    with pytest.raises(ValueError):
        index[0, 0] = 1


# The quadratures and the spline are ports of scipy 1.17's, float operation
# for float operation, so they must agree with scipy bit for bit.

def _bits(a):
    a = np.asarray(a, dtype=float)
    return a.shape, a.tobytes()


def _spline_grid(kind, n):
    if kind == "uniform":
        # linspace(0, 2, 3) has both spacings 1: scipy's symmetric N = 3 solve
        return np.linspace(0.0, 2.0, n)
    if kind == "offset":
        return 0.25 + 1e-3 * np.arange(n)
    return np.cumsum(np.random.default_rng(n).uniform(0.05, 1.0, n))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 100, 5001])
@pytest.mark.parametrize("kind", ["uniform", "offset", "random"])
@pytest.mark.parametrize("shape", [(), (4,)], ids=["1d", "columns"])
def test_cubic_spline_equals_scipy(n, kind, shape):
    x = _spline_grid(kind, n)
    rng = np.random.default_rng(7)
    y = rng.normal(size=(n,) + shape) * np.exp(rng.uniform(-3.0, 3.0, (n,) + shape))
    # the knots, the right end alone, and the RK4 stage midpoints
    points = np.concatenate([x, x[-1:], x[:-1] + 0.5 * np.diff(x)])
    assert _bits(cubic_spline(x, y)(points)) == \
        _bits(interpolate.CubicSpline(x, y, axis=0)(points))


def test_cubic_spline_row_interchange_equals_scipy():
    # the spacing jump after two short intervals puts the sub-diagonal
    # entry 11 under an eliminated pivot of 0.3, so dgtsv trades those rows
    # (and again at the second jump)
    x = np.array([0.0, 0.1, 0.3, 11.3, 11.4, 11.6, 25.0, 25.5])
    y = np.random.default_rng(3).normal(size=(8, 3))
    points = np.linspace(-1.0, 26.0, 271)
    assert _bits(cubic_spline(x, y)(points)) == \
        _bits(interpolate.CubicSpline(x, y, axis=0)(points))


def test_cubic_spline_turns_negative_zero_values_positive():
    # every term of the cubic at x = 0 is -0.0; evaluation adds them to 0.0
    x = np.arange(5.0)
    y = -np.array([0.0, 1.0, 3.0, 7.0, 15.0])
    got = cubic_spline(x, y)(x)
    assert np.signbit(y[0]) and not np.signbit(got[0])
    assert _bits(got) == _bits(interpolate.CubicSpline(x, y)(x))


def test_tridiagonal_solve_equals_lapack_dgtsv():
    rng = np.random.default_rng(11)
    for n in (2, 3, 4, 9, 30):
        for _ in range(20):
            dl, d, du = rng.normal(size=n - 1), rng.normal(size=n), rng.normal(size=n - 1)
            b = rng.normal(size=(n, 3))
            want = lapack.dgtsv(dl, d, du, b)[3]
            got = _tridiagonal_solve(dl.tolist(), d.tolist(), du.tolist(), b)
            assert _bits(got) == _bits(want)


@pytest.mark.parametrize("x, y", [
    ([0.0, 1.0, 2.0], [0.0, np.nan, 1.0]),
    ([0.0, 1.0, 2.0], [[0.0, 1.0], [np.inf, 0.0], [1.0, 1.0]]),
    ([0.0, 1.0, 1.0, 2.0], [0.0, 1.0, 2.0, 3.0]),
    ([0.0, 2.0, 1.0], [0.0, 1.0, 2.0]),
    ([0.0, np.nan, 1.0], [0.0, 1.0, 2.0]),
], ids=["nan", "inf", "repeated", "decreasing", "nan-node"])
def test_cubic_spline_rejects_what_scipy_rejects(x, y):
    with pytest.raises(ValueError):
        interpolate.CubicSpline(x, y, axis=0)
    with pytest.raises(ValueError):
        cubic_spline(x, y)
    with pytest.raises(ValueError):
        interpolate.PchipInterpolator(x, y, axis=0)
    with pytest.raises(ValueError):
        pchip(x, y)


def _pchip_samples(kind, n, shape, rng):
    y = rng.normal(size=(n,) + shape)
    if kind == "monotone":
        return np.cumsum(np.abs(y), axis=0)
    if kind == "flat":
        # runs of equal samples: flat chords, and chords of either sign next
        # to them
        return np.round(np.cumsum(y, axis=0))
    return y


@pytest.mark.parametrize("n", [2, 3, 4, 5, 17, 200])
@pytest.mark.parametrize("kind", ["monotone", "flat", "random"])
@pytest.mark.parametrize("grid", ["uniform", "random"])
@pytest.mark.parametrize("shape", [(), (3,)], ids=["1d", "columns"])
def test_pchip_equals_scipy(n, kind, grid, shape):
    x = _spline_grid(grid, n)
    rng = np.random.default_rng(n)
    for _ in range(5):
        y = _pchip_samples(kind, n, shape, rng)
        # the knots, the midpoints, and points just outside the end knots,
        # as the round trip asks for t up to t_max + 1e-12
        points = np.concatenate([x, x[:-1] + 0.5 * np.diff(x),
                                 [x[0] - 0.1, x[0] - 1e-12, x[-1] + 1e-12, x[-1] + 0.1]])
        assert _bits(pchip(x, y)(points)) == \
            _bits(interpolate.PchipInterpolator(x, y, axis=0)(points))


def test_pchip_end_slopes_equal_scipy():
    # the end slopes: the three-point estimate kept, set to 0 (its sign is
    # not the first chord's) and clipped to three chords (the chords change
    # sign and it is larger)
    x = np.array([0.0, 1.0, 1.1, 3.0])
    for y in ([0.0, 1.0, 3.0, 4.0], [0.0, 1.0, 0.0, 1.0], [0.0, 1.0, 1.5, 0.0],
              [0.0, 0.2, 0.0, 0.5]):
        points = np.linspace(-0.5, 3.5, 41)
        assert _bits(pchip(x, y)(points)) == _bits(interpolate.PchipInterpolator(x, y)(points))


def _cubics(seed, count):
    """Cubics with a sign change on [a, b]: random roots, and a bracket
    around the first."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        roots = np.sort(rng.uniform(-3.0, 3.0, 3))
        scale = rng.choice([-1.0, 1.0]) * np.exp(rng.uniform(-5.0, 5.0))
        a = roots[0] - rng.uniform(0.01, 1.0)
        b = min(roots[0] + rng.uniform(0.01, 1.0), 0.5 * (roots[0] + roots[1]))

        def f(t, roots=roots, scale=scale):
            return scale * (t - roots[0]) * (t - roots[1]) * (t - roots[2])
        yield f, a, b


@pytest.mark.parametrize("tolerances", [
    {}, {"xtol": 4 * np.finfo(float).eps, "rtol": 4 * np.finfo(float).eps},
    # loose tolerances stop at early iterates, whose bits the grouping of
    # each step's float operations decides
    {"xtol": 1e-1}, {"xtol": 1e-3}, {"xtol": 1e-6}],
    ids=["default", "event", "loose-1", "loose-3", "loose-6"])
def test_brentq_equals_scipy_on_cubics(tolerances):
    for f, a, b in _cubics(5, 300):
        got, want = brentq(f, a, b, **tolerances), optimize.brentq(f, a, b, **tolerances)
        assert isinstance(got, float) and _bits(got) == _bits(want)


def test_brentq_equals_scipy_on_the_conjugate_point_spline():
    # check_conjugate_point's bracket on its own spline, with both
    # tolerance pairs
    su = builtin_setup("sphere-free")
    traj = integrate_newton(su.system, su.q0, su.v0, (0.0, 3.5), su.step)
    v = integrate_deviation(traj, np.zeros(2), np.array([1.0, 0.0])).V[:, 0]
    comp = cubic_spline(traj.times, v)
    assert _bits(comp(np.linspace(2.9, 3.3, 101))) == \
        _bits(interpolate.CubicSpline(traj.times, v)(np.linspace(2.9, 3.3, 101)))
    for tol in ({}, {"xtol": 4 * np.finfo(float).eps, "rtol": 4 * np.finfo(float).eps}):
        assert _bits(brentq(comp, 2.9, 3.3, **tol)) == \
            _bits(optimize.brentq(interpolate.CubicSpline(traj.times, v), 2.9, 3.3, **tol))


def test_brentq_end_values_and_errors_as_scipy(monkeypatch):
    def cube(t):
        return t ** 3 - 2.0

    for a, b in ((2.0 ** (1 / 3), 3.0), (0.0, 2.0 ** (1 / 3))):       # a zero at an end
        assert brentq(cube, a, b) == optimize.brentq(cube, a, b)
    for args in ((lambda t: t * t + 1.0, 0.0, 1.0), (cube, 0.0, 1.0)):  # same sign
        for solver in (brentq, optimize.brentq):
            with pytest.raises(ValueError, match="different signs"):
                solver(*args)
    with pytest.raises(RuntimeError, match="converge after 2 iterations"):
        optimize.brentq(cube, 0.0, 2.0, maxiter=2)
    with monkeypatch.context() as m, pytest.raises(RuntimeError, match="converge after 2 "):
        m.setattr(numdiff, "_BRENTQ_MAXITER", 2)
        brentq(cube, 0.0, 2.0)
    for solver in (brentq, optimize.brentq):
        with pytest.raises(ValueError, match="NaN"):
            solver(lambda t: np.nan if t > 0.5 else -1.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="rtol"):
            solver(cube, 0.0, 2.0, rtol=1e-16)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 101, 1000])
def test_simpson_equals_scipy(n):
    rng = np.random.default_rng(n)
    for x in [_spline_grid("uniform", n),
              *(np.cumsum(rng.uniform(0.05, 1.0, n)) for _ in range(50))]:
        y = np.cos(3.0 * x) + rng.normal(size=n)
        assert _bits(simpson(y, x)) == _bits(integrate.simpson(y, x=x))
    assert isinstance(simpson(y, x), float)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 101, 1000])
@pytest.mark.parametrize("kind", ["uniform", "random"])
def test_cumulative_simpson_equals_scipy(n, kind):
    x = _spline_grid(kind, n)
    y = np.sin(2.0 * x) + np.random.default_rng(n).normal(size=n)
    assert _bits(cumulative_simpson(y, x)) == \
        _bits(integrate.cumulative_simpson(y, x=x, initial=0.0))


@pytest.mark.parametrize("n", [2, 17])
def test_cumulative_simpson_batched_equals_scipy(n):
    # one grid per row, as the lemma-2 windows integrate
    rng = np.random.default_rng(n)
    x = np.cumsum(rng.uniform(0.01, 0.1, (5, n)), axis=-1)
    y = rng.normal(size=(5, n))
    assert _bits(cumulative_simpson(y, x)) == \
        _bits(integrate.cumulative_simpson(y, x=x, initial=0.0))


@pytest.mark.parametrize("y", [[-0.0, -0.0], [-0.0, -0.0, 0.0]], ids=["trapezoid", "simpson"])
def test_cumulative_simpson_turns_negative_zero_sums_positive(y):
    # the first interval's integral is -0.0; scipy adds the initial value 0.0
    y = np.array(y)
    x = np.arange(len(y), dtype=float)
    got = cumulative_simpson(y, x)
    assert _bits(got) == _bits(integrate.cumulative_simpson(y, x=x, initial=0.0))
    assert not np.signbit(got).any()
