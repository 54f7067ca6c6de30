import numpy as np
import pytest

from jacobistab import geometry
from jacobistab.dynamics import hessian_operator, integrate_newton
from jacobistab.geometry import SampledCurve
from jacobistab.jacobi import equal_energy_projection
from jacobistab.numdiff import (_stencil_index, apply_stencil, central_diff, central_diff2,
                                cumulative_simpson, local_derivative, stencil_weights)
from jacobistab.systems import builtin_setup
from jacobistab.variation import make_proper_variation


def test_local_derivative_exact_on_polynomials():
    x = np.linspace(0.0, 1.0, 25)
    y = 3.0 * x**4 - 2.0 * x**2 + x - 5.0
    dy = local_derivative(x, y)
    assert np.max(np.abs(dy - (12 * x**3 - 4 * x + 1))) < 1e-10


def test_local_derivative_nonuniform_grid():
    rng = np.random.default_rng(0)
    x = np.sort(rng.uniform(0.0, 2.0, 60))
    y = np.sin(x)
    dy = local_derivative(x, y)
    assert np.max(np.abs(dy - np.cos(x))) < 1e-6


def test_local_derivative_vector_samples():
    x = np.linspace(0.0, np.pi, 200)
    y = np.stack([np.sin(x), np.cos(2 * x)], axis=1)
    dy = local_derivative(x, y)
    want = np.stack([np.cos(x), -2 * np.sin(2 * x)], axis=1)
    assert np.max(np.abs(dy - want)) < 1e-9


def test_local_derivative_rejects_short_input():
    with pytest.raises(ValueError):
        local_derivative(np.array([0.0]), np.array([1.0]))


def _grids():
    rng = np.random.default_rng(5)
    yield np.linspace(0.0, 2.0, 41)                                   # uniform
    yield np.sort(rng.uniform(0.0, 2.0, 60))                          # non-uniform
    yield np.sort(rng.uniform(0.0, 2.0, (3, 25)), axis=-1)           # batched (k, N)
    yield np.array([0.0, 0.3, 0.7, 1.2, 1.5])                         # N < width


@pytest.mark.parametrize("x", list(_grids()), ids=["uniform", "nonuniform", "batched", "short"])
def test_curve_stencil_equals_one_shot(x):
    pts = np.stack([np.sin(x), x ** 2], axis=-1)
    curve = SampledCurve(x, pts, pts)
    for y in (np.cos(3.0 * x), pts):
        assert np.array_equal(apply_stencil(curve.stencil, y),
                              local_derivative(x, y))


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


def test_central_diff2_symmetric():
    def f(p):
        return np.sin(p[..., 0]) * p[..., 1] ** 3

    p = np.array([0.7, 1.1])
    h = central_diff2(f, p, 1e-4)
    assert h.shape == (2, 2)
    assert abs(h[0, 1] - h[1, 0]) < 1e-12
    assert abs(h[0, 1] - 3 * np.cos(p[0]) * p[1] ** 2) < 1e-6


def test_cumulative_simpson_quartic():
    x = np.linspace(0.0, 1.0, 101)
    s = cumulative_simpson(x**2, x)
    assert abs(s[0]) == 0.0
    assert np.max(np.abs(s - x**3 / 3.0)) < 1e-10
