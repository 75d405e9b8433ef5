"""Uniform B-spline bases against a naive Cox-de Boor oracle."""

import numpy as np
import pytest
from scipy.special import expit

from audioinr import bspline
from audioinr.bspline import (
    SplineGrid,
    kan_layer,
    make_grid,
    spline_bases,
)
from audioinr.tensor import (
    ContractError,
    ShapeError,
    Tensor,
    backward,
    reshape,
)
from memory import traced
from unfused_ops import transpose, unfused_kan_layer


def naive_bases(grid: SplineGrid, x: np.ndarray, degree: int | None = None) -> np.ndarray:
    """Textbook Cox-de Boor recursion, one basis at a time.

    Returns the grid's n_bases functions of degree ``grid.order``, or all
    ``knots.size - 1 - degree`` functions of a lower ``degree``.
    """
    t = grid.knots
    k = grid.order if degree is None else degree
    top = grid.grid_size + grid.order  # index of the knot equal to hi
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    at_top = x == t[top]
    deg0 = np.zeros((x.size, t.size - 1))
    for i in range(t.size - 1):
        # half-open spans, except x == hi lands in the last in-domain span
        inside = (t[i] <= x) & (x < t[i + 1]) & ~at_top
        if i == top - 1:
            inside = inside | at_top
        deg0[:, i] = inside.astype(np.float64)
    cur = deg0
    for r in range(1, k + 1):
        nxt = np.zeros((x.size, cur.shape[1] - 1))
        for i in range(nxt.shape[1]):
            left = (x - t[i]) / (t[i + r] - t[i]) * cur[:, i]
            right = (t[i + r + 1] - x) / (t[i + r + 1] - t[i + 1]) * cur[:, i + 1]
            nxt[:, i] = left + right
        cur = nxt
    return cur


def naive_bases_grad(grid: SplineGrid, x: np.ndarray) -> np.ndarray:
    """dB_{i,k}/dx = k B_{i,k-1} / (t_{i+k} - t_i) - k B_{i+1,k-1} / (t_{i+k+1} - t_{i+1})."""
    t, k = grid.knots, grid.order
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if k == 0:
        return np.zeros((x.size, grid.n_bases))
    lower = naive_bases(grid, x, k - 1)
    out = np.zeros((x.size, grid.n_bases))
    for i in range(grid.n_bases):
        out[:, i] = (k * lower[:, i] / (t[i + k] - t[i])
                     - k * lower[:, i + 1] / (t[i + k + 1] - t[i + 1]))
    return out


def basis(grid: SplineGrid, x) -> np.ndarray:
    """Values of the spline_bases tape op, shape x.shape + (n_bases,)."""
    return spline_bases(Tensor(np.asarray(x, dtype=np.float64)), grid).data


def basis_grad(grid: SplineGrid, x) -> np.ndarray:
    """dB_i/dx from spline_bases' backward, one backward per basis: the
    gradient of sum_j B_i(x_j) at x_j is exactly dB_i/dx(x_j)."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    out = np.zeros((x.size, grid.n_bases))
    for i in range(grid.n_bases):
        xt = Tensor(x.copy(), requires_grad=True)
        pick = np.zeros((x.size, grid.n_bases))
        pick[:, i] = 1.0
        backward((spline_bases(xt, grid) * Tensor(pick)).sum())
        out[:, i] = xt.grad
    return out


@pytest.mark.parametrize("grid_size", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("order", [0, 1, 2, 3, 5])
def test_matches_naive_recursion(grid_size, order, rng):
    g = make_grid(grid_size, order, -1.0, 1.0)
    x = np.concatenate([rng.uniform(-1.0, 1.0, 200), [-1.0, 1.0]])
    got = basis(g, x)
    want = naive_bases(g, x)
    assert got.shape == (x.size, grid_size + order)
    np.testing.assert_allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("grid_size,order", [(1, 0), (4, 2), (10, 3), (7, 6)])
def test_partition_of_unity(grid_size, order, rng):
    g = make_grid(grid_size, order)
    x = np.concatenate([rng.uniform(-1.0, 1.0, 500), [-1.0, 1.0]])
    sums = basis(g, x).sum(axis=1)
    np.testing.assert_allclose(sums, 1.0, atol=1e-12)


def test_support_width(rng):
    g = make_grid(10, 3)
    x = rng.uniform(-1.0, 1.0, 300)
    counts = (basis(g, x) != 0.0).sum(axis=1)
    assert counts.max() <= g.order + 1


def test_nonnegative(rng):
    g = make_grid(6, 4)
    x = rng.uniform(-1.0, 1.0, 300)
    assert basis(g, x).min() >= 0.0


def test_out_of_domain_clamps():
    g = make_grid(5, 2)
    hi = basis(g, np.array([1.0]))
    lo = basis(g, np.array([-1.0]))
    np.testing.assert_array_equal(basis(g, np.array([3.7])), hi)
    np.testing.assert_array_equal(basis(g, np.array([-2.5])), lo)


def test_custom_interval(rng):
    g = make_grid(4, 2, 0.0, 10.0)
    x = rng.uniform(0.0, 10.0, 100)
    np.testing.assert_allclose(basis(g, x), naive_bases(g, x), atol=1e-12)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_grad_matches_finite_differences(order, rng):
    g = make_grid(6, order)
    # stay away from knots so finite differences do not straddle a kink
    x = rng.uniform(-0.95, 0.95, 120)
    step = (g.hi - g.lo) / g.grid_size
    dist = np.abs(x[:, None] - g.knots[None, :]).min(axis=1)
    x = x[dist > 1e-3 * step]
    h = 1e-6
    fd = (basis(g, x + h) - basis(g, x - h)) / (2.0 * h)
    np.testing.assert_allclose(basis_grad(g, x), fd, atol=1e-5)


def test_grad_order_zero_is_zero(rng):
    g = make_grid(4, 0)
    x = rng.uniform(-1.0, 1.0, 50)
    np.testing.assert_array_equal(basis_grad(g, x), 0.0)


def test_grad_sums_to_zero(rng):
    # derivative of the partition of unity
    g = make_grid(8, 3)
    x = rng.uniform(-1.0, 1.0, 200)
    np.testing.assert_allclose(basis_grad(g, x).sum(axis=1), 0.0, atol=1e-10)


def test_spline_eval_is_dot_product(rng):
    # a one-input, one-output KAN layer with no SiLU branch is the spline
    g = make_grid(7, 2)
    coeffs = rng.standard_normal(g.grid_size + g.order)
    x = rng.uniform(-1.0, 1.0, 64)
    want = basis(g, x) @ coeffs
    got = kan_layer(Tensor(x[:, None]), Tensor(np.zeros((1, 1))), None,
                    Tensor(coeffs[None, None, :]), g).data[:, 0]
    np.testing.assert_allclose(got, want, atol=1e-14)


def test_spline_eval_constant(rng):
    g = make_grid(5, 3)
    x = rng.uniform(-1.0, 1.0, 64)
    ones = np.ones(g.grid_size + g.order)
    np.testing.assert_allclose(basis(g, x) @ ones, 1.0, atol=1e-12)


def test_make_grid_validation():
    with pytest.raises(ContractError):
        make_grid(0, 2)
    with pytest.raises(ContractError):
        make_grid(5, -1)
    with pytest.raises(ContractError):
        make_grid(5, 2, 1.0, -1.0)


def test_tape_op_forward_matches(rng):
    g = make_grid(6, 2)
    xs = rng.uniform(-1.0, 1.0, (5, 8))
    t = Tensor(xs)
    got = spline_bases(t, g).data
    np.testing.assert_array_equal(got, basis(g, xs.reshape(-1)).reshape(5, 8, -1))
    np.testing.assert_allclose(got.reshape(40, -1), naive_bases(g, xs), atol=1e-12)


def test_tape_op_gradient(rng):
    g = make_grid(6, 3)
    xs = rng.uniform(-0.9, 0.9, 40)
    t = Tensor(xs, requires_grad=True)
    w = rng.standard_normal((40, g.grid_size + g.order))
    loss = (spline_bases(t, g) * Tensor(w)).sum()
    backward(loss)
    want = (w * naive_bases_grad(g, xs)).sum(axis=1)
    np.testing.assert_allclose(t.grad, want, atol=1e-12)


def test_tape_op_constant_input(rng):
    g = make_grid(4, 2)
    t = Tensor(rng.uniform(-1.0, 1.0, 10))
    out = spline_bases(t, g)
    assert not out.requires_grad


# -- fused KAN layer -----------------------------------------------------------


KAN_D_IN, KAN_D_OUT, KAN_GRID = 4, 3, 5


def kan_case(rng, n, order, scale_spline, dtype=np.float64):
    """Leaves (x, w_b, w_s, coeffs), the grid and an upstream weight, with
    inputs beyond [-1, 1] and exactly at both ends."""
    grid = make_grid(KAN_GRID, order)
    x = rng.uniform(-1.3, 1.3, (n, KAN_D_IN))
    x.reshape(-1)[::7] = 1.0
    x.reshape(-1)[3::11] = -1.0
    shapes = [(KAN_D_OUT, KAN_D_IN)] * 2 + [(KAN_D_OUT, KAN_D_IN, grid.n_bases)]
    w_b, w_s, coeffs = (rng.standard_normal(s) for s in shapes)
    leaves = [Tensor(a.astype(dtype), requires_grad=True)
              for a in (x, w_b, w_s, coeffs)]
    if not scale_spline:
        leaves[2] = None
    upstream = rng.standard_normal((n, KAN_D_OUT)).astype(dtype)
    return leaves, grid, upstream


def out_and_grads(op, leaves, grid, upstream):
    out = op(*leaves, grid)
    backward((out * Tensor(upstream)).sum())
    return out.data, [t.grad for t in leaves if t is not None]


def kan_rows(order):
    return max(1, bspline.BUDGET // (KAN_D_IN * (KAN_GRID + order)))


def assert_rel_close(got, want, rel):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rel * np.abs(want).max()


@pytest.mark.parametrize("order", [0, 2, 3])
@pytest.mark.parametrize("scale_spline", [True, False])
@pytest.mark.parametrize("blocks", ["partial", "exact", "ragged"])
def test_kan_layer_matches_unfused_graph(order, scale_spline, blocks, rng):
    rows = kan_rows(order)
    n = {"partial": rows // 3, "exact": 2 * rows, "ragged": 2 * rows + 37}[blocks]
    leaves, grid, up = kan_case(rng, n, order, scale_spline)
    got, got_grads = out_and_grads(kan_layer, leaves, grid, up)
    want, want_grads = out_and_grads(unfused_kan_layer, leaves, grid, up)
    assert_rel_close(got, want, 1e-12)
    assert len(got_grads) == len(want_grads)
    for g, w in zip(got_grads, want_grads):
        assert_rel_close(g, w, 1e-12)


def paper_kan_case(rng, dtype=np.float64):
    """Leaves (x, w_b, w_s, coeffs) and the grid of a KAN layer at the
    paper's first hidden widths, 48 -> 24, over 16384 rows."""
    n, d_in, d_out = 16384, 48, 24
    grid = make_grid(10, 2)
    x = rng.uniform(-1.2, 1.2, (n, d_in))
    w_b, w_s = (rng.standard_normal((d_out, d_in)) for _ in range(2))
    coeffs = rng.standard_normal((d_out, d_in, grid.n_bases))
    return [Tensor(a.astype(dtype), requires_grad=True) for a in (x, w_b, w_s, coeffs)], grid


def test_kan_layer_graph_holds_no_per_point_state(rng):
    # the node may keep x, the parameters and eff, but no cell, band,
    # sigmoid or mask per (row, input) point
    leaves, grid = paper_kan_case(rng)
    x = leaves[0]
    n, d_out = x.shape[0], leaves[1].shape[0]
    out, held, _ = traced(kan_layer, *leaves, grid)
    held -= out.data.nbytes
    assert held < x.data.nbytes / 4

    loss = (out * Tensor(rng.standard_normal((n, d_out)))).sum()
    first = [g.copy() for g in backward(loss, leaves=leaves).values()]
    second = list(backward(loss, leaves=leaves).values())
    for a, b in zip(first, second):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_kan_layer_backward_peak_memory(dtype, rng):
    # the backward holds one (n, d_in) buffer (the SiLU, then dx), the
    # (n, d_out) upstream gradient and one row block's temporaries; the
    # sigmoid, the SiLU derivative and their products are never (n, d_in)
    # arrays
    leaves, grid = paper_kan_case(rng, dtype)
    x = leaves[0]
    out = kan_layer(*leaves, grid)
    loss = (out * Tensor(rng.standard_normal(out.shape).astype(dtype))).sum()
    _, _, peak = traced(backward, loss, leaves=leaves)
    assert peak <= 2.0 * x.data.nbytes


@pytest.mark.parametrize("order", [0, 2, 3])
@pytest.mark.parametrize("frozen", [(0,), (1,), (2, 3), (0, 1)],
                         ids=["x", "w_b", "w_s+coeffs", "x+w_b"])
def test_kan_layer_frozen_leaves(order, frozen, rng):
    # each gradient that is still asked for comes out as in the all-leaves run
    n = 2 * kan_rows(order) + 37
    leaves, grid, up = kan_case(rng, n, order, True)
    _, all_grads = out_and_grads(kan_layer, leaves, grid, up)

    def part():
        return [Tensor(t.data, requires_grad=i not in frozen) for i, t in enumerate(leaves)]

    _, got = out_and_grads(kan_layer, part(), grid, up)
    _, want = out_and_grads(unfused_kan_layer, part(), grid, up)
    for i in range(len(leaves)):
        if i in frozen:
            assert got[i] is None
        else:
            assert np.array_equal(got[i], all_grads[i])
            assert_rel_close(got[i], want[i], 1e-12)


def test_kan_layer_spline_only_backward_builds_no_row_array(rng):
    # with neither x nor w_b needing a gradient, the backward allocates
    # nothing of shape (n, d_in), only eff-sized arrays and block temporaries
    leaves, grid = paper_kan_case(rng)
    x, w_b = Tensor(leaves[0].data), Tensor(leaves[1].data)
    out = kan_layer(x, w_b, *leaves[2:], grid)
    g = rng.standard_normal(out.shape)
    _, _, peak = traced(out._backward, g)
    assert peak < 0.5 * x.data.nbytes
    assert all(t.grad is not None for t in leaves[2:])


def test_sigmoid_matches_expit():
    x = np.concatenate([np.linspace(-800.0, 800.0, 100001), np.linspace(-8.0, 8.0, 100001)])
    np.testing.assert_allclose(bspline._sigmoid(x), expit(x), rtol=0, atol=1e-15)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_keeps_dtype_and_raises_no_fp_error(dtype):
    x = np.array([-1e4, -100.0, 0.0, 100.0, 1e4], dtype=dtype)
    with np.errstate(all="raise"):
        s = bspline._sigmoid(x)
    assert s.dtype == dtype
    np.testing.assert_array_equal(s, np.array([0.0, 0.0, 0.5, 1.0, 1.0], dtype=dtype))


@pytest.mark.parametrize("order", [0, 2, 3])
@pytest.mark.parametrize("scale_spline", [True, False])
def test_kan_layer_float32_gradients(order, scale_spline, rng):
    n = kan_rows(order) + 37
    leaves32, grid, up = kan_case(rng, n, order, scale_spline, np.float32)
    leaves64 = [None if t is None else Tensor(t.data.astype(np.float64), requires_grad=True)
                for t in leaves32]
    out32, grads32 = out_and_grads(kan_layer, leaves32, grid, up)
    out64, grads64 = out_and_grads(kan_layer, leaves64, grid, up.astype(np.float64))
    assert out32.dtype == np.float32
    assert_rel_close(out32.astype(np.float64), out64, 1e-5)
    for g32, g64 in zip(grads32, grads64):
        assert g32.dtype == np.float32
        assert_rel_close(g32.astype(np.float64), g64, 1e-5)


def test_kan_layer_constant_inputs_build_no_graph(rng):
    leaves, grid, _ = kan_case(rng, 10, 2, True)
    out = kan_layer(*(Tensor(t.data) for t in leaves), grid)
    assert not out.requires_grad


def test_kan_layer_shape_checks(rng):
    (x, w_b, w_s, coeffs), grid, _ = kan_case(rng, 10, 2, True)
    with pytest.raises(ShapeError):
        kan_layer(reshape(x, (40,)), w_b, w_s, coeffs, grid)
    with pytest.raises(ShapeError):
        kan_layer(x, w_b, w_s, coeffs, make_grid(KAN_GRID + 1, 2))
    with pytest.raises(ShapeError):
        kan_layer(x, w_b, transpose(w_s), coeffs, grid)


def test_kan_layer_zero_width_input_raises_shape_error():
    grid = make_grid(KAN_GRID, 2)
    with pytest.raises(ShapeError, match="at least one column"):
        kan_layer(Tensor(np.zeros((10, 0))), Tensor(np.zeros((KAN_D_OUT, 0))), None,
                  Tensor(np.zeros((KAN_D_OUT, 0, grid.n_bases))), grid)
