import operator
import threading

import numpy as np
import pytest

from audioinr import tensor as T
from audioinr.tensor import (Tensor, ContractError, DomainError, ShapeError,
                             backward, grad_check)
import unfused_ops as U
from memory import traced


def leaf(data):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)


def num_grad(f, t, h=1e-6):
    """Central differences of a scalar-valued closure w.r.t. one tensor."""
    g = np.zeros_like(t.data)
    flat = t.data.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = float(f().data)
        flat[i] = orig - h
        lo = float(f().data)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * h)
    return g


# -- dtype plumbing ----------------------------------------------------------


def test_default_dtype_context():
    assert T.get_default_dtype() == np.float64
    with T.default_dtype("float32"):
        assert T.get_default_dtype() == np.float32
        assert Tensor([1.0]).data.dtype == np.float32
    assert T.get_default_dtype() == np.float64


def test_non_float_arrays_take_default_dtype():
    assert Tensor(np.arange(3)).data.dtype == np.float64
    assert Tensor(np.array([True, False])).data.dtype == np.float64
    with T.default_dtype("float32"):
        assert Tensor(np.arange(3)).data.dtype == np.float32
        f64 = np.ones(2)
        assert Tensor(f64).data is f64
    np.testing.assert_array_equal(Tensor(np.arange(3)).data, [0.0, 1.0, 2.0])


def test_tensor_repr_and_item():
    t = Tensor(np.array(2.5))
    assert repr(t) == "Tensor(shape=(), requires_grad=False)"
    assert t.item() == 2.5
    assert Tensor(np.array([1.0, 2.0])).shape == (2,)


# -- arithmetic forward values ------------------------------------------------


def test_binary_forward_values(rng):
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((3, 4)) + 2.0
    ta, tb = Tensor(a), Tensor(b)
    np.testing.assert_array_equal((ta + tb).data, a + b)
    np.testing.assert_array_equal((ta - tb).data, a - b)
    np.testing.assert_array_equal((ta * tb).data, a * b)
    np.testing.assert_array_equal((ta / tb).data, a / b)
    np.testing.assert_array_equal(ta.scale(2.0).data, 2.0 * a)
    np.testing.assert_array_equal(ta.scale(-1.0).shift(1.0).data, 1.0 - a)


def test_div_by_zero_raises():
    with pytest.raises(DomainError):
        Tensor([1.0]) / Tensor([0.0])


def test_shape_mismatch_raises():
    # binary ops take equal shapes only: no scalar, scalar-left or bias broadcasting
    a = Tensor(np.ones((2, 3)))
    for b in (np.ones((3, 2)), np.ones(3), np.array(2.0), 2.0):
        with pytest.raises(ShapeError):
            a + b
        with pytest.raises(ShapeError):
            Tensor(b) * a


# -- gradients of every op family ---------------------------------------------


BINARY = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
          "div": operator.truediv}


@pytest.mark.parametrize("op", BINARY)
def test_binary_grads_equal_shapes(op, rng):
    a = leaf(rng.standard_normal((3, 4)))
    b = leaf(rng.standard_normal((3, 4)) + 3.0)

    def f():
        return BINARY[op](a, b).sum()

    loss = f()
    backward(loss)
    np.testing.assert_allclose(a.grad, num_grad(f, a), atol=1e-7)
    np.testing.assert_allclose(b.grad, num_grad(f, b), atol=1e-7)


def test_trailing_axis_broadcast_grad(rng):
    # the bias add of the unfused oracles
    a = leaf(rng.standard_normal((6, 3)))
    bias = leaf(rng.standard_normal(3))

    def f():
        return (U.add_bias(a, bias) * U.add_bias(a, bias)).sum()

    backward(f())
    np.testing.assert_allclose(bias.grad, num_grad(f, bias), atol=1e-6)


def test_matmul_grad(rng):
    a = leaf(rng.standard_normal((4, 3)))
    b = leaf(rng.standard_normal((3, 5)))

    def f():
        return U.matmul(a, b).sum()

    backward(f())
    np.testing.assert_allclose(a.grad, num_grad(f, a), atol=1e-7)
    np.testing.assert_allclose(b.grad, num_grad(f, b), atol=1e-7)


@pytest.mark.parametrize("rows", [1, 6])
@pytest.mark.parametrize("with_bias", [True, False])
def test_linear_grad_check(rows, with_bias, rng):
    x = leaf(rng.standard_normal((rows, 4)))
    w = leaf(rng.standard_normal((3, 4)))
    b = leaf(rng.standard_normal(3)) if with_bias else None
    c = Tensor(rng.standard_normal((rows, 3)))

    def f(*ts):
        return (T.linear(x, w, b).sin() * c).sum()

    inputs = [x, w, b] if with_bias else [x, w]
    assert grad_check(f, inputs) < 1e-7
    want = x.data @ w.data.T + (b.data if with_bias else 0.0)
    np.testing.assert_array_equal(T.linear(x, w, b).data, want)


def test_linear_repeated_use_accumulates(rng):
    # the second backward write into each parent adds to the first
    x = leaf(rng.standard_normal((5, 4)))
    w = leaf(rng.standard_normal((3, 4)))
    b = leaf(rng.standard_normal(3))

    def f():
        return T.linear(x, w, b).square().sum() + T.linear(x, w, b).scale(2.0).sum()

    backward(f())
    for t in (x, w, b):
        np.testing.assert_allclose(t.grad, num_grad(f, t), rtol=1e-6, atol=1e-7)


def test_linear_float32_grads_match_float64(rng):
    vals = [rng.standard_normal(s).astype(np.float32) for s in ((64, 16), (8, 16), (8,))]
    c = rng.standard_normal((64, 8))

    def grads(dtype):
        x, w, b = (Tensor(v.astype(dtype), requires_grad=True) for v in vals)
        out = T.linear(x, w, b)
        assert out.data.dtype == dtype
        backward((out.sin() * Tensor(c.astype(dtype))).sum())
        for t in (x, w, b):
            assert t.grad.dtype == dtype
        return [x.grad, w.grad, b.grad]

    for g32, g64 in zip(grads(np.float32), grads(np.float64)):
        assert np.abs(g32 - g64).max() <= 1e-5 * np.abs(g64).max()


def test_linear_shape_errors():
    x, w = leaf(np.ones((2, 3))), leaf(np.ones((4, 3)))
    with pytest.raises(ShapeError):
        T.linear(leaf(np.ones(3)), w)
    with pytest.raises(ShapeError):
        T.linear(x, leaf(np.ones(3)))
    with pytest.raises(ShapeError):
        T.linear(x, leaf(np.ones((4, 2))))
    with pytest.raises(ShapeError):
        T.linear(x, w, leaf(np.ones(3)))
    with pytest.raises(ShapeError):
        T.linear(x, w, leaf(np.ones((1, 4))))


def test_linear_rejects_unknown_activation():
    with pytest.raises(ContractError):
        T.linear(leaf(np.ones((2, 3))), leaf(np.ones((4, 3))), act="tanh")


# -- fused dense activations -----------------------------------------------------

ACTS = [None, "relu", "sin", "finer"]


def dense_inputs(rng, dtype=np.float64, n=64, d_in=16, d_out=8):
    vals = [rng.standard_normal((n, d_in)), rng.standard_normal((d_out, d_in)) / 4.0,
            rng.standard_normal(d_out)]
    return [Tensor(v.astype(dtype), requires_grad=True) for v in vals]


@pytest.mark.parametrize("omega0", [1.0, 3.0])
@pytest.mark.parametrize("act", ACTS)
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_dense_bitwise_equal_to_unfused_graph(act, omega0, dtype, rng):
    c = rng.standard_normal((64, 8)).astype(dtype)

    def run(fn):
        x, w, b = dense_inputs(np.random.default_rng(3), dtype)
        out = fn(x, w, b, act=act, omega0=omega0)
        backward((out * Tensor(c)).sum())
        return [out.data, x.grad, w.grad, b.grad]

    for got, want in zip(run(T.linear), run(U.unfused_dense)):
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("act", ACTS)
def test_dense_grad_check(act, rng):
    x, w, b = dense_inputs(rng, n=6, d_in=4, d_out=3)
    c = Tensor(rng.standard_normal((6, 3)))

    def f(*ts):
        return (T.linear(x, w, b, act=act, omega0=2.0) * c).sum()

    assert grad_check(f, [x, w, b]) < 1e-6


@pytest.mark.parametrize("act", ACTS)
def test_dense_float32_grads_match_float64(act, rng):
    vals = [t.data for t in dense_inputs(rng)]
    c = rng.standard_normal((64, 8))

    def grads(dtype):
        x, w, b = (Tensor(v.astype(dtype), requires_grad=True) for v in vals)
        out = T.linear(x, w, b, act=act, omega0=2.0)
        assert out.data.dtype == dtype
        backward((out * Tensor(c.astype(dtype))).sum())
        for t in (x, w, b):
            assert t.grad.dtype == dtype
        return [x.grad, w.grad, b.grad]

    for g32, g64 in zip(grads(np.float32), grads(np.float64)):
        assert np.abs(g32 - g64).max() <= 1e-5 * np.abs(g64).max()


@pytest.mark.parametrize("act", ["relu", "sin", "finer"])
def test_dense_untaped_matches_taped(act, rng):
    x, w, b = dense_inputs(rng)
    taped = T.linear(x, w, b, act=act, omega0=30.0)
    with T.no_grad():
        bare = T.linear(x, w, b, act=act, omega0=30.0)
    assert not bare.requires_grad and bare._backward is None
    np.testing.assert_array_equal(bare.data, taped.data)


@pytest.mark.parametrize("act, bound", [("relu", 0.05), ("sin", 0.05), ("finer", 0.05)])
def test_dense_node_holds_at_most_its_bound(act, bound, rng):
    # beyond its output, a taped (4096, 128) hidden layer keeps nothing: the
    # sin and FINER backward recomputes z
    x, w, b = (Tensor(rng.standard_normal(s) / 8.0, requires_grad=True)
               for s in ((4096, 128), (128, 128), (128,)))
    out, held, _ = traced(T.linear, x, w, b, act=act, omega0=30.0)
    held -= out.data.nbytes
    assert held <= bound * out.data.nbytes, held / out.data.nbytes
    backward(out.sum())
    assert x.grad.shape == x.shape


# -- the Gabor layer -----------------------------------------------------------


def gabor_inputs(rng, first, n=6, d_in=3, d_out=4):
    x = rng.uniform(-1.0, 1.0, (n, 1)) if first else 0.3 * rng.standard_normal((2, n, d_in))
    w = rng.standard_normal((d_out, x.shape[-1])) / np.sqrt(x.shape[-1])
    return [x, w, rng.uniform(-0.5, 0.5, d_out)]


@pytest.mark.parametrize("first", [True, False])
def test_gabor_layer_grad_check(first, rng):
    x, w, b = (leaf(v) for v in gabor_inputs(rng, first))
    c = Tensor(rng.standard_normal((2, x.shape[-2], w.shape[0])))

    def f(*ts):
        return (T.gabor_layer(x, w, b, 5.0, 2.0) * c).sum()

    assert grad_check(f, [x, w, b]) < 1e-6


def test_gabor_layer_floors_the_envelope():
    # one unit far out on the Gaussian: its output and every gradient through
    # it are exactly zero, in float32 as in float64
    for dt in (np.float32, np.float64):
        floor = T.gabor_floor(dt)
        assert floor == pytest.approx(0.5 * np.log(np.finfo(dt).tiny))
        s0 = 10.0
        z = np.array([0.0, np.sqrt(-floor) / s0 * 1.01], dtype=dt)
        x = Tensor(np.ones((1, 1), dtype=dt), requires_grad=True)
        w = Tensor(z[:, None], requires_grad=True)
        b = Tensor(np.zeros(2, dtype=dt), requires_grad=True)
        out = T.gabor_layer(x, w, b, 20.0, s0)
        assert out.data.dtype == dt
        assert out.data[0, 0, 0] == 1.0 and np.all(out.data[:, 0, 1] == 0.0)
        backward((out * Tensor(np.ones((2, 1, 2), dtype=dt))).sum())
        assert w.grad[1, 0] == 0.0 and b.grad[1] == 0.0


@pytest.mark.parametrize("first", [True, False])
def test_gabor_layer_float32_grads_match_float64(first, rng):
    # measured worst over 20 seeds: 6.0e-6 of the largest entry
    vals = [v.astype(np.float32) for v in gabor_inputs(rng, first, n=512, d_in=32, d_out=32)]
    c = rng.standard_normal((2, 512, 32))

    def grads(dtype):
        ts = [Tensor(v.astype(dtype), requires_grad=True) for v in vals]
        out = T.gabor_layer(*ts, 20.0, 10.0)
        assert out.data.dtype == dtype
        backward((out * Tensor(c.astype(dtype))).sum())
        for t in ts:
            assert t.grad.dtype == dtype
        return [t.grad for t in ts]

    for g32, g64 in zip(grads(np.float32), grads(np.float64)):
        assert np.abs(g32 - g64).max() <= 2e-5 * np.abs(g64).max()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gabor_layer_works_in_place(dtype, rng):
    # a taped (4096, 128) hidden layer allocates z and the output in its
    # forward (the angle is written over z's real half); its backward
    # recomputes z, writes the gradient at z over it with two scratch
    # arrays, then allocates the input gradient
    x, w, b = (Tensor((rng.standard_normal(s) / 8.0).astype(dtype), requires_grad=True)
               for s in ((2, 4096, 128), (128, 128), (128,)))
    g = rng.standard_normal((2, 4096, 128)).astype(dtype)
    out, _, forward_peak = traced(T.gabor_layer, x, w, b, 20.0, 10.0)
    _, _, backward_peak = traced(out._backward, g)
    size = out.data.nbytes
    assert forward_peak <= 2.55 * size, forward_peak / size
    assert backward_peak <= 2.05 * size, backward_peak / size
    assert x.grad.shape == x.shape and w.grad.shape == w.shape


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gabor_forward_peaks_at_z_and_its_output(dtype, rng):
    # the floor's mask is written over the output's real half, so a taped
    # (2, 4096, 128) layer's forward allocates z and the output and little else
    x, w, b = (Tensor((rng.standard_normal(s) / 8.0).astype(dtype), requires_grad=True)
               for s in ((2, 4096, 128), (128, 128), (128,)))
    out, _, forward_peak = traced(T.gabor_layer, x, w, b, 20.0, 10.0)
    assert forward_peak <= 2.01 * out.data.nbytes, forward_peak / out.data.nbytes


@pytest.mark.parametrize("first", [True, False])
def test_gabor_node_holds_only_its_output(first, rng):
    # beyond its output, a taped (4096, 128) hidden layer keeps nothing: the
    # backward recomputes z
    x = rng.uniform(-1.0, 1.0, (4096, 1)) if first else rng.standard_normal((2, 4096, 128))
    x, w, b = (Tensor(v / 8.0, requires_grad=True)
               for v in (x, rng.standard_normal((128, x.shape[-1])),
                         rng.standard_normal(128)))
    out, held, _ = traced(T.gabor_layer, x, w, b, 20.0, 10.0)
    held -= out.data.nbytes
    assert held <= 0.05 * out.data.nbytes, held / out.data.nbytes
    backward(out.sum())
    assert x.grad.shape == x.shape


def test_gabor_layer_shape_errors():
    w, b = leaf(np.ones((4, 3))), leaf(np.ones(4))
    for bad_x in (np.ones(3), np.ones((3, 2, 3)), np.ones((2, 2, 2, 3)), np.ones((2, 2))):
        with pytest.raises(ShapeError):
            T.gabor_layer(leaf(bad_x), w, b, 20.0, 10.0)
    x = leaf(np.ones((2, 5, 3)))
    with pytest.raises(ShapeError):
        T.gabor_layer(x, leaf(np.ones(3)), b, 20.0, 10.0)
    with pytest.raises(ShapeError):
        T.gabor_layer(x, w, leaf(np.ones(3)), 20.0, 10.0)
    with pytest.raises(ShapeError):
        T.gabor_layer(x, w, leaf(np.ones((1, 4))), 20.0, 10.0)


# cos, exp and silu are the unfused oracles' activations; negation is scale(-1)
UNARY_CASES = [
    ("sin", None, (-2.0, 2.0)),
    ("cos", None, (-2.0, 2.0)),
    ("exp", None, (-1.0, 1.0)),
    ("log", None, (0.5, 3.0)),
    ("square", None, (-2.0, 2.0)),
    ("sqrt", None, (0.5, 3.0)),
    ("relu", None, (-2.0, 2.0)),
    ("silu", None, (-3.0, 3.0)),
    ("scale", -1.0, (-2.0, 2.0)),
    ("scale", 1.7, (-2.0, 2.0)),
    ("shift", 0.3, (-2.0, 2.0)),
    ("clamp", (-0.5, 0.5), (-2.0, 2.0)),
]


@pytest.mark.parametrize("tag,alpha,rng_range", UNARY_CASES)
def test_unary_grads(tag, alpha, rng_range, rng):
    lo, hi = rng_range
    a = leaf(rng.uniform(lo, hi, size=7))

    def f():
        if tag == "clamp":
            return a.clamp(*alpha).sum()
        if tag in U.UNARY:
            return U.UNARY[tag](a).sum()
        return getattr(a, tag)(*(() if alpha is None else (alpha,))).sum()

    backward(f())
    np.testing.assert_allclose(a.grad, num_grad(f, a), atol=1e-5, rtol=1e-5)


def test_unary_forward_values(rng):
    x = rng.uniform(0.3, 2.0, 5)
    t = Tensor(x)
    np.testing.assert_allclose(t.sin().data, np.sin(x))
    np.testing.assert_allclose(U.exp(t).data, np.exp(x))
    np.testing.assert_allclose(t.log().data, np.log(x))
    np.testing.assert_allclose(t.sqrt().data, np.sqrt(x))
    np.testing.assert_allclose(U.silu(t).data, x / (1.0 + np.exp(-x)))
    np.testing.assert_allclose(t.clamp(0.5, 1.0).data, np.clip(x, 0.5, 1.0))
    np.testing.assert_allclose(t.scale(-1.0).data, -x)


def test_abs_grad_zero_at_zero():
    a = leaf(np.array([-1.0, 0.0, 2.0]))
    backward(a.abs().sum())
    np.testing.assert_array_equal(a.grad, [-1.0, 0.0, 1.0])


def test_log_domain_error():
    with pytest.raises(DomainError):
        Tensor([0.0]).log()
    with pytest.raises(DomainError):
        Tensor([-1.0]).log()


def test_sqrt_guard_no_nan_grad():
    a = leaf(np.array([0.0, 1e-30, 4.0]))
    backward(a.sqrt().sum())
    assert np.all(np.isfinite(a.grad))


# -- reductions and structure --------------------------------------------------


def test_reduce_values_and_grads(rng):
    a = leaf(rng.standard_normal((3, 4)))

    for tag, axis in [("sum", None), ("mean", None), ("sum", 0), ("mean", 1)]:
        def f():
            r = getattr(a, tag)(axis)
            return r if r.data.ndim == 0 else r.sum()

        ref = getattr(np, tag)(a.data, axis=axis)
        np.testing.assert_allclose(getattr(a, tag)(axis).data, ref)
        backward(f())
        np.testing.assert_allclose(a.grad, num_grad(f, a), atol=1e-7)


def test_reduce_axis_out_of_range():
    with pytest.raises(ShapeError):
        Tensor(np.ones((2, 2))).sum(axis=5)


def test_reshape_transpose_grads(rng):
    a = leaf(rng.standard_normal((3, 4)))

    def f():
        return (U.transpose(T.reshape(a, (4, 3))) * a).sum()

    backward(f())
    np.testing.assert_allclose(a.grad, num_grad(f, a), atol=1e-7)
    with pytest.raises(ShapeError):
        T.reshape(a, (5, 5))


def test_concat_narrow_grads(rng):
    a = leaf(rng.standard_normal(4))
    b = leaf(rng.standard_normal(3))

    def f():
        cat = T.concat([a, b])
        return (T.narrow(cat, 2, 4) * T.narrow(cat, 1, 4)).sum()

    backward(f())
    np.testing.assert_allclose(a.grad, num_grad(f, a), atol=1e-7)
    np.testing.assert_allclose(b.grad, num_grad(f, b), atol=1e-7)
    with pytest.raises(ShapeError):
        T.narrow(a, 3, 4)


def test_expand_last_pad_last(rng):
    a = leaf(rng.standard_normal((2, 3)))
    out = U.expand_last(a, 4)
    assert out.shape == (2, 3, 4)

    def f():
        return U.expand_last(a, 4).scale(0.5).sum()

    backward(f())
    np.testing.assert_allclose(a.grad, num_grad(f, a), atol=1e-7)


def test_conv1d_matches_direct_correlation(rng):
    x = leaf(rng.standard_normal((2, 11)))
    w = leaf(rng.standard_normal((3, 2, 4)))
    b = leaf(rng.standard_normal(3))
    stride, padding = 2, 1
    out = T.conv1d(x, w, b, stride=stride, padding=padding)

    xp = np.pad(x.data, ((0, 0), (padding, padding)))
    t_out = (xp.shape[1] - 4) // stride + 1
    ref = np.zeros((3, t_out))
    for o in range(3):
        for t in range(t_out):
            patch = xp[:, t * stride: t * stride + 4]
            ref[o, t] = np.sum(patch * w.data[o]) + b.data[o]
    np.testing.assert_allclose(out.data, ref, atol=1e-12)

    def f():
        return T.conv1d(x, w, b, stride=stride, padding=padding).square().sum()

    backward(f())
    np.testing.assert_allclose(x.grad, num_grad(f, x), atol=1e-5)
    np.testing.assert_allclose(w.grad, num_grad(f, w), atol=1e-5)
    np.testing.assert_allclose(b.grad, num_grad(f, b), atol=1e-5)


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("padding", [0, 1, 3])
def test_conv1d_float32_grads_match_float64(stride, padding, rng):
    vals = [rng.standard_normal(s).astype(np.float32) for s in ((3, 40), (5, 3, 4), (5,))]
    t_out = (40 + 2 * padding - 4) // stride + 1
    c = rng.standard_normal((5, t_out))

    def grads(dtype):
        x, w, b = (Tensor(v.astype(dtype), requires_grad=True) for v in vals)
        out = T.conv1d(x, w, b, stride=stride, padding=padding)
        assert out.data.dtype == dtype
        backward((out.sin() * Tensor(c.astype(dtype))).sum())
        for t in (x, w, b):
            assert t.grad.dtype == dtype
        return [x.grad, w.grad, b.grad]

    for g32, g64 in zip(grads(np.float32), grads(np.float64)):
        assert np.abs(g32 - g64).max() <= 1e-5 * np.abs(g64).max()


@pytest.mark.parametrize("c_in", [1, 3])
@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("padding", [0, 1, 3])
def test_conv1d_bitwise_equal_to_bincount_conv(stride, padding, c_in, rng):
    # one input channel is the encoder's first layer: its patch matrix must
    # still be a contiguous copy, or the weight gradient leaves BLAS
    vals = [rng.standard_normal(s) for s in ((c_in, 41), (5, c_in, 4), (5,))]
    t_out = (41 + 2 * padding - 4) // stride + 1
    c = Tensor(rng.standard_normal((5, t_out)))

    def run(conv):
        x, w, b = (Tensor(v, requires_grad=True) for v in vals)
        out = conv(x, w, b, stride=stride, padding=padding)
        backward((out.square() * c).sum())
        return [out.data, x.grad, w.grad, b.grad]

    for got, want in zip(run(T.conv1d), run(U.bincount_conv1d)):
        np.testing.assert_array_equal(got, want)


def test_conv1d_float32_input_grad_stays_float32(rng):
    x = Tensor(rng.standard_normal((3, 40)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.standard_normal((5, 3, 4)).astype(np.float32), requires_grad=True)
    backward(T.conv1d(x, w, None, stride=2, padding=1).sum())
    assert x.grad.dtype == np.float32 and w.grad.dtype == np.float32
    # the old scatter built its (c_in, t_pad) gradient in float64
    want = U.bincount_conv1d(Tensor(x.data.astype(np.float64), requires_grad=True),
                             Tensor(w.data.astype(np.float64)), None, stride=2, padding=1)
    backward(want.sum())
    assert np.abs(x.grad - want._parents[0].grad).max() <= 1e-5


# -- backward mechanics ---------------------------------------------------------


def test_backward_diamond_graph():
    # d(x*x + x*x)/dx = 4x: both branches must accumulate
    x = leaf(np.array(3.0))
    y = x * x + x * x
    backward(y)
    assert x.grad == pytest.approx(12.0)


def test_add_hands_both_parents_their_own_buffer(rng):
    # add passes one upstream gradient to two leaves; a reaches the loss again
    # through an op that runs after the add in the backward sweep, and that
    # later write must not leak into b's gradient
    a = leaf(rng.standard_normal(4))
    b = leaf(rng.standard_normal(4))
    c = Tensor(rng.standard_normal(4))
    d = Tensor(rng.standard_normal(4))
    early = a * d
    loss = ((a + b) * c).sum() + early.sum()
    backward(loss)
    assert a.grad is not b.grad
    np.testing.assert_array_equal(b.grad, c.data)
    np.testing.assert_allclose(a.grad, c.data + d.data, rtol=1e-15)


def test_backward_idempotent():
    x = leaf(np.array([1.0, 2.0]))
    loss = (x * x).sum()
    backward(loss)
    first = x.grad.copy()
    loss2 = (x * x).sum()
    backward(loss2)
    np.testing.assert_array_equal(x.grad, first)


def test_backward_frees_interior_gradients(rng):
    # an interior node's gradient is dropped once its closure has passed it
    # on; leaves, and interior tensors named in leaves=, keep theirs
    x, w, b = (leaf(rng.standard_normal(s)) for s in ((5, 3), (4, 3), (4,)))
    h = T.linear(x, w, b, act="sin", omega0=3.0)
    loss = (h * h).mean()
    grads = backward(loss, leaves=[x, w, b])
    interior = [t for t in T._reachable(loss) if t._backward is not None]
    assert len(interior) == 3 and all(t.grad is None for t in interior)
    assert all(t.grad is not None for t in (x, w, b))
    first = [grads[id(t)].copy() for t in (x, w, b)]
    again = backward(loss, leaves=[x, w, b, h])
    for t, want in zip((x, w, b), first):
        np.testing.assert_array_equal(again[id(t)], want)
    np.testing.assert_allclose(h.grad, 2.0 * h.data / h.size, rtol=1e-15)
    assert loss.grad is None


def test_backward_requires_scalar():
    x = leaf(np.ones(3))
    with pytest.raises(ContractError):
        backward(x.scale(2.0))


def test_backward_leaves_dict_with_unreachable():
    x = leaf(np.ones(2))
    orphan = leaf(np.ones(3))
    grads = backward((x * x).sum(), leaves=[x, orphan])
    np.testing.assert_array_equal(grads[id(x)], 2.0 * np.ones(2))
    np.testing.assert_array_equal(grads[id(orphan)], np.zeros(3))


def test_constant_parents_get_no_grad():
    const = Tensor(np.ones((2, 2)))
    x = leaf(np.ones((2, 2)))
    backward(T.linear(const, x).sum())
    assert const.grad is None
    assert x.grad is not None


def test_grad_check_utility(rng):
    a = leaf(rng.standard_normal(5))

    def f(t):
        return (t.sin() * t).sum()

    assert grad_check(f, [a]) < 1e-7


# -- no_grad -------------------------------------------------------------------


def test_no_grad_records_no_tape(rng):
    x, w, b = (leaf(rng.standard_normal(s)) for s in ((5, 3), (4, 3), (4,)))
    taped = T.linear(x, w, b).sin().sum()
    with T.no_grad():
        out = T.linear(x, w, b).sin()
        total = out.sum()
    for t in (out, total):
        assert t._parents == () and t._backward is None and not t.requires_grad
    np.testing.assert_array_equal(total.data, taped.data)
    assert T.linear(x, w, b).requires_grad


def test_no_grad_nests_and_restores_after_raise(rng):
    x = leaf(rng.uniform(0.5, 1.0, 3))
    with T.no_grad():
        with T.no_grad():
            assert not (x * x).requires_grad
        assert not (x * x).requires_grad
    assert (x * x).requires_grad
    with pytest.raises(DomainError):
        with T.no_grad():
            x.shift(-2.0).log()
    assert (x * x)._parents == (x, x)


def test_grad_mode_and_default_dtype_are_per_thread(rng):
    # a thread inside no_grad and a float32 default leaves another thread
    # taping in float64, and starts untouched by the other's settings
    inside, done, seen = threading.Event(), threading.Event(), {}

    def other():
        seen["start"] = (T._mode.grad, T.get_default_dtype())
        with T.no_grad(), T.default_dtype("float32"):
            inside.set()
            done.wait(10.0)
            x = leaf([1.0, 2.0])
            seen["inside"] = (x.scale(2.0).requires_grad, Tensor([1, 2]).data.dtype)

    with T.default_dtype("float32"):
        thread = threading.Thread(target=other)
        thread.start()
        assert inside.wait(10.0)
    try:
        x = leaf(rng.standard_normal(3))
        y = x.scale(2.0)
        assert y.requires_grad and y._parents == (x,)
        assert Tensor([1, 2]).data.dtype == np.float64
    finally:
        done.set()
        thread.join(10.0)
    assert not thread.is_alive()
    assert seen == {"start": (True, np.float64), "inside": (False, np.float32)}
