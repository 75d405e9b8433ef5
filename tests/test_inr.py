"""Coordinate-network construction, layout, and gradients."""

import math

import numpy as np
import pytest

from audioinr import inr
from audioinr.inr import (
    ARCHS,
    InrConfig,
    build,
    flatten_params,
    forward_from_flat,
    input_dim,
    layer_dims,
    param_count,
    param_shapes,
    unflatten_params,
)
from audioinr import tensor as T
from audioinr.loss import make_combined_loss
from audioinr.tensor import (
    ContractError,
    ShapeError,
    Tensor,
    _reachable,
    backward,
    grad_check,
)
from memory import traced
from unfused_ops import (unfused_dense, unfused_kan_layer, unfused_sin_features,
                         unfused_wire_forward)

SMALL = dict(hidden=(6, 5), encoding_length=3, rff_features=4,
             grid_size=4, spline_order=2, seed=7)


def small(arch, **over):
    kw = dict(SMALL)
    kw.update(over)
    return InrConfig(arch, **kw)


# -- encodings -----------------------------------------------------------------


def positional_encoding(times, length):
    """gamma(t) as the networks compute it, shape (n, 2*length)."""
    t2 = Tensor(np.asarray(times, dtype=np.float64)[:, None])
    return inr._sin_features(t2, *inr._pe_consts(length)).data


def test_positional_encoding_at_zero():
    pe = positional_encoding(np.array([0.0]), 5)
    np.testing.assert_array_equal(pe, np.tile([0.0, 1.0], 5)[None, :])


def test_positional_encoding_interleaves_octaves(rng):
    t = rng.uniform(-1.0, 1.0, 20)
    pe = positional_encoding(t, 4)
    assert pe.shape == (20, 8)
    for j in range(4):
        arg = (2.0 ** j) * math.pi * t
        np.testing.assert_allclose(pe[:, 2 * j], np.sin(arg), atol=1e-15)
        np.testing.assert_allclose(pe[:, 2 * j + 1], np.sin(arg + math.pi / 2.0),
                                   atol=1e-15)


@pytest.mark.parametrize("arch", ["nerf", "rff", "kan"])
def test_input_features_are_one_node(arch):
    # linear(t2, frequency row, phase, act="sin"): one node, where the
    # matmul + bias add + sin chain took three
    model = build(small(arch))
    n = 32
    out = model.forward(Tensor(np.linspace(-1.0, 1.0, n), requires_grad=True))
    first = next(nd for nd in _reachable(out) if any(p is model.params[0] for p in nd._parents))
    feats = first._parents[0]
    t2, freq, phase = feats._parents
    assert t2.shape == (n, 1) and freq.shape == (input_dim(model.config), 1)
    assert not freq._parents and not phase._parents
    np.testing.assert_array_equal(feats.data, np.sin(t2.data @ freq.data.T + phase.data))


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("arch", ["nerf", "rff", "kan"])
def test_sin_features_bitwise_equal_to_unfused_chain(arch, dtype, monkeypatch, rng):
    n = 2048
    with T.default_dtype(dtype):
        model = build(InrConfig(arch))
        times = np.linspace(-1.0, 1.0, n).astype(dtype)
        loss_fn = make_combined_loss(0.3 * rng.standard_normal(n))

        def loss_and_grads():
            loss = loss_fn(model.forward(times))
            grads = backward(loss, leaves=model.params)
            return loss.data, [grads[id(p)].copy() for p in model.params]

        got_loss, got_grads = loss_and_grads()
        monkeypatch.setattr(inr, "_sin_features", unfused_sin_features)
        want_loss, want_grads = loss_and_grads()
    assert got_loss.dtype == dtype
    np.testing.assert_array_equal(got_loss, want_loss)
    for got, want in zip(got_grads, want_grads):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("consts", ["pe", "rff"])
def test_sin_features_node_bitwise_equal_to_unfused(consts, dtype, rng):
    freq, phase = (inr._pe_consts(5) if consts == "pe"
                   else inr._rff_consts(rng.normal(0.0, 10.0, 6)))
    times = rng.uniform(-1.0, 1.0, (300, 1)).astype(dtype)
    c = Tensor(rng.standard_normal((300, freq.shape[1])).astype(dtype))

    def run(features):
        t2 = Tensor(times.copy(), requires_grad=True)
        out = features(t2, freq, phase)
        backward((out * c).sum())
        return out.data, t2.grad

    for got, want in zip(run(inr._sin_features), run(unfused_sin_features)):
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, want)


def test_rff_encoding_cosines_first(rng):
    cfg = small("rff")
    model = build(cfg)
    b = model.embedding["rff_b"]
    assert b.shape == (cfg.rff_features,)
    t = rng.uniform(-1.0, 1.0, 16)
    # replay the whole network in plain numpy with the cos block leading
    z = 2.0 * math.pi * t[:, None] * b[None, :]
    x = np.concatenate([np.sin(z + math.pi / 2.0), np.sin(z)], axis=1)
    for i, (w, bias) in enumerate(_dense_params(model)):
        x = x @ w.T + bias
        if i < len(cfg.hidden):
            x = np.maximum(x, 0.0)
    np.testing.assert_allclose(model.forward(t).data, x[:, 0], atol=1e-12)


def _dense_params(model):
    ps = [p.data for _, p in model.named_params()]
    return list(zip(ps[0::2], ps[1::2]))


# -- shapes and counts ---------------------------------------------------------


def test_input_dims():
    assert input_dim(small("nerf")) == 6
    assert input_dim(small("kan")) == 6
    assert input_dim(small("rff")) == 8
    assert input_dim(small("siren")) == 1
    assert input_dim(small("wire")) == 1
    assert input_dim(small("finer")) == 1


def test_layer_dims():
    assert layer_dims(small("siren")) == [1, 6, 5, 1]
    assert layer_dims(small("nerf")) == [6, 6, 5, 1]


@pytest.mark.parametrize("arch", ARCHS)
def test_param_count_matches_shapes(arch):
    cfg = small(arch)
    total = sum(int(np.prod(s)) for _, s in param_shapes(cfg))
    assert param_count(cfg) == total
    model = build(cfg)
    assert flatten_params(model).size == total


def test_param_count_dense_formula():
    cfg = small("siren")
    dims = layer_dims(cfg)
    want = sum(o * (i + 1) for i, o in zip(dims[:-1], dims[1:]))
    assert param_count(cfg) == want


def test_param_count_kan_formula():
    cfg = small("kan")
    dims = layer_dims(cfg)
    nb = cfg.grid_size + cfg.spline_order
    want = sum(o * i * (2 + nb) for i, o in zip(dims[:-1], dims[1:]))
    assert param_count(cfg) == want
    lean = small("kan", scale_spline=False)
    want = sum(o * i * (1 + nb) for i, o in zip(dims[:-1], dims[1:]))
    assert param_count(lean) == want


def test_param_count_default_kan():
    assert param_count(InrConfig("kan")) == 31080


def test_param_shapes_order_is_stable():
    names = [n for n, _ in param_shapes(small("kan"))]
    assert names[:3] == ["kan0.w_b", "kan0.w_s", "kan0.coeffs"]
    names = [n for n, _ in param_shapes(small("wire"))]
    assert names[:2] == ["layer0.W", "layer0.b"]


def test_config_validation():
    with pytest.raises(ContractError):
        InrConfig("mlp")
    with pytest.raises(ContractError):
        InrConfig("siren", hidden=())
    with pytest.raises(ContractError):
        InrConfig("siren", hidden=(8, 0))
    with pytest.raises(ContractError):
        InrConfig("nerf", encoding_length=0)
    with pytest.raises(ContractError):
        InrConfig("rff", rff_sigma=0.0)
    with pytest.raises(ContractError):
        InrConfig("kan", spline_order=-1)


@pytest.mark.parametrize("field", ["omega0", "s0", "rff_sigma", "finer_bias_bound"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0])
def test_config_rejects_non_finite_scales(field, value):
    with pytest.raises(ContractError, match=field):
        InrConfig("siren", **{field: value})


@pytest.mark.parametrize("seed", [-1, -2 ** 63, 2 ** 63, 2 ** 64])
def test_config_rejects_seed_outside_i64_range(seed):
    # PCG64 refuses negative seeds and the model file stores an i64
    with pytest.raises(ContractError, match="seed"):
        InrConfig("rff", seed=seed)
    assert InrConfig("rff", seed=2 ** 63 - 1).seed == 2 ** 63 - 1


@pytest.mark.parametrize("field, value", [("hidden", (2 ** 32,)), ("hidden", (4,) * 256),
                                          ("encoding_length", 2 ** 32),
                                          ("rff_features", 2 ** 32), ("grid_size", 2 ** 32),
                                          ("spline_order", 2 ** 32)])
def test_config_rejects_counts_wider_than_their_file_slots(field, value):
    # u8 for the number of hidden layers, u32 for the rest
    with pytest.raises(ContractError, match=f"{field}.* below 2\\*\\*"):
        InrConfig("kan", **{field: value})
    assert len(InrConfig("siren", hidden=(2 ** 32 - 1,) + (4,) * 254).hidden) == 255


# -- initialization ------------------------------------------------------------


def test_init_bounds_siren():
    cfg = small("siren")
    model = build(cfg)
    p = dict(model.named_params())
    assert np.abs(p["layer0.W"].data).max() <= 1.0 / 1.0
    hid = math.sqrt(6.0 / 6) / cfg.omega0
    assert np.abs(p["layer1.W"].data).max() <= hid


def test_init_bounds_finer_bias():
    cfg = small("finer", finer_bias_bound=3.0)
    p = dict(build(cfg).named_params())
    b0 = p["layer0.b"].data
    assert np.abs(b0).max() <= 3.0
    # wide enough that draws actually use the range
    assert np.abs(b0).max() > 1.0 / math.sqrt(6)


def test_init_bounds_relu():
    cfg = small("nerf")
    p = dict(build(cfg).named_params())
    assert np.abs(p["layer0.W"].data).max() <= math.sqrt(6.0 / 6)
    assert np.abs(p["layer1.b"].data).max() <= 1.0 / math.sqrt(6)


def test_init_bounds_kan():
    cfg = small("kan")
    p = dict(build(cfg).named_params())
    w = p["kan0.w_b"].data
    assert np.abs(w).max() <= math.sqrt(6.0 / (6 + 6))
    nb = cfg.grid_size + cfg.spline_order
    coeffs = p["kan1.coeffs"].data
    sd = 0.1 / math.sqrt(nb)
    assert np.abs(coeffs).max() < 8.0 * sd
    assert 0.3 * sd < coeffs.std() < 2.0 * sd


def test_build_is_deterministic():
    cfg = small("wire")
    a = flatten_params(build(cfg))
    b = flatten_params(build(cfg))
    np.testing.assert_array_equal(a, b)
    c = flatten_params(build(cfg, seed=99))
    assert not np.array_equal(a, c)


def oracle_init(cfg: InrConfig, seed: int) -> list[np.ndarray]:
    """The documented init rules, written out per architecture: draws from
    one PCG64 seeded with ``seed``, the RFF projection first, then each
    layer's parameters in flatten order."""
    rng = np.random.Generator(np.random.PCG64(seed))
    if cfg.arch == "rff":
        rng.normal(0.0, cfg.rff_sigma, cfg.rff_features)
    d_in = {"nerf": 2 * cfg.encoding_length, "kan": 2 * cfg.encoding_length,
            "rff": 2 * cfg.rff_features}.get(cfg.arch, 1)
    drawn = []
    for i, d_out in enumerate([*cfg.hidden, 1]):
        if cfg.arch == "kan":
            bound = math.sqrt(6.0 / (d_in + d_out))
            for _ in range(2 if cfg.scale_spline else 1):          # w_b, then w_s
                drawn.append(rng.uniform(-bound, bound, (d_out, d_in)))
            nb = cfg.grid_size + cfg.spline_order
            drawn.append(rng.normal(0.0, 0.1 / math.sqrt(nb), (d_out, d_in, nb)))
        else:
            if cfg.arch in ("siren", "finer"):
                bound = 1.0 / d_in if i == 0 else math.sqrt(6.0 / d_in) / cfg.omega0
                drawn.append(rng.uniform(-bound, bound, (d_out, d_in)))
            elif cfg.arch == "wire":
                drawn.append(rng.normal(0.0, 1.0, (d_out, d_in)) / math.sqrt(d_in))
            else:
                bound = math.sqrt(6.0 / d_in)
                drawn.append(rng.uniform(-bound, bound, (d_out, d_in)))
            if cfg.arch == "finer" and i == 0:
                bound = cfg.finer_bias_bound
            else:
                bound = 1.0 / math.sqrt(d_in)
            drawn.append(rng.uniform(-bound, bound, d_out))
        d_in = d_out
    return drawn


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("cfg", [*(small(a) for a in ARCHS),
                                 *(InrConfig(a, seed=11) for a in ARCHS),
                                 small("kan", scale_spline=False),
                                 small("finer", finer_bias_bound=3.0)],
                         ids=lambda c: f"{c.arch}-{'x'.join(map(str, c.hidden))}")
def test_build_matches_init_oracle(cfg, dtype):
    with T.default_dtype(dtype):
        model = build(cfg)
        again = build(cfg, seed=cfg.seed + 1)
    for seed, m in ((cfg.seed, model), (cfg.seed + 1, again)):
        want = oracle_init(cfg, seed)
        assert [p.shape for p in m.params] == [w.shape for w in want]
        for p, w in zip(m.params, want):
            assert p.data.dtype == np.dtype(dtype)
            assert np.array_equal(p.data, w.astype(dtype))


def test_rff_projection_frozen_and_seeded():
    cfg = small("rff")
    a = build(cfg).embedding["rff_b"]
    b = build(cfg).embedding["rff_b"]
    np.testing.assert_array_equal(a, b)
    names = [n for n, _ in build(cfg).named_params()]
    assert all("rff" not in n for n in names)


# -- forward -------------------------------------------------------------------


@pytest.mark.parametrize("arch", ARCHS)
def test_forward_shape_and_finite(arch, rng):
    model = build(small(arch))
    t = rng.uniform(-1.0, 1.0, 33)
    out = model.forward(t)
    assert out.data.shape == (33,)
    assert np.isfinite(out.data).all()


def test_forward_clamps_times():
    model = build(small("siren"))
    inside = model.forward(np.array([1.0, -1.0])).data
    outside = model.forward(np.array([4.2, -3.0])).data
    np.testing.assert_array_equal(inside, outside)


def test_forward_rejects_matrix_times():
    model = build(small("nerf"))
    with pytest.raises(ShapeError):
        model.forward(np.zeros((4, 4)))
    # forward_from_flat shares the check; it once rendered (3, 2) times as 6 samples
    flat = Tensor(flatten_params(model))
    for times in (np.zeros((3, 2)), np.zeros(())):
        with pytest.raises(ShapeError, match="times must be 1-D"):
            forward_from_flat(model.config, flat, times, model.embedding)


# -- flat-vector plumbing ------------------------------------------------------


@pytest.mark.parametrize("arch", ARCHS)
def test_flatten_unflatten_roundtrip(arch, rng):
    cfg = small(arch)
    model = build(cfg)
    vec = flatten_params(model)
    again = unflatten_params(cfg, vec)
    np.testing.assert_array_equal(flatten_params(again), vec)
    t = rng.uniform(-1.0, 1.0, 17)
    np.testing.assert_array_equal(model.forward(t).data, again.forward(t).data)


@pytest.mark.parametrize("arch", ARCHS)
def test_forward_without_tape_matches_taped(arch, rng):
    model = build(small(arch))
    t = rng.uniform(-1.0, 1.0, 33)
    taped = model.forward(t)
    with T.no_grad():
        bare = model.forward(t)
    assert taped.requires_grad and not bare.requires_grad and bare._parents == ()
    np.testing.assert_array_equal(bare.data, taped.data)


@pytest.mark.parametrize("arch", ["siren", "finer", "wire"])
def test_taped_forward_holds_only_the_hidden_outputs(arch):
    # 8192 samples in float64 at default widths: each sin, FINER or Gabor
    # node keeps only its output, so the tape is the hidden layers' outputs
    # plus a few n-sized arrays at either end
    n = 8192
    model = build(InrConfig(arch))
    out, held, _ = traced(model.forward, np.linspace(-1.0, 1.0, n))
    hidden = sum(model.config.hidden) * n * 8 * (2 if arch == "wire" else 1)
    assert out.requires_grad
    assert held <= 1.05 * hidden, held / hidden


def test_unflatten_size_check():
    cfg = small("siren")
    with pytest.raises(ShapeError):
        unflatten_params(cfg, np.zeros(param_count(cfg) + 1))
    with pytest.raises(ShapeError):
        unflatten_params(cfg, np.zeros((1, param_count(cfg))))


@pytest.mark.parametrize("arch", ARCHS)
def test_apply_delta_transport(arch, rng):
    model = build(small(arch))
    theta = flatten_params(model)
    delta = rng.standard_normal(theta.size) * 0.01
    moved = unflatten_params(model.config, theta + delta)
    np.testing.assert_array_equal(flatten_params(moved), theta + delta)
    # the source model is untouched
    np.testing.assert_array_equal(flatten_params(model), theta)


def test_apply_delta_zero_is_identity():
    model = build(small("kan"))
    moved = unflatten_params(model.config,
                             flatten_params(model) + np.zeros(param_count(model.config)))
    np.testing.assert_array_equal(flatten_params(moved), flatten_params(model))


def test_apply_delta_size_check():
    model = build(small("finer"))
    with pytest.raises(ShapeError):
        unflatten_params(model.config, np.zeros(3))


@pytest.mark.parametrize("arch", ARCHS)
def test_forward_from_flat_matches_forward(arch, rng):
    cfg = small(arch)
    model = build(cfg)
    t = rng.uniform(-1.0, 1.0, 21)
    flat = Tensor(flatten_params(model), requires_grad=True)
    out = forward_from_flat(cfg, flat, t, model.embedding)
    np.testing.assert_array_equal(out.data, model.forward(t).data)
    backward(out.sum())
    assert flat.grad is not None and np.any(flat.grad != 0.0)


def test_forward_from_flat_size_check():
    cfg = small("siren")
    with pytest.raises(ShapeError):
        forward_from_flat(cfg, Tensor(np.zeros(5)), np.zeros(3), {})


# -- gradients -----------------------------------------------------------------


@pytest.mark.parametrize("arch", ARCHS)
def test_forward_gradcheck(arch, rng):
    cfg = small(arch, hidden=(5, 4))
    model = build(cfg)
    t = rng.uniform(-0.9, 0.9, 12)
    y = rng.standard_normal(12)

    def f(*params):
        pred = model.forward(t)
        return (pred - Tensor(y)).square().mean()

    # wire stacks exp() nonlinearities, so its third derivative is large and
    # the finite-difference step needs to back off from the roundoff floor
    h = 1e-5 if arch == "wire" else 1e-6
    err = grad_check(f, model.params, n_samples=25, seed=3, h=h)
    assert err < 1e-4, f"{arch}: worst relative gradient error {err:.3g}"


def test_kan_fused_layers_match_unfused_graph(monkeypatch, rng):
    model = build(InrConfig("kan"))
    n = 4096
    times = np.linspace(-1.0, 1.0, n)
    loss_fn = make_combined_loss(0.3 * rng.standard_normal(n))

    def loss_and_grads():
        loss = loss_fn(model.forward(times))
        grads = backward(loss, leaves=model.params)
        return loss.item(), [grads[id(p)].copy() for p in model.params]

    got_loss, got_grads = loss_and_grads()
    monkeypatch.setattr(inr, "kan_layer", unfused_kan_layer)
    want_loss, want_grads = loss_and_grads()
    assert abs(got_loss - want_loss) <= 1e-12 * abs(want_loss)
    for got, want in zip(got_grads, want_grads):
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


@pytest.mark.parametrize("arch", ARCHS)
def test_fused_dense_layers_match_unfused_graph(arch, monkeypatch, rng):
    model = build(InrConfig(arch))
    n = 2048
    times = np.linspace(-1.0, 1.0, n)
    loss_fn = make_combined_loss(0.3 * rng.standard_normal(n))

    def loss_and_grads():
        loss = loss_fn(model.forward(times))
        grads = backward(loss, leaves=model.params)
        return loss.item(), [grads[id(p)].copy() for p in model.params]

    got_loss, got_grads = loss_and_grads()
    monkeypatch.setattr(T, "linear", unfused_dense)
    want_loss, want_grads = loss_and_grads()
    assert abs(got_loss - want_loss) <= 1e-12 * abs(want_loss)
    for got, want in zip(got_grads, want_grads):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_wire_gabor_layers_match_unfused_graph(monkeypatch, rng):
    model = build(InrConfig("wire"))
    n = 4096
    times = np.linspace(-1.0, 1.0, n)
    loss_fn = make_combined_loss(0.3 * rng.standard_normal(n))

    def loss_and_grads():
        loss = loss_fn(model.forward(times))
        grads = backward(loss, leaves=model.params)
        return loss.item(), [grads[id(p)].copy() for p in model.params]

    got_loss, got_grads = loss_and_grads()
    monkeypatch.setattr(inr, "_wire_forward", unfused_wire_forward)
    want_loss, want_grads = loss_and_grads()
    assert abs(got_loss - want_loss) <= 1e-12 * abs(want_loss)
    for got, want in zip(got_grads, want_grads):
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


def _subnormal_count(a):
    return int(np.count_nonzero((a != 0) & (np.abs(a) < np.finfo(a.dtype).tiny)))


def test_wire_float32_step_has_no_subnormals(monkeypatch, rng):
    # the envelope floor keeps every value a matmul reads normal or zero;
    # the unfused chain yields about 1e5 subnormal activations here.  backward
    # frees interior gradients, so each one is captured as it is written: the
    # array handed on and the buffer it went into, whose later in-place adds
    # the check sees too
    handed, written = [], []
    gabor_dz = T._gabor_dz

    def record(*args):
        handed.append(gabor_dz(*args))
        return handed[-1]

    def capturing(accum):
        def wrapped(t, g):
            accum(t, g)
            if t.requires_grad:
                written.extend((g, t.grad))
        return wrapped

    monkeypatch.setattr(T, "_gabor_dz", record)
    monkeypatch.setattr(T, "_accum", capturing(T._accum))
    monkeypatch.setattr(T, "_accum_fresh", capturing(T._accum_fresh))
    n = 4096
    with T.default_dtype("float32"):
        model = build(InrConfig("wire"))
        out = model.forward(np.linspace(-1.0, 1.0, n, dtype=np.float32))
        backward(make_combined_loss(0.3 * rng.standard_normal(n))(out))
    nodes = _reachable(out)
    assert all(t.data.dtype == np.float32 for t in nodes)
    assert len(handed) == len(model.config.hidden)
    # at least two arrays for every gradient the graph held before it freed them
    assert len(written) >= 2 * sum(t.requires_grad for t in nodes)
    for a in [t.data for t in nodes] + written + handed:
        assert _subnormal_count(a) == 0


# -- graph memory --------------------------------------------------------------


def _held_arrays(obj, seen):
    """Arrays reachable from a backward closure: its cells, and the lists,
    tuples and nested closures they hold."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _held_arrays(item, seen)
    elif callable(obj) and getattr(obj, "__closure__", None):
        for cell in obj.__closure__:
            yield from _held_arrays(cell.cell_contents, seen)


def test_kan_graph_holds_no_dense_basis_tensor():
    cfg = InrConfig("kan")
    model = build(cfg)
    n = 8192
    out = model.forward(np.linspace(-1.0, 1.0, n))
    nodes = _reachable(out)
    params = {id(p) for p in model.params}
    layer_nodes = [t for t in nodes if any(id(p) in params for p in t._parents)]
    assert len(layer_nodes) == len(cfg.hidden) + 1
    seen = set()
    held = [t.data for t in nodes]
    for t in nodes:
        held.extend(_held_arrays(t._backward, seen))
    nb = cfg.grid_size + cfg.spline_order
    dense = n * min(layer_dims(cfg)[:-1]) * nb
    assert max(a.size for a in held) < dense


def test_siren_graph_holds_one_node_per_dense_layer():
    cfg = InrConfig("siren")
    model = build(cfg)
    nodes = _reachable(model.forward(np.linspace(-1.0, 1.0, 256)))
    params = {id(p) for p in model.params}
    layer_nodes = [t for t in nodes if any(id(p) in params for p in t._parents)]
    assert len(layer_nodes) == len(cfg.hidden) + 1


@pytest.mark.parametrize("arch", ["nerf", "rff", "siren", "finer"])
def test_dense_graph_is_one_node_per_layer_and_a_reshape(arch):
    # the activations live inside the layer nodes; with untracked times the
    # clamp and the sin features record no tape
    cfg = InrConfig(arch)
    model = build(cfg)
    nodes = _reachable(model.forward(np.linspace(-1.0, 1.0, 256)))
    assert sum(t._backward is not None for t in nodes) == len(cfg.hidden) + 2


def test_wire_graph_holds_one_node_per_hidden_layer():
    cfg = InrConfig("wire")
    model = build(cfg)
    nodes = _reachable(model.forward(np.linspace(-1.0, 1.0, 256)))
    params = {id(p) for p in model.params}
    layer_nodes = [t for t in nodes if any(id(p) in params for p in t._parents)]
    assert len(layer_nodes) == len(cfg.hidden) + 1
    # beyond the layers: reshape to (2n, d), and reshape and narrow after the
    # output layer to keep its real half
    assert sum(t._backward is not None for t in nodes) == len(cfg.hidden) + 4
