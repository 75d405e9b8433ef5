"""Hypernetwork meta-trainer: state layout, adaptation, windowed reconstruction."""

import math
import sys
import threading

import numpy as np
import pytest

from audioinr import fewsound
from audioinr import tensor as T
from audioinr.fewsound import (
    FewSoundConfig,
    adapt,
    adapted_flat,
    build_state,
    crossfade_window,
    encode_audio,
    encode_weights,
    meta_train,
    overlap_add_weights,
    predict_update,
    reconstruct_long,
    state_flatten,
    state_from_vector,
    state_param_count,
    window_plan,
)
from audioinr.inr import ARCHS, InrConfig, build, flatten_params, forward_from_flat, param_count
from audioinr.loss import StftResolution, make_combined_loss
from audioinr.optim import AdamW, OneCycleSchedule, one_cycle_lr
from audioinr.tensor import ContractError, ShapeError
from audioinr.toydata import sine_mixture
from memory import traced
from unfused_ops import unfused_dense

FAST = (StftResolution(32, 8, 32),)


def tiny_config(**over):
    kw = dict(target=InrConfig("siren", hidden=(4,), seed=3),
              window=64, embed_dim=4, conv0_channels=2,
              encoder_channels=(2, 2), weight_enc_hidden=4,
              hyper_hidden=(8,), lam_t=1.0, lam_f=0.0,
              epochs=2, lr=1e-3, seed=9)
    kw.update(over)
    return FewSoundConfig(**kw)


# -- config and state layout -----------------------------------------------------


def test_config_validation():
    with pytest.raises(ContractError):
        tiny_config(window=8)
    with pytest.raises(ContractError):
        tiny_config(window=66)        # not divisible by 2^2
    with pytest.raises(ContractError):
        tiny_config(encoder_channels=())
    with pytest.raises(ContractError):
        tiny_config(embed_dim=0)
    for lr in (math.nan, math.inf, -math.inf, 0.0, -1e-3):
        with pytest.raises(ContractError, match="lr"):
            tiny_config(lr=lr)
    for name in ("lam_t", "lam_f"):
        for v in (math.nan, math.inf, -1.0):
            with pytest.raises(ContractError, match=name):
                tiny_config(**{name: v})
    # counts that would break meta-training, each named in the error
    for name, v in (("epochs", 0), ("epochs", -1), ("batch_size", 0), ("batch_size", -1),
                    ("sample_rate", 0), ("weight_enc_hidden", 0),
                    ("encoder_channels", (2, 0)), ("hyper_hidden", (8, -1)),
                    ("hyper_hidden", ()), ("seed", -1), ("seed", 2 ** 63)):
        with pytest.raises(ContractError, match=name):
            tiny_config(**{name: v})
    assert tiny_config(seed=2 ** 63 - 1).seed == 2 ** 63 - 1
    # counts wider than their model-file slots: u32, u64 for batch_size, u8
    # for the number of blocks and hypernetwork layers
    for name, v in (("window", 2 ** 32), ("sample_rate", 2 ** 32), ("embed_dim", 2 ** 32),
                    ("conv0_channels", 2 ** 32), ("weight_enc_hidden", 2 ** 32),
                    ("epochs", 2 ** 32), ("batch_size", 2 ** 64),
                    ("encoder_channels", (2, 2 ** 32)), ("hyper_hidden", (2 ** 32,)),
                    ("encoder_channels", (1,) * 256), ("hyper_hidden", (1,) * 256)):
        with pytest.raises(ContractError, match=name):
            tiny_config(**{name: v})
    assert tiny_config(batch_size=None).batch_size is None
    assert tiny_config(batch_size=1, epochs=1).epochs == 1


def test_config_default_lr_per_target():
    assert tiny_config(lr=None).lr == 1e-6                      # siren target
    kan = tiny_config(target=InrConfig("kan", hidden=(4,), seed=3), lr=None)
    assert kan.lr == 1e-5


def test_state_param_count_matches_tensors():
    cfg = tiny_config()
    state = build_state(cfg)
    total = sum(p.data.size for _, p in state.named_params())
    assert state_param_count(cfg) == total
    assert state_flatten(state).size == total


def test_state_groups_and_order():
    state = build_state(tiny_config())
    names = [n for n, _ in state.named_params()]
    assert {n.split(".")[0] for n in names} == {"enc", "wenc", "hyper", "theta"}
    assert names[0].startswith("enc.")
    assert names[-1] == "theta"
    assert state.theta.data.size == param_count(tiny_config().target)


def test_build_state_deterministic():
    a = state_flatten(build_state(tiny_config()))
    b = state_flatten(build_state(tiny_config()))
    np.testing.assert_array_equal(a, b)
    c = state_flatten(build_state(tiny_config(seed=10)))
    assert not np.array_equal(a, c)


def oracle_state(cfg: FewSoundConfig) -> list[np.ndarray]:
    """The documented init rule for every group but theta: one PCG64 seeded
    with cfg.seed, weights U(+-sqrt(6/fan_in)) with fan_in the product of
    the shape after its first axis, each bias U(+-1/sqrt(fan_in)) of its
    weight, in layer order; the hypernetwork's last layer is zero and
    draws nothing."""
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    p_count = param_count(cfg.target)

    def layer(w_shape, zero=False):
        if zero:
            return [np.zeros(w_shape), np.zeros(w_shape[0])]
        fan_in = math.prod(w_shape[1:])
        bw, bb = math.sqrt(6.0 / fan_in), 1.0 / math.sqrt(fan_in)
        return [rng.uniform(-bw, bw, w_shape), rng.uniform(-bb, bb, w_shape[0])]

    out = layer((cfg.conv0_channels, 1, 7))
    c_prev = cfg.conv0_channels
    for c in cfg.encoder_channels:
        out += layer((c, c_prev, 4)) + layer((c, c, 3)) + layer((c, c, 1))
        c_prev = c
    out += layer((c_prev, c_prev, 3)) + layer((cfg.embed_dim, c_prev))
    out += layer((cfg.weight_enc_hidden, p_count))
    out += layer((cfg.embed_dim, cfg.weight_enc_hidden))
    dims = [2 * cfg.embed_dim, *cfg.hyper_hidden, p_count]
    for i, (a, b) in enumerate(zip(dims[:-1], dims[1:])):
        out += layer((b, a), zero=i == len(dims) - 2)
    return out


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("over", [{}, dict(encoder_channels=(3, 2, 4), hyper_hidden=(5, 6),
                                           target=InrConfig("kan", hidden=(3,), seed=2),
                                           seed=4)])
def test_build_state_matches_init_oracle(over, dtype):
    cfg = tiny_config(**over)
    with T.default_dtype(dtype):
        state = build_state(cfg)
        theta = flatten_params(build(cfg.target))
    named = state.named_params()
    want = oracle_state(cfg)
    assert len(named) == len(want) + 1
    for (name, p), w in zip(named, want):
        assert p.data.dtype == np.dtype(dtype) and p.shape == w.shape, name
        assert np.array_equal(p.data, w.astype(dtype)), name
    assert named[-1][0] == "theta" and state.theta.data.dtype == np.dtype(dtype)
    assert np.array_equal(state.theta.data, theta)


def test_hyper_output_layer_starts_at_zero():
    state = build_state(tiny_config())
    w_last = state.hyper[-2][1].data
    b_last = state.hyper[-1][1].data
    assert np.all(w_last == 0.0) and np.all(b_last == 0.0)
    assert np.any(state.hyper[0][1].data != 0.0)


def test_state_unflatten_roundtrip(rng):
    vec = rng.standard_normal(state_param_count(tiny_config()))
    state = state_from_vector(tiny_config(), vec)
    np.testing.assert_array_equal(state_flatten(state), vec)
    with pytest.raises(ShapeError):
        state_from_vector(tiny_config(), vec[:-1])


# -- the three mappings ------------------------------------------------------------


def test_encode_audio_shape_and_window_check(rng):
    cfg = tiny_config()
    state = build_state(cfg)
    e = encode_audio(state, rng.standard_normal(cfg.window))
    assert e.shape == (cfg.embed_dim,)
    with pytest.raises(ContractError, match="exactly 64 samples"):
        encode_audio(state, rng.standard_normal(64 + 1))


def test_encode_weights_shape():
    cfg = tiny_config()
    state = build_state(cfg)
    assert encode_weights(state).shape == (cfg.embed_dim,)


def test_predict_update_shapes(rng):
    cfg = tiny_config()
    state = build_state(cfg)
    e = T.Tensor(rng.standard_normal(cfg.embed_dim))
    out = predict_update(state, e, e)
    assert out.shape == (param_count(cfg.target),)
    with pytest.raises(ShapeError):
        predict_update(state, T.Tensor(np.zeros(3)), e)


def test_predict_update_takes_a_batch_of_embeddings(rng):
    # one row per E_S, each close to that E_S's own (P,) update; the rows
    # come from one GEMM per layer, so they may round differently
    state = random_state(rng)
    e_s = [T.Tensor(rng.standard_normal(4)) for _ in range(3)]
    e_t = T.Tensor(rng.standard_normal(4))
    rows = predict_update(state, e_s, e_t)
    assert rows.shape == (3, state.theta.size)
    for row, e in zip(rows.data, e_s):
        want = predict_update(state, e, e_t).data
        assert np.abs(row - want).max() <= 1e-12 * np.abs(want).max()
    for bad in ([], [e_t, T.Tensor(np.zeros(3))]):
        with pytest.raises(ShapeError):
            predict_update(state, bad, e_t)
    with pytest.raises(ShapeError):
        predict_update(state, e_s, T.Tensor(np.zeros(5)))


def test_fresh_state_adapts_to_the_universal_network(rng):
    # the hypernetwork's zero output layer means delta == 0 before training
    cfg = tiny_config()
    state = build_state(cfg)
    window = rng.standard_normal(cfg.window)
    delta = predict_update(state, encode_audio(state, window),
                           encode_weights(state))
    assert np.all(delta.data == 0.0)
    adapted = adapt(state, window)
    np.testing.assert_array_equal(flatten_params(adapted), state.theta.data)
    t = np.linspace(-1.0, 1.0, cfg.window)
    universal = build(cfg.target)
    np.testing.assert_array_equal(adapted.forward(t).data,
                                  universal.forward(t).data)


@pytest.mark.parametrize("arch", ["siren", "kan"])
def test_float32_state_adapts_and_renders_in_float32(arch, monkeypatch, rng):
    cfg = tiny_config(target=InrConfig(arch, hidden=(4,), seed=3))
    with T.default_dtype("float32"):
        state = build_state(cfg)
    window = rng.standard_normal(cfg.window)          # float64, as wav_read gives it
    flat = adapted_flat(state, window)
    times = np.linspace(-1.0, 1.0, cfg.window, dtype=np.float32)
    pred = forward_from_flat(cfg.target, flat, times, state.target_embedding)
    assert flat.data.dtype == np.float32 and pred.data.dtype == np.float32

    # meta_train and reconstruct_long hand forward_from_flat float32 times
    # and a float32 adapted vector, and get float32 audio back
    seen = []

    def recorded(config, flat, times, embedding):
        out = forward_from_flat(config, flat, times, embedding)
        seen.append((flat.data.dtype, np.asarray(times).dtype, out.data.dtype))
        return out

    monkeypatch.setattr(fewsound.inr, "forward_from_flat", recorded)
    with T.default_dtype("float32"):
        state, _ = meta_train([sine_mixture(cfg.window)], cfg, resolutions=FAST, n_mels=8)
    reconstruct_long(state, rng.uniform(-0.5, 0.5, 100))
    assert seen and set(seen) == {(np.dtype(np.float32),) * 3}


def test_gradients_reach_all_groups_after_one_step(rng):
    cfg = tiny_config()
    state = build_state(cfg)
    window = sine_mixture(cfg.window)
    leaves = [p for _, p in state.named_params()]

    def grads_by_group():
        flat = adapted_flat(state, window)
        from audioinr.inr import forward_from_flat
        pred = forward_from_flat(cfg.target, flat, np.linspace(-1, 1, cfg.window),
                                 state.target_embedding)
        loss = (pred - T.Tensor(window)).square().mean()
        T.backward(loss, leaves=leaves)
        named = state.named_params()
        return {g: any(np.any(p.grad != 0.0) for n, p in named if n.split(".")[0] == g)
                for g in ("enc", "wenc", "hyper", "theta")}

    first = grads_by_group()
    # the zero output layer blocks gradient flow into both encoders at first
    assert first == {"enc": False, "wenc": False, "hyper": True, "theta": True}
    AdamW(state.named_params(), lr=1e-3).step()
    second = grads_by_group()
    assert second == {"enc": True, "wenc": True, "hyper": True, "theta": True}


# -- meta-training -------------------------------------------------------------------


def _toy_windows(count, n):
    rng = np.random.Generator(np.random.PCG64(7))
    return [0.3 * np.sin(2 * np.pi * rng.uniform(2, 8) *
                         np.linspace(0, 1, n)) for _ in range(count)]


def test_meta_train_runs_and_is_deterministic():
    cfg = tiny_config()
    clips = _toy_windows(2, cfg.window)
    s1, t1 = meta_train(clips, cfg, resolutions=FAST, n_mels=4)
    s2, t2 = meta_train(clips, cfg, resolutions=FAST, n_mels=4)
    assert t1.shape == (cfg.epochs,)
    assert np.all(np.isfinite(t1))
    np.testing.assert_array_equal(t1, t2)
    np.testing.assert_array_equal(state_flatten(s1), state_flatten(s2))


def test_meta_train_minibatches():
    cfg = tiny_config(batch_size=1, epochs=1)
    _, trace = meta_train(_toy_windows(3, cfg.window), cfg,
                          resolutions=FAST, n_mels=4)
    assert np.isfinite(trace).all()


def test_meta_train_input_validation():
    cfg = tiny_config()
    with pytest.raises(ContractError, match="clip 0 has"):
        meta_train([np.zeros(10)], cfg, resolutions=FAST, n_mels=4)
    with pytest.raises(ContractError, match="empty dataset"):
        meta_train([], cfg, resolutions=FAST, n_mels=4)


def test_meta_train_rejects_bad_weight_decay_before_stepping(monkeypatch):
    def no_step(self, lr=None):
        raise AssertionError("AdamW stepped")
    monkeypatch.setattr(AdamW, "step", no_step)
    cfg = tiny_config()
    for bad in (math.nan, -5.0, math.inf):
        with pytest.raises(ContractError, match="weight_decay"):
            meta_train(_toy_windows(2, cfg.window), cfg, resolutions=FAST, n_mels=4,
                       weight_decay=bad)


def test_meta_train_stops_before_stepping_on_a_non_finite_loss(monkeypatch):
    # batches of one clip, two epochs: the third step's loss is the first nan
    cfg = tiny_config(batch_size=1)
    clips = _toy_windows(3, cfg.window)
    steps = []
    step = AdamW.step

    def counted(self, lr=None):
        steps.append(lr)
        step(self, lr)

    make_loss, built = fewsound.make_combined_loss, []

    def poisoned(*args, **kwargs):           # the third clip's loss reads nan
        built.append(make_loss(*args, **kwargs))
        fn = built[-1]
        return (lambda pred: fn(pred).scale(math.nan)) if len(built) == 3 else fn

    monkeypatch.setattr(AdamW, "step", counted)
    monkeypatch.setattr(fewsound, "make_combined_loss", poisoned)
    with pytest.raises(ContractError, match="non-finite loss at step 2$"):
        meta_train(clips, cfg, resolutions=FAST, n_mels=4)
    assert len(steps) == 2


def test_meta_train_uses_first_window():
    cfg = tiny_config(epochs=1)
    base = _toy_windows(1, cfg.window)[0]
    long = np.concatenate([base, np.full(50, 9.9)])
    _, t_long = meta_train([long], cfg, resolutions=FAST, n_mels=4)
    _, t_base = meta_train([base], cfg, resolutions=FAST, n_mels=4)
    np.testing.assert_array_equal(t_long, t_base)


def per_clip_meta_train(clips, cfg, resolutions, n_mels, weight_decay=0.01):
    """Oracle for meta_train: the same loop, with E_theta recomputed for
    every clip through adapted_flat."""
    windows = [np.asarray(c, dtype=np.float64)[:cfg.window] for c in clips]
    state = build_state(cfg)
    times = np.linspace(-1.0, 1.0, cfg.window)
    loss_fns = [make_combined_loss(w, cfg.lam_t, cfg.lam_f, resolutions,
                                   cfg.sample_rate, n_mels) for w in windows]
    bs = cfg.batch_size or len(windows)
    batches = [range(i, min(i + bs, len(windows))) for i in range(0, len(windows), bs)]
    opt = AdamW(state.named_params(), lr=cfg.lr, weight_decay=weight_decay)
    sched = OneCycleSchedule(max_lr=cfg.lr, total_steps=cfg.epochs * len(batches))
    leaves = [p for _, p in state.named_params()]
    trace = np.zeros(cfg.epochs)
    step = 0
    for epoch in range(cfg.epochs):
        for batch in batches:
            terms = [loss_fns[ci](forward_from_flat(
                cfg.target, adapted_flat(state, windows[ci]), times,
                state.target_embedding)) for ci in batch]
            total = terms[0]
            for term in terms[1:]:
                total = total + term
            T.backward(total, leaves=leaves)
            opt.step(lr=one_cycle_lr(sched, step))
            step += 1
            trace[epoch] += float(total.data)
        trace[epoch] /= len(windows)
    return state, trace


def test_meta_train_matches_per_clip_weight_encoding():
    # three clips in batches of two: one batch shares E_theta between two clips
    cfg = tiny_config(lam_f=1.0, batch_size=2)
    clips = _toy_windows(3, cfg.window)
    state, trace = meta_train(clips, cfg, resolutions=FAST, n_mels=4)
    want_state, want_trace = per_clip_meta_train(clips, cfg, FAST, 4)
    np.testing.assert_allclose(trace, want_trace, rtol=1e-10, atol=0.0)
    got, want = state_flatten(state), state_flatten(want_state)
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
    assert not np.array_equal(want, state_flatten(build_state(cfg)))


def test_meta_train_runs_the_update_head_once_per_step(monkeypatch):
    # three clips in one batch, two epochs: two steps, two head passes
    calls = []
    head = fewsound.predict_update

    def counted(state, e_s, e_theta):
        calls.append(len(e_s))
        return head(state, e_s, e_theta)

    monkeypatch.setattr(fewsound, "predict_update", counted)
    cfg = tiny_config()
    meta_train(_toy_windows(3, cfg.window), cfg, resolutions=FAST, n_mels=4)
    assert calls == [3, 3]


def test_meta_train_with_batches_of_one_equals_per_clip_oracle():
    cfg = tiny_config(lam_f=1.0, batch_size=1)
    clips = _toy_windows(3, cfg.window)
    state, trace = meta_train(clips, cfg, resolutions=FAST, n_mels=4)
    want_state, want_trace = per_clip_meta_train(clips, cfg, FAST, 4)
    assert np.array_equal(trace, want_trace)
    assert np.array_equal(state_flatten(state), state_flatten(want_state))


def test_adapted_loss_matches_unfused_dense_graph(monkeypatch, rng):
    cfg = tiny_config()
    state = build_state(cfg)
    for _, p in state.hyper[-2:]:       # a non-zero output layer lets every group learn
        p.data = 0.1 * rng.standard_normal(p.shape)
    window = sine_mixture(cfg.window)
    leaves = [p for _, p in state.named_params()]

    def loss_and_grads():
        pred = forward_from_flat(cfg.target, adapted_flat(state, window),
                                 np.linspace(-1, 1, cfg.window), state.target_embedding)
        loss = (pred - T.Tensor(window)).square().mean()
        grads = T.backward(loss, leaves=leaves)
        return loss.item(), [grads[id(p)].copy() for p in leaves]

    got_loss, got_grads = loss_and_grads()
    monkeypatch.setattr(T, "linear", unfused_dense)
    want_loss, want_grads = loss_and_grads()
    assert abs(got_loss - want_loss) <= 1e-12 * abs(want_loss)
    for got, want in zip(got_grads, want_grads):
        assert np.any(want != 0.0)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


# -- overlap-add reconstruction --------------------------------------------------------


def test_crossfade_window_complementary():
    w = crossfade_window(64)
    assert np.all(w > 0.0)
    np.testing.assert_allclose(w[:32] + w[32:], 1.0, atol=1e-12)


def test_window_plan_layout():
    assert window_plan(40, 64) == [0]
    assert window_plan(64, 64) == [0]
    assert window_plan(128, 64) == [0, 32, 64]
    plan = window_plan(150, 64)
    assert plan[0] == 0 and plan[-1] == 150 - 64
    assert all(s + 64 <= 150 for s in plan)
    assert all(b - a <= 32 for a, b in zip(plan, plan[1:]))


@pytest.mark.parametrize("n", [1, 40, 64, 96, 150, 256])
def test_overlap_weights_sum_to_one(n):
    starts, norm = overlap_add_weights(n, 64)
    assert starts == window_plan(n, 64)
    assert norm.shape == (max(n, 64),)
    total = np.zeros(norm.size)
    for s in starts:
        total[s:s + 64] += crossfade_window(64) / norm[s:s + 64]
    np.testing.assert_allclose(total, 1.0, atol=1e-12)


def dense_overlap_add(x, render_fn, window):
    """Reference: every window's normalized weight as a row of one dense
    (windows x samples) matrix, as reconstruct_long once built it."""
    starts = window_plan(x.size, window)
    span = max(x.size, window)
    rows = np.zeros((len(starts), span))
    for i, s in enumerate(starts):
        rows[i, s:s + window] = crossfade_window(window)
    rows /= rows.sum(axis=0, keepdims=True)
    padded = np.pad(x, (0, span - x.size))
    out = np.zeros(span)
    for s, row in zip(starts, rows):
        out[s:s + window] += render_fn(padded[s:s + window]) * row[s:s + window]
    return out[:x.size]


@pytest.mark.parametrize("n", [1, 40, 64, 96, 150, 256, 1000])
def test_reconstruct_matches_dense_weights(n, rng):
    x = rng.standard_normal(n)
    assert np.array_equal(reconstruct_long(None, x, render_fn=lambda seg: seg, window=64),
                          dense_overlap_add(x, lambda seg: seg, 64))


def test_reconstruct_without_tape_matches_taped_render(rng):
    state = build_state(tiny_config())
    for _, p in state.named_params():
        p.data = 0.1 * rng.standard_normal(p.data.shape)
    x = rng.uniform(-0.5, 0.5, 300)
    times = np.linspace(-1.0, 1.0, state.config.window)

    def taped(seg):
        y = adapt(state, seg).forward(times)
        assert y.requires_grad
        return y.data.astype(np.float64)

    assert np.array_equal(reconstruct_long(state, x), dense_overlap_add(x, taped, 64))


def test_reconstruct_memory_is_output_plus_one_window():
    # ten minutes at 22.05 kHz: the old dense weights would take 6.5 GB
    n, window = 600 * 22050, 32768
    x = np.random.Generator(np.random.PCG64(5)).standard_normal(n)
    out, _, peak = traced(reconstruct_long, None, x, render_fn=lambda seg: seg, window=window)
    assert peak < 4 * out.nbytes
    np.testing.assert_allclose(out, x, atol=1e-12)


@pytest.mark.parametrize("n", [1, 40, 64, 96, 150, 256])
def test_reconstruct_identity_render(n, rng):
    x = rng.standard_normal(n)
    out = reconstruct_long(None, x, render_fn=lambda seg: seg, window=64)
    assert out.shape == (n,)
    np.testing.assert_allclose(out, x, atol=1e-12)


def test_reconstruct_with_state_smoke(rng):
    cfg = tiny_config()
    state = build_state(cfg)
    x = rng.uniform(-0.5, 0.5, 100)
    out = reconstruct_long(state, x)
    assert out.shape == (100,)
    assert np.all(np.isfinite(out))


def test_reconstruct_encodes_weights_once(monkeypatch, rng):
    # random weights everywhere, so each window's update depends on E_theta
    state = build_state(tiny_config())
    for _, p in state.named_params():
        p.data = 0.1 * rng.standard_normal(p.data.shape)
    x = rng.uniform(-0.5, 0.5, 300)
    times = np.linspace(-1.0, 1.0, state.config.window)
    want = reconstruct_long(state, x, render_fn=lambda seg: adapt(state, seg)
                            .forward(times).data.astype(np.float64))
    calls = []

    def counted(s):
        calls.append(s)
        return encode_weights(s)

    monkeypatch.setattr(fewsound, "encode_weights", counted)
    got = reconstruct_long(state, x)
    assert len(window_plan(x.size, state.config.window)) == 9
    assert len(calls) == 1
    np.testing.assert_array_equal(got, want)

def test_reconstruct_validation(rng):
    with pytest.raises(ContractError, match="window length"):
        reconstruct_long(None, rng.standard_normal(10), render_fn=lambda s: s)
    with pytest.raises(ContractError, match="render_fn is required"):
        reconstruct_long(None, rng.standard_normal(10), window=64)
    with pytest.raises(ContractError):
        reconstruct_long(None, np.zeros(0), render_fn=lambda s: s, window=64)
    with pytest.raises(ShapeError, match="render_fn returned"):
        reconstruct_long(None, rng.standard_normal(100),
                         render_fn=lambda s: s[:-1], window=64)


def random_state(rng, **over):
    """A tiny state with every parameter drawn at random, the update head too."""
    state = build_state(tiny_config(**over))
    for _, p in state.named_params():
        p.data = (0.1 * rng.standard_normal(p.data.shape)).astype(p.data.dtype)
    return state


def test_reconstruct_workers_render_under_their_own_no_grad(monkeypatch, rng):
    # grad mode and the default dtype are per thread: the caller encodes
    # E_theta inside one no_grad, each window renders inside its worker's
    # own, under the caller's default dtype, and the caller tapes again after
    entered, outputs = [], []
    no_grad, forward = T.no_grad, fewsound.inr.forward_from_flat
    caller = threading.current_thread()

    def recorded_no_grad():
        entered.append(threading.current_thread())
        return no_grad()

    def recorded_forward(*args, **kwargs):
        assert not T._mode.grad
        outputs.append(forward(*args, **kwargs))
        return outputs[-1]

    monkeypatch.setattr(T, "no_grad", recorded_no_grad)
    monkeypatch.setattr(fewsound.inr, "forward_from_flat", recorded_forward)
    monkeypatch.setattr(fewsound, "_render_workers", lambda: 3)
    state = random_state(rng)
    x = rng.uniform(-0.5, 0.5, 300)
    reconstruct_long(state, x)
    windows = len(window_plan(x.size, 64))
    assert entered[0] is caller and len(entered) == 1 + windows
    assert caller not in entered[1:]
    assert len(outputs) == windows
    assert all(y._parents == () and not y.requires_grad for y in outputs)
    assert T._mode.grad

    def render(seg):
        assert threading.current_thread() is not caller
        assert not T._mode.grad and T.get_default_dtype() == np.float32
        if seg[0] > 0.4:
            raise ValueError("too loud")
        return seg

    with T.default_dtype("float32"), pytest.raises(ValueError, match="too loud"):
        reconstruct_long(None, np.linspace(0.0, 1.0, 300), render_fn=render, window=64)
    assert T._mode.grad and T.get_default_dtype() == np.float64


class RenderFailed(Exception):
    pass


def test_reconstruct_reraises_worker_errors(monkeypatch):
    blas = fewsound._openblas_threads()
    seen = []

    def render(seg):
        seen.append(blas[1]() if blas else None)
        if seg[0] == 320:
            raise RenderFailed(f"window at {seg[0]:g}")
        return seg

    monkeypatch.setattr(fewsound, "_render_workers", lambda: 3)
    threads = set(threading.enumerate())
    prev = blas[1]() if blas else None
    if blas:
        blas[0](2)
    try:
        with pytest.raises(RenderFailed, match="^window at 320$"):
            reconstruct_long(None, np.arange(2000.0), render_fn=render, window=64)
        assert blas is None or blas[1]() == 2
    finally:
        if blas:
            blas[0](prev)
    assert set(threading.enumerate()) == threads
    assert len(seen) < len(window_plan(2000, 64))
    assert set(seen) == ({1} if blas else {None})


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("arch", ARCHS)
def test_reconstruct_pool_matches_one_worker(monkeypatch, rng, arch, dtype):
    # more workers than CPUs, switching threads as often as the interpreter allows
    with T.default_dtype(dtype):
        state = random_state(rng, target=InrConfig(arch, hidden=(4,), seed=3))
    x = rng.uniform(-0.5, 0.5, 700)
    workers = 2 * fewsound._render_workers() + 1
    monkeypatch.setattr(fewsound, "_render_workers", lambda: workers)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pooled = reconstruct_long(state, x)
    finally:
        sys.setswitchinterval(interval)
    monkeypatch.setattr(fewsound, "_render_workers", lambda: 1)
    assert np.array_equal(pooled, reconstruct_long(state, x))
