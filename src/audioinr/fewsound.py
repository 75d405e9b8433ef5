"""Hypernetwork meta-trainer: one shared network, per-clip weight updates.

A convolutional encoder maps a fixed-length window of audio to an
embedding E_S; a small MLP compresses the shared (universal) weights
theta into an embedding E_theta of the same width; a hypernetwork maps
their concatenation to an additive update, giving per-clip weights
theta' = theta + delta.  All four parameter groups (encoder gamma,
weight encoder delta_p, hypernetwork eta, and theta itself) train
jointly by backpropagating the reconstruction loss of every adapted
network in the batch.

The state's layout is one plan, ``_state_plan``: the four groups in
order, theta last.  Every parameter but theta draws ``inr.uniform_init``
in plan order; the hypernetwork's output layer starts at zero instead,
so before any training the adapted network is exactly the universal one.
Training and rendering take one route: theta + delta on the tape, then
``inr.forward_from_flat``.  Rendering adapts one window at a time
(``adapted_flat``); meta-training runs the update head once per batch,
one row per clip, so the head's weights are read and their gradient
formed once per step, not once per clip.

Arbitrary-length audio is reconstructed window by window (50% overlap,
final window right-aligned) and blended with a half-sample-offset Hann
crossfade normalized to sum to one at every sample: each window's weight
is the crossfade divided by a 1-D per-sample sum of all crossfades, so
no (windows x samples) matrix is built.  Windows render on one thread
per CPU, each worker inside its own ``tensor.no_grad`` (grad mode is per
thread), with BLAS held to one thread, so memory holds the model, the
output, the normalizer and one window's working set per worker.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import os
from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import tensor as T
from .tensor import Tensor, ContractError, ShapeError
from . import inr
from .inr import InrConfig, check_slot
from .loss import DEFAULT_RESOLUTIONS, make_combined_loss
from .optim import AdamW, OneCycleSchedule, one_cycle_lr, run_steps


@dataclass
class FewSoundConfig:
    target: InrConfig
    window: int = 32768
    sample_rate: int = 22050
    embed_dim: int = 64
    conv0_channels: int = 16
    encoder_channels: tuple[int, ...] = (32, 32, 64, 64)
    weight_enc_hidden: int = 256
    hyper_hidden: tuple[int, ...] = (256,)
    lam_t: float = 1.0
    lam_f: float = 1.0
    epochs: int = 100
    lr: float | None = None
    seed: int = 0
    batch_size: int | None = None      # None: whole dataset each step

    def __post_init__(self):
        self.encoder_channels = tuple(int(c) for c in self.encoder_channels)
        self.hyper_hidden = tuple(int(w) for w in self.hyper_hidden)
        if self.window < 16:
            raise ContractError(f"window too small: {self.window}")
        for name in ("sample_rate", "embed_dim", "conv0_channels", "weight_enc_hidden",
                     "epochs"):
            if getattr(self, name) < 1:
                raise ContractError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.batch_size is not None and self.batch_size < 1:
            raise ContractError(f"batch_size must be None or >= 1, got {self.batch_size}")
        if not 0 <= self.seed < 2 ** 63:       # PCG64 seed, stored as an i64
            raise ContractError(f"seed must be in [0, 2**63), got {self.seed}")
        for name in ("encoder_channels", "hyper_hidden"):
            widths = getattr(self, name)
            if not widths or min(widths) < 1:
                raise ContractError(f"{name} must be non-empty and positive, got {widths}")
            check_slot(f"{name} layer count", len(widths), 8)
            check_slot(name, max(widths), 32)
        for name in ("window", "sample_rate", "embed_dim", "conv0_channels",
                     "weight_enc_hidden", "epochs"):
            check_slot(name, getattr(self, name), 32)
        if self.batch_size is not None:
            check_slot("batch_size", self.batch_size, 64)
        if self.lr is None:
            self.lr = 1e-6 if self.target.arch == "siren" else 1e-5
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ContractError(f"lr must be positive and finite, got {self.lr}")
        for name in ("lam_t", "lam_f"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise ContractError(f"{name} must be finite and >= 0, got {v}")
        if self.window % (2 ** len(self.encoder_channels)) != 0:
            raise ContractError(
                f"window {self.window} must be divisible by "
                f"2^{len(self.encoder_channels)} for the stride-2 blocks")


class FewSoundState:
    """Parameter groups gamma (encoder), delta (weight encoder), eta
    (hypernetwork), and the flat universal weights theta, split from
    (name, Tensor) pairs in _state_plan order."""

    def __init__(self, config: FewSoundConfig, named: list[tuple[str, Tensor]],
                 target_embedding: dict):
        self.config = config
        *rest, (_, self.theta) = named
        self.encoder, self.weight_enc, self.hyper = (
            [(n, p) for n, p in rest if n.startswith(group)]
            for group in ("enc.", "wenc.", "hyper."))
        self.target_embedding = target_embedding

    def named_params(self) -> list[tuple[str, Tensor]]:
        return [*self.encoder, *self.weight_enc, *self.hyper, ("theta", self.theta)]


def _state_plan(cfg: FewSoundConfig) -> list[tuple[str, tuple[int, ...]]]:
    """The state's layout: encoder, weight encoder, hypernetwork, theta."""
    p_count = inr.param_count(cfg.target)
    plan = [("enc.conv0.w", (cfg.conv0_channels, 1, 7)),
            ("enc.conv0.b", (cfg.conv0_channels,))]
    c_prev = cfg.conv0_channels
    for i, c in enumerate(cfg.encoder_channels):
        plan += [(f"enc.block{i}.down.w", (c, c_prev, 4)),
                 (f"enc.block{i}.down.b", (c,)),
                 (f"enc.block{i}.a.w", (c, c, 3)),
                 (f"enc.block{i}.a.b", (c,)),
                 (f"enc.block{i}.b.w", (c, c, 1)),
                 (f"enc.block{i}.b.b", (c,))]
        c_prev = c
    plan += [("enc.final.w", (c_prev, c_prev, 3)), ("enc.final.b", (c_prev,)),
             ("enc.out.w", (cfg.embed_dim, c_prev)), ("enc.out.b", (cfg.embed_dim,))]
    h = cfg.weight_enc_hidden
    plan += [("wenc.l0.w", (h, p_count)), ("wenc.l0.b", (h,)),
             ("wenc.l1.w", (cfg.embed_dim, h)), ("wenc.l1.b", (cfg.embed_dim,))]
    dims = [2 * cfg.embed_dim, *cfg.hyper_hidden, p_count]
    for i, (a, b) in enumerate(zip(dims[:-1], dims[1:])):
        plan += [(f"hyper.l{i}.w", (b, a)), (f"hyper.l{i}.b", (b,))]
    return plan + [("theta", (p_count,))]


def state_param_count(cfg: FewSoundConfig) -> int:
    return inr.plan_size(_state_plan(cfg))


def build_state(config: FewSoundConfig) -> FewSoundState:
    """Seeded init: every group but theta draws inr.uniform_init in plan
    order, except the hypernetwork's last layer, which starts at exactly
    zero; theta is inr.build(config.target), flattened."""
    rng = np.random.Generator(np.random.PCG64(config.seed))
    dt = T.get_default_dtype()
    *plan, _ = _state_plan(config)
    head = {name for name, _ in plan[-2:]}
    named = []
    for name, shape, fan_in in inr.fan_ins(plan):
        data = np.zeros(shape) if name in head else inr.uniform_init(rng, shape, fan_in)
        named.append((name, Tensor(data.astype(dt, copy=False), requires_grad=True)))
    universal = inr.build(config.target)
    theta = Tensor(inr.flatten_params(universal).astype(dt, copy=False), requires_grad=True)
    return FewSoundState(config, named + [("theta", theta)], universal.embedding)


def state_from_vector(config: FewSoundConfig, vector: np.ndarray) -> FewSoundState:
    """A state whose parameters are consecutive slices of a state_flatten
    vector: views of it when it has the default dtype, cast copies otherwise."""
    return FewSoundState(config, inr.leaves(vector, _state_plan(config)),
                         inr.frozen_embedding(config.target))


def state_flatten(state: FewSoundState) -> np.ndarray:
    """All four groups as one float64 vector, in named_params order."""
    return np.concatenate([p.data.ravel().astype(np.float64)
                           for _, p in state.named_params()])


# -- the three mappings --------------------------------------------------------


def encode_audio(state: FewSoundState, window) -> Tensor:
    """E_S for one window of exactly config.window samples, cast to the
    state's dtype."""
    cfg = state.config
    x = Tensor(np.asarray(window, dtype=state.theta.data.dtype))
    if x.shape != (cfg.window,):
        raise ContractError(f"window must have exactly {cfg.window} samples, "
                            f"got shape {x.shape}")
    p = dict(state.encoder)
    h = T.conv1d(T.reshape(x, (1, cfg.window)), p["enc.conv0.w"], p["enc.conv0.b"],
                 stride=1, padding=3).relu()
    for i in range(len(cfg.encoder_channels)):
        down = T.conv1d(h, p[f"enc.block{i}.down.w"], p[f"enc.block{i}.down.b"],
                        stride=2, padding=1).relu()
        r = T.conv1d(down, p[f"enc.block{i}.a.w"], p[f"enc.block{i}.a.b"],
                     stride=1, padding=1).relu()
        r = T.conv1d(r, p[f"enc.block{i}.b.w"], p[f"enc.block{i}.b.b"],
                     stride=1, padding=0)
        h = (down + r).relu()
    h = T.conv1d(h, p["enc.final.w"], p["enc.final.b"], stride=1, padding=1)
    pooled = T.reshape(h.mean(axis=1), (1, h.shape[0]))
    out = T.linear(pooled, p["enc.out.w"], p["enc.out.b"])
    return T.reshape(out, (cfg.embed_dim,))


def encode_weights(state: FewSoundState) -> Tensor:
    """E_theta from the current universal weights."""
    cfg = state.config
    p = dict(state.weight_enc)
    h = T.reshape(state.theta, (1, state.theta.size))
    h = T.linear(h, p["wenc.l0.w"], p["wenc.l0.b"], act="relu")
    h = T.linear(h, p["wenc.l1.w"], p["wenc.l1.b"])
    return T.reshape(h, (cfg.embed_dim,))


def predict_update(state: FewSoundState, e_s: Tensor | Sequence[Tensor],
                   e_theta: Tensor) -> Tensor:
    """Delta-theta from the embeddings: of length param_count(target) for
    one E_S, or (B, param_count(target)) for a list of B, row b from
    [E_S_b | E_theta].  Each hypernetwork layer is one ``linear`` over
    all B rows, so the head's weights are read, and their gradient
    written, once per batch."""
    cfg = state.config
    one = isinstance(e_s, Tensor)
    rows = [e_s] if one else list(e_s)
    shapes = [e.shape for e in rows] + [e_theta.shape]
    if not rows or any(s != (cfg.embed_dim,) for s in shapes):
        raise ShapeError(f"embeddings must all be ({cfg.embed_dim},), got "
                         f"{', '.join(map(str, shapes))}")
    h = T.concat([e for e_b in rows for e in (e_b, e_theta)])
    h = T.reshape(h, (len(rows), 2 * cfg.embed_dim))
    n_layers = len(state.hyper) // 2
    p = dict(state.hyper)
    for i in range(n_layers):
        h = T.linear(h, p[f"hyper.l{i}.w"], p[f"hyper.l{i}.b"],
                     act="relu" if i < n_layers - 1 else None)
    return T.reshape(h, (h.shape[1],)) if one else h


def adapted_flat(state: FewSoundState, window, e_theta: Tensor | None = None) -> Tensor:
    """theta + delta on the tape (gradients reach all four groups).

    ``e_theta`` is encode_weights(state), computed here when not given;
    callers adapting several windows to one state compute it once.
    """
    e_s = encode_audio(state, window)
    if e_theta is None:
        e_theta = encode_weights(state)
    return state.theta + predict_update(state, e_s, e_theta)


def adapt(state: FewSoundState, window, e_theta: Tensor | None = None) -> inr.InrModel:
    """Materialize the per-clip network f_{theta + delta}."""
    flat = adapted_flat(state, window, e_theta)
    return inr.unflatten_params(state.config.target, flat.data.astype(np.float64))


# -- meta-training ---------------------------------------------------------------


def meta_train(clips: Sequence, config: FewSoundConfig,
               resolutions=DEFAULT_RESOLUTIONS, n_mels: int = 80,
               weight_decay: float = 0.01) -> tuple[FewSoundState, np.ndarray]:
    """Joint training of all four groups; returns (state, per-epoch mean loss).

    Each clip contributes its first ``window`` samples.  Every batch
    computes E_theta once and E_S for each clip, then runs the update
    head once over the whole batch (``predict_update`` with the list of
    E_S).  Clip b is adapted with theta + row b of that delta and
    rendered over the window's [-1,1] time grid, and the batch's
    combined losses are summed.  AdamW steps once per batch
    (``optim.run_steps``, epochs x batches steps) under a one-cycle
    schedule.  A non-finite batch loss raises ContractError ("non-finite
    loss at step S") before that step.
    """
    windows = []
    for i, c in enumerate(clips):
        x = np.asarray(getattr(c, "samples", c), dtype=np.float64)
        if x.size < config.window:
            raise ContractError(f"clip {i} has {x.size} samples, "
                                f"need at least {config.window}")
        windows.append(x[:config.window])
    if not windows:
        raise ContractError("empty dataset")

    state = build_state(config)
    times = inr.time_grid(config.window, state.theta.data.dtype)
    p_count = state.theta.size
    loss_fns = [make_combined_loss(w, config.lam_t, config.lam_f, resolutions,
                                   config.sample_rate, n_mels) for w in windows]

    bs = config.batch_size or len(windows)
    batches = [list(range(i, min(i + bs, len(windows))))
               for i in range(0, len(windows), bs)]
    opt = AdamW(state.named_params(), lr=config.lr, weight_decay=weight_decay)
    sched = OneCycleSchedule(max_lr=config.lr, total_steps=config.epochs * len(batches))

    def batch_loss(step: int) -> Tensor:
        batch = batches[step % len(batches)]
        e_t = encode_weights(state)
        e_s = [encode_audio(state, windows[ci]) for ci in batch]
        delta = T.reshape(predict_update(state, e_s, e_t), (len(batch) * p_count,))
        total = None
        for b, ci in enumerate(batch):
            flat = state.theta + T.narrow(delta, b * p_count, p_count)
            pred = inr.forward_from_flat(config.target, flat, times, state.target_embedding)
            term = loss_fns[ci](pred)
            total = term if total is None else total + term
        return total

    losses = run_steps(opt, batch_loss, sched.total_steps,
                       lr_at=lambda step: one_cycle_lr(sched, step))
    # each epoch's batch losses summed left to right, as a running total would
    per_epoch = np.add.accumulate(losses.reshape(config.epochs, len(batches)), axis=1)
    return state, per_epoch[:, -1] / len(windows)


# -- overlap-add reconstruction --------------------------------------------------


def crossfade_window(window: int) -> np.ndarray:
    """Half-sample-offset Hann; strictly positive, and complementary at
    50% overlap (w[i] + w[i + window/2] == 1)."""
    n = np.arange(window)
    return 0.5 - 0.5 * np.cos(2.0 * math.pi * (n + 0.5) / window)


def window_plan(n: int, window: int) -> list[int]:
    """Start offsets: hop = window/2, final window right-aligned."""
    if n <= window:
        return [0]
    hop = window // 2
    starts = list(range(0, n - window + 1, hop))
    if starts[-1] != n - window:
        starts.append(n - window)
    return starts


def overlap_add_weights(n: int, window: int) -> tuple[list[int], np.ndarray]:
    """(starts, norm): norm is the per-sample sum of the windows'
    crossfades over a span of max(n, window) samples (longer than n only
    when the signal is padded to one window), added in window order.
    Window i's normalized weight is crossfade_window(window) /
    norm[s_i:s_i + window]; these sum to one at every sample."""
    starts = window_plan(n, window)
    w = crossfade_window(window)
    norm = np.zeros(max(n, window))
    for s in starts:
        norm[s:s + window] += w
    return starts, norm


# (set, get) thread-count entry points of the OpenBLAS builds numpy ships:
# scipy-openblas (numpy >= 2), the 64-bit-int build, and a plain one
_OPENBLAS_THREADS = (("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
                     ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
                     ("openblas_set_num_threads", "openblas_get_num_threads"))


def _openblas_threads():
    """(set, get) for the OpenBLAS numpy loaded, or None where none is found."""
    try:
        try:
            from numpy._core import _multiarray_umath as umath
        except ImportError:                 # numpy < 2
            from numpy.core import _multiarray_umath as umath
        lib = ctypes.CDLL(umath.__file__)   # dlsym also searches its dependencies
    except (ImportError, OSError):
        return None
    for set_name, get_name in _OPENBLAS_THREADS:
        set_fn, get_fn = getattr(lib, set_name, None), getattr(lib, get_name, None)
        if set_fn is not None and get_fn is not None:
            set_fn.argtypes, set_fn.restype = (ctypes.c_int,), None
            get_fn.argtypes, get_fn.restype = (), ctypes.c_int
            return set_fn, get_fn
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Hold numpy's OpenBLAS to one thread inside the block, restoring its
    previous count on exit; yields False (and sets nothing) where no
    OpenBLAS thread control is found."""
    blas = _openblas_threads()
    if blas is None:
        yield False
        return
    set_threads, get_threads = blas
    prev = get_threads()
    set_threads(1)
    try:
        yield True
    finally:
        set_threads(prev)


def _render_workers() -> int:
    """One rendering thread per CPU this process may run on."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity is not None else os.cpu_count() or 1


def reconstruct_long(state: FewSoundState | None, clip,
                     render_fn: Callable[[np.ndarray], np.ndarray] | None = None,
                     window: int | None = None) -> np.ndarray:
    """Window-by-window reconstruction of audio of any length.

    ``render_fn`` maps one window of true samples to its rendering; by
    default each window is adapted and rendered with the meta-trained
    state through adapted_flat and inr.forward_from_flat, as in
    meta_train.  Output length equals input length; short inputs are
    padded to one window and trimmed afterwards.

    Windows render on a thread pool, one worker per usable CPU and at
    most two windows per worker in flight, and are blended in window
    order.  While the pool runs, numpy's OpenBLAS is held to one thread
    (its count is restored on return or raise), so the output does not
    depend on BLAS's thread count; where no OpenBLAS thread control is
    found, the pool has one worker.  E_theta is encoded once, untaped, in
    the calling thread.  Each worker runs ``render_fn``, custom or
    default, inside its own ``tensor.no_grad`` and under the caller's
    default dtype, since both are per thread; an error it raises is
    re-raised here.  Only the BLAS pin is process-wide, so calls must
    not overlap in one process.  Besides the output, memory holds the
    1-D normalizer and one window's working set per worker.
    """
    x = np.asarray(getattr(clip, "samples", clip), dtype=np.float64)
    if x.ndim != 1 or x.size < 1:
        raise ContractError(f"need a non-empty 1-D signal, got shape {x.shape}")
    if state is not None:
        window = state.config.window
    if window is None:
        raise ContractError("pass a window length when no state is given")
    if render_fn is None and state is None:
        raise ContractError("either a trained state or a render_fn is required")

    n = x.size
    starts, norm = overlap_add_weights(n, window)
    if n < window:
        x = np.pad(x, (0, window - n))
    fade = crossfade_window(window)
    out = np.zeros(norm.size)

    def blend(s: int, rendering) -> None:
        y = np.asarray(rendering.result(), dtype=np.float64)
        if y.shape != (window,):
            raise ShapeError(f"render_fn returned shape {y.shape}, want ({window},)")
        out[s:s + window] += y * (fade / norm[s:s + window])

    # imported here: concurrent.futures loads logging, a few ms that every
    # process importing audioinr would pay otherwise
    from concurrent.futures import ThreadPoolExecutor

    dtype = T.get_default_dtype()
    with T.no_grad(), _one_blas_thread() as pinned:
        if render_fn is None:
            times = inr.time_grid(window, state.theta.data.dtype)
            e_t = encode_weights(state)

            def render_fn(seg: np.ndarray) -> np.ndarray:
                return inr.forward_from_flat(state.config.target, adapted_flat(state, seg, e_t),
                                             times, state.target_embedding).data

        def render(seg: np.ndarray):
            # grad mode and the default dtype are the worker thread's own
            with T.default_dtype(dtype), T.no_grad():
                return render_fn(seg)

        workers = _render_workers() if pinned else 1
        pool = ThreadPoolExecutor(workers)
        in_flight = deque()
        try:
            for s in starts:
                in_flight.append((s, pool.submit(render, x[s:s + window])))
                if len(in_flight) == 2 * workers:
                    blend(*in_flight.popleft())
            while in_flight:
                blend(*in_flight.popleft())
        finally:
            pool.shutdown(cancel_futures=True)
    return out[:n]
