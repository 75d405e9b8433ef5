"""Coordinate networks mapping time in [-1,1] to one amplitude.

Six architectures behind one config type:

- ``nerf``   positional encoding (interleaved sin/cos octaves) + ReLU MLP
- ``siren``  sinusoidal MLP, sin(omega0 (Wx+b)) hidden activations
- ``rff``    random Fourier features (frozen Gaussian projection) + ReLU MLP
- ``wire``   complex Gabor wavelet activations, carried as stacked
             (2, n, d) = [real, imag] arrays
- ``finer``  variable-periodic activation sin(omega0 |u+1| u)
- ``kan``    positional encoding + layers of learnable edge functions
             phi(x) = w_b silu(x) + w_s spline(x), nodes sum, no biases

Each KAN layer runs as one ``bspline.kan_layer`` tape op, which builds
its spline bases one block of rows at a time instead of as a dense
(n, d_in, n_bases) tensor.  Each WIRE hidden layer runs as one
``tensor.gabor_layer`` op; its envelope is set to exactly 0 where it
would fall below the square root of the dtype's smallest normal number,
so its activations and their gradients hold no subnormal values, on
which matmuls run many times slower.

Parameters flatten in a fixed layer-major order (dense: W then b; kan:
w_b, w_s, coeffs), so flat vectors, additive deltas, and serialized
payloads all agree.  Frozen state (the RFF projection) is derived from
the config seed, never stored in the parameter vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor, ContractError, ShapeError
from .bspline import kan_layer, make_grid

ARCHS = ("nerf", "siren", "rff", "wire", "finer", "kan")

_KAN_HIDDEN = (48, 24, 12)
_MLP_HIDDEN = (128, 128, 128)


@dataclass
class InrConfig:
    """Architecture tag plus every knob needed to rebuild the network.

    ``hidden`` and ``omega0`` default per architecture when left None.
    param_count is a pure function of this record.
    """
    arch: str
    hidden: tuple[int, ...] | None = None
    encoding_length: int = 8
    rff_features: int = 64
    rff_sigma: float = 10.0
    omega0: float | None = None
    s0: float = 10.0
    finer_bias_bound: float = 1.0
    grid_size: int = 10
    spline_order: int = 2
    scale_spline: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.arch not in ARCHS:
            raise ContractError(f"unknown arch {self.arch!r}; expected one of {ARCHS}")
        if self.hidden is None:
            self.hidden = _KAN_HIDDEN if self.arch == "kan" else _MLP_HIDDEN
        self.hidden = tuple(int(w) for w in self.hidden)
        if not self.hidden or any(w < 1 for w in self.hidden):
            raise ContractError(f"hidden widths must be positive, got {self.hidden}")
        if self.omega0 is None:
            self.omega0 = 20.0 if self.arch == "wire" else 30.0
        if self.encoding_length < 1:
            raise ContractError(f"encoding_length must be >= 1, got {self.encoding_length}")
        if self.rff_features < 1:
            raise ContractError(f"rff_features must be >= 1, got {self.rff_features}")
        for name in ("rff_sigma", "omega0", "s0", "finer_bias_bound"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ContractError(f"{name} must be positive and finite, got {v}")
        if self.grid_size < 1 or self.spline_order < 0:
            raise ContractError("grid_size must be >= 1 and spline_order >= 0")


def input_dim(config: InrConfig) -> int:
    if config.arch in ("nerf", "kan"):
        return 2 * config.encoding_length
    if config.arch == "rff":
        return 2 * config.rff_features
    return 1


def layer_dims(config: InrConfig) -> list[int]:
    return [input_dim(config), *config.hidden, 1]


def param_shapes(config: InrConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Ordered (name, shape) pairs defining the flatten layout."""
    dims = layer_dims(config)
    shapes: list[tuple[str, tuple[int, ...]]] = []
    if config.arch == "kan":
        nb = config.grid_size + config.spline_order
        for i, (d_in, d_out) in enumerate(zip(dims[:-1], dims[1:])):
            shapes.append((f"kan{i}.w_b", (d_out, d_in)))
            if config.scale_spline:
                shapes.append((f"kan{i}.w_s", (d_out, d_in)))
            shapes.append((f"kan{i}.coeffs", (d_out, d_in, nb)))
    else:
        for i, (d_in, d_out) in enumerate(zip(dims[:-1], dims[1:])):
            shapes.append((f"layer{i}.W", (d_out, d_in)))
            shapes.append((f"layer{i}.b", (d_out,)))
    return shapes


def param_count(config: InrConfig) -> int:
    return sum(int(np.prod(s)) for _, s in param_shapes(config))


class InrModel:
    """Built network: config, ordered parameter tensors, frozen embedding state."""

    def __init__(self, config: InrConfig, params: list[Tensor], embedding: dict):
        self.config = config
        self.params = params
        self.embedding = embedding

    def named_params(self) -> list[tuple[str, Tensor]]:
        return [(name, p) for (name, _), p in zip(param_shapes(self.config), self.params)]

    def forward(self, times) -> Tensor:
        return forward(self, times)


def build(config: InrConfig, seed: int | None = None) -> InrModel:
    """Initialize a network; draws happen in flatten order, embedding first."""
    rng = np.random.Generator(np.random.PCG64(config.seed if seed is None else seed))
    dt = T.get_default_dtype()
    embedding = frozen_embedding(config, rng)

    dims = layer_dims(config)
    n_layers = len(dims) - 1
    params: list[Tensor] = []
    for name, shape in param_shapes(config):
        prefix = name.split(".")[0]
        layer_idx = int(prefix[3:]) if prefix.startswith("kan") else int(prefix[5:])
        data = _init_param(config, name, shape, layer_idx, n_layers, rng)
        params.append(Tensor(data.astype(dt, copy=False), requires_grad=True, name=name))
    return InrModel(config, params, embedding)


def frozen_embedding(config: InrConfig, rng: np.random.Generator | None = None) -> dict:
    """Frozen state (the RFF projection): the first draws of ``rng``, by
    default seeded with config.seed, as in build(config)."""
    if config.arch != "rff":
        return {}
    if rng is None:
        rng = np.random.Generator(np.random.PCG64(config.seed))
    return {"rff_b": rng.normal(0.0, config.rff_sigma,
                                config.rff_features).astype(np.float64)}


def _init_param(config, name, shape, layer_idx, n_layers, rng) -> np.ndarray:
    kind = name.split(".")[1]
    if config.arch == "kan":
        d_out, d_in = shape[0], shape[1]
        if kind in ("w_b", "w_s"):
            bound = math.sqrt(6.0 / (d_in + d_out))
            return rng.uniform(-bound, bound, shape)
        return rng.normal(0.0, 0.1 / math.sqrt(shape[-1]), shape)

    d_in = shape[1] if kind == "W" else None
    if kind == "W":
        if config.arch in ("siren", "finer"):
            if layer_idx == 0:
                bound = 1.0 / d_in
            else:
                bound = math.sqrt(6.0 / d_in) / config.omega0
            return rng.uniform(-bound, bound, shape)
        if config.arch == "wire":
            return rng.normal(0.0, 1.0, shape) / math.sqrt(d_in)
        bound = math.sqrt(6.0 / d_in)                      # relu families
        return rng.uniform(-bound, bound, shape)
    # biases
    fan_in = layer_dims(config)[layer_idx]
    if config.arch == "finer" and layer_idx == 0:
        return rng.uniform(-config.finer_bias_bound, config.finer_bias_bound, shape)
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, shape)


# -- forward -----------------------------------------------------------------


def _pe_consts(length: int) -> tuple[np.ndarray, np.ndarray]:
    """Row of frequencies and phases giving gamma(t): interleaved
    [sin(2^l pi t), cos(2^l pi t)] pairs (cos x = sin(x + pi/2))."""
    octaves = math.pi * np.exp2(np.arange(length, dtype=np.float64))
    freq = np.repeat(octaves, 2)[None, :]
    phase = np.tile([0.0, math.pi / 2.0], length)
    return freq, phase


def _rff_consts(b_vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Frequencies/phases giving [cos(2 pi B t), sin(2 pi B t)] (cos block first)."""
    m = b_vec.size
    freq = 2.0 * math.pi * np.concatenate([b_vec, b_vec])[None, :]
    phase = np.concatenate([np.full(m, math.pi / 2.0), np.zeros(m)])
    return freq, phase


def _sin_features(t2: Tensor, freq: np.ndarray, phase: np.ndarray) -> Tensor:
    """sin(t freq + phase) for times t2 (n, 1) and a (1, m) frequency row:
    a linear node with freq as its (m, 1) weight and phase as its bias,
    then sin, in t2's dtype."""
    dt = t2.data.dtype
    return T.linear(t2, Tensor(freq.T.astype(dt)), Tensor(phase.astype(dt))).sin()


def forward(model: InrModel, times) -> Tensor:
    """Amplitudes at the given times; times are clamped to [-1,1] first."""
    cfg = model.config
    t = T._as_tensor(times)
    if t.data.ndim != 1:
        raise ShapeError(f"times must be 1-D, got shape {t.shape}")
    return _forward_with(cfg, model.params, t, model.embedding)


def _forward_with(cfg: InrConfig, plist: list[Tensor], t: Tensor, embedding: dict) -> Tensor:
    n = t.size
    t2 = T.reshape(t.clamp(-1.0, 1.0), (n, 1))

    if cfg.arch == "kan":
        return _kan_forward(cfg, plist, t2)
    if cfg.arch == "wire":
        return _wire_forward(cfg, plist, t2)

    if cfg.arch == "nerf":
        x = _sin_features(t2, *_pe_consts(cfg.encoding_length))
    elif cfg.arch == "rff":
        x = _sin_features(t2, *_rff_consts(embedding["rff_b"]))
    else:
        x = t2

    pairs = [(plist[2 * i], plist[2 * i + 1]) for i in range(len(plist) // 2)]
    for i, (w, b) in enumerate(pairs):
        x = T.linear(x, w, b)
        if i == len(pairs) - 1:
            break
        if cfg.arch in ("nerf", "rff"):
            x = x.relu()
        elif cfg.arch == "siren":
            x = x.scale(cfg.omega0).sin()
        elif cfg.arch == "finer":
            x = (x * x.shift(1.0).abs()).scale(cfg.omega0).sin()
    return T.reshape(x, (n,))


def _kan_forward(cfg: InrConfig, plist: list[Tensor], t2: Tensor) -> Tensor:
    n = t2.shape[0]
    x = _sin_features(t2, *_pe_consts(cfg.encoding_length))
    grid = make_grid(cfg.grid_size, cfg.spline_order)
    per_layer = 3 if cfg.scale_spline else 2
    for i in range(0, len(plist), per_layer):
        chunk = plist[i:i + per_layer]
        w_s = chunk[1] if cfg.scale_spline else None
        x = kan_layer(x, chunk[0], w_s, chunk[-1], grid)
    return T.reshape(x, (n,))


def _wire_forward(cfg: InrConfig, plist: list[Tensor], t2: Tensor) -> Tensor:
    n = t2.shape[0]
    x = t2
    for i in range(0, len(plist) - 2, 2):
        x = T.gabor_layer(x, plist[i], plist[i + 1], cfg.omega0, cfg.s0)
    # the output layer reads the real half: rows [0, n) of the stacked (2n, d)
    out = T.linear(T.reshape(x, (2 * n, x.shape[-1])), plist[-2], plist[-1])
    return T.narrow(T.reshape(out, (2 * n,)), 0, n)


# -- flat-vector plumbing ------------------------------------------------------


def flatten_params(model: InrModel) -> np.ndarray:
    return np.concatenate([p.data.ravel() for p in model.params])


def unflatten_params(config: InrConfig, vector: np.ndarray) -> InrModel:
    """Inverse of flatten: rebuild a model (frozen state comes from config.seed).

    Parameters are views of ``vector`` when it has the default dtype,
    cast copies otherwise."""
    vector = np.asarray(vector)
    expected = param_count(config)
    if vector.ndim != 1 or vector.size != expected:
        raise ShapeError(f"parameter vector has {vector.size} entries, "
                         f"config needs {expected}")
    dt = T.get_default_dtype()
    params = []
    off = 0
    for name, shape in param_shapes(config):
        k = int(np.prod(shape))
        params.append(Tensor(vector[off:off + k].reshape(shape).astype(dt, copy=False),
                             requires_grad=True, name=name))
        off += k
    return InrModel(config, params, frozen_embedding(config))


def forward_from_flat(config: InrConfig, flat: Tensor, times, embedding: dict) -> Tensor:
    """Forward pass with all parameters sliced from one flat tensor.

    Keeps the graph connected to ``flat``, so gradients flow into
    whatever produced it (e.g. theta + delta on the tape).
    """
    if flat.data.ndim != 1 or flat.size != param_count(config):
        raise ShapeError(f"flat vector has {flat.size} entries, "
                         f"config needs {param_count(config)}")
    t = T._as_tensor(times)
    plist = []
    off = 0
    for _, shape in param_shapes(config):
        k = int(np.prod(shape))
        plist.append(T.reshape(T.narrow(flat, off, k), shape))
        off += k
    return _forward_with(config, plist, t, embedding)
