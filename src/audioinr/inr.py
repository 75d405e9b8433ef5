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

Each dense layer, activation included, runs as one ``tensor.linear``
tape op, and so do the sin features of nerf, rff and kan.  Each KAN
layer runs as one ``bspline.kan_layer`` tape op, which builds its
spline bases one block of rows at a time instead of as a dense
(n, d_in, n_bases) tensor.  Each WIRE hidden layer runs as one
``tensor.gabor_layer`` op; its envelope is set to exactly 0 where it
would fall below the square root of the dtype's smallest normal number,
so its activations and their gradients hold no subnormal values, on
which matmuls run many times slower.

A layout is a plan: an ordered list of (name, shape) pairs.  Parameters
flatten in plan order, layer-major (dense: W then b; kan: w_b, w_s,
coeffs), so flat vectors, additive deltas, and serialized payloads all
agree; ``leaves`` is the one slicer from a flat vector to a plan's
tensors and ``plan_size`` the one count.  Frozen state (the RFF
projection) is derived from the config seed, never stored in the
parameter vector.

``build`` draws every parameter from one seeded PCG64 in plan order,
after the frozen state.  ``uniform_init`` (weights U(+-sqrt(6/fan_in)),
biases U(+-1/sqrt(fan_in)) with the fan-in of the weight before them in
the plan) serves nerf, rff and every bias but FINER's first;
``_init_param`` holds the SIREN/FINER, WIRE and KAN rules.
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
        if not 0 <= self.seed < 2 ** 63:       # PCG64 seed, stored as an i64
            raise ContractError(f"seed must be in [0, 2**63), got {self.seed}")
        check_slot("hidden layer count", len(self.hidden), 8)
        check_slot("hidden", max(self.hidden), 32)
        for name in ("encoding_length", "rff_features", "grid_size", "spline_order"):
            check_slot(name, getattr(self, name), 32)


def check_slot(name: str, value: int, bits: int) -> None:
    """ContractError unless a count fits the unsigned ``bits``-wide slot
    the model file stores it in, so a trained model can always be saved."""
    if value >= 2 ** bits:
        raise ContractError(f"{name} must be below 2**{bits}, the width of its "
                            f"model-file slot, got {value}")


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


def plan_size(plan) -> int:
    """Entries in a flat vector laid out by ``plan``."""
    return sum(math.prod(shape) for _, shape in plan)


def param_count(config: InrConfig) -> int:
    return plan_size(param_shapes(config))


def _slices(plan, vector: np.ndarray):
    """(name, shape, offset, size) of each plan entry in a flat vector;
    ShapeError unless the vector is 1-D with plan_size(plan) entries."""
    if vector.ndim != 1 or vector.size != plan_size(plan):
        raise ShapeError(f"flat vector has {vector.size} entries, "
                         f"layout needs {plan_size(plan)}")
    off = 0
    for name, shape in plan:
        k = math.prod(shape)
        yield name, shape, off, k
        off += k


def leaves(vector: np.ndarray, plan) -> list[tuple[str, Tensor]]:
    """(name, trainable Tensor) per plan entry, sliced from a flat vector
    of plan_size(plan) entries: views of it when it has the default
    dtype, cast copies otherwise."""
    vector, dt = np.asarray(vector), T.get_default_dtype()
    return [(name, Tensor(vector[off:off + k].reshape(shape).astype(dt, copy=False),
                          requires_grad=True))
            for name, shape, off, k in _slices(plan, vector)]


def fan_ins(plan):
    """(name, shape, fan_in): prod(shape[1:]) for a weight; a bias takes the one before it."""
    fan_in = None
    for name, shape in plan:
        if len(shape) > 1:
            fan_in = math.prod(shape[1:])
        yield name, shape, fan_in


def uniform_init(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    """Weights (2-D or more) from U(+-sqrt(6/fan_in)), biases from U(+-1/sqrt(fan_in))."""
    bound = math.sqrt(6.0 / fan_in) if len(shape) > 1 else 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, shape)


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
    """Initialize a network; draws happen in plan order, embedding first."""
    rng = np.random.Generator(np.random.PCG64(config.seed if seed is None else seed))
    dt = T.get_default_dtype()
    embedding = frozen_embedding(config, rng)
    params = []
    for i, (_, shape, fan_in) in enumerate(fan_ins(param_shapes(config))):
        data = _init_param(config, shape, fan_in, i < 2, rng)   # dense: W0, b0 first
        params.append(Tensor(data.astype(dt, copy=False), requires_grad=True))
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


def _init_param(config, shape, fan_in, first_layer, rng) -> np.ndarray:
    """siren/finer W: U(+-1/fan_in) in layer 0, else U(+-sqrt(6/fan_in)/omega0);
    finer's layer-0 bias U(+-finer_bias_bound); wire W: N(0, 1/fan_in);
    kan w_b, w_s: U(+-sqrt(6/(d_in+d_out))), coeffs N(0, (0.1/sqrt(n_bases))^2)."""
    if config.arch == "kan":
        if len(shape) == 2:                                # w_b, w_s
            bound = math.sqrt(6.0 / (shape[0] + shape[1]))
            return rng.uniform(-bound, bound, shape)
        return rng.normal(0.0, 0.1 / math.sqrt(shape[-1]), shape)
    if config.arch in ("siren", "finer"):
        if len(shape) == 2:
            bound = 1.0 / fan_in if first_layer else math.sqrt(6.0 / fan_in) / config.omega0
            return rng.uniform(-bound, bound, shape)
        if config.arch == "finer" and first_layer:
            return rng.uniform(-config.finer_bias_bound, config.finer_bias_bound, shape)
    elif config.arch == "wire" and len(shape) == 2:
        return rng.normal(0.0, 1.0, shape) / math.sqrt(fan_in)
    return uniform_init(rng, shape, fan_in)


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
    one linear node with freq as its (m, 1) weight, phase as its bias and
    a sin activation, in t2's dtype."""
    dt = t2.data.dtype
    return T.linear(t2, Tensor(freq.T.astype(dt)), Tensor(phase.astype(dt)), act="sin")


def time_grid(n: int, dtype) -> np.ndarray:
    """A clip's n sample times, spaced uniformly over [-1, 1], in ``dtype``."""
    return np.linspace(-1.0, 1.0, n).astype(dtype, copy=False)


def forward(model: InrModel, times) -> Tensor:
    """Amplitudes at the given 1-D times; times are clamped to [-1,1] first."""
    return _forward_with(model.config, model.params, times, model.embedding)


def _forward_with(cfg: InrConfig, plist: list[Tensor], times, embedding: dict) -> Tensor:
    t = T._as_tensor(times)
    if t.data.ndim != 1:
        raise ShapeError(f"times must be 1-D, got shape {t.shape}")
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

    act = _DENSE_ACTS[cfg.arch]
    for i in range(0, len(plist), 2):
        last = i == len(plist) - 2
        x = T.linear(x, plist[i], plist[i + 1], act=None if last else act, omega0=cfg.omega0)
    return T.reshape(x, (n,))


_DENSE_ACTS = {"nerf": "relu", "rff": "relu", "siren": "sin", "finer": "finer"}


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
    params = [p for _, p in leaves(vector, param_shapes(config))]
    return InrModel(config, params, frozen_embedding(config))


def forward_from_flat(config: InrConfig, flat: Tensor, times, embedding: dict) -> Tensor:
    """Forward pass with all parameters sliced from one flat tensor.

    Keeps the graph connected to ``flat``, so gradients flow into
    whatever produced it (e.g. theta + delta on the tape).
    """
    plist = [T.reshape(T.narrow(flat, off, k), shape)
             for _, shape, off, k in _slices(param_shapes(config), flat.data)]
    return _forward_with(config, plist, times, embedding)
