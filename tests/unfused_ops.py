"""Unfused tape ops and the layer graphs built from them: oracles for the fused ops.

The package's tape holds only what its networks run: ``linear`` as the
one matrix product, elementwise ops on equal shapes, and one node per
layer.  The graphs those fused ops replaced need a few more ops (a bare
matrix product, a transpose, a bias add that broadcasts over rows, a
trailing repeat, and the exp, cos and SiLU activations).  They live here,
built on ``tensor._node`` and ``tensor._accum``, so the tests can rebuild
each fused op out of separate nodes and compare; so does the gather and
``np.bincount`` form of ``conv1d`` that the strided one replaced, and
the forms of ``linear`` and ``gabor_layer`` that keep z for the backward
instead of recomputing it.
"""

import math

import numpy as np
from scipy.special import expit

from audioinr import tensor as T
from audioinr.bspline import spline_bases
from audioinr.loss import StftResolution, hann_window
from audioinr.tensor import ShapeError, Tensor, _accum, _accum_fresh, _as_tensor, _node

# -- ops ------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """2-D matrix product with gradients dA = dC.Bᵀ, dB = Aᵀ.dC."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul shapes {a.shape} x {b.shape} do not chain")

    def bwd(g):
        if a.requires_grad:
            _accum(a, g @ b.data.T)
        if b.requires_grad:
            _accum(b, a.data.T @ g)

    return _node(a.data @ b.data, (a, b), bwd)


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose needs a 2-D tensor, got shape {a.shape}")

    def bwd(g):
        _accum(a, g.T)

    return _node(a.data.T, (a,), bwd)


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """x + b with a 1-D b along x's trailing axis; b's gradient sums the rows."""
    x, b = _as_tensor(x), _as_tensor(b)
    if b.data.ndim != 1 or x.data.ndim < 2 or x.shape[-1] != b.shape[0]:
        raise ShapeError(f"bias {b.shape} does not fit the trailing axis of {x.shape}")

    def bwd(g):
        _accum(x, g)
        _accum(b, g.sum(axis=tuple(range(g.ndim - 1))))

    return _node(x.data + b.data, (x, b), bwd)


def expand_last(a: Tensor, n: int) -> Tensor:
    """Repeat along a new trailing axis of size n; gradient sums it back."""
    a = _as_tensor(a)
    out = np.broadcast_to(a.data[..., None], a.shape + (n,))

    def bwd(g):
        _accum(a, g.sum(axis=-1))

    return _node(np.ascontiguousarray(out), (a,), bwd)


def _unary(a: Tensor, out: np.ndarray, dfn) -> Tensor:
    a = _as_tensor(a)

    def bwd(g):
        _accum(a, dfn(g))

    return _node(out, (a,), bwd)


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return _unary(a, out, lambda g: g * out)


def cos(a: Tensor) -> Tensor:
    x = a.data
    return _unary(a, np.cos(x), lambda g: -g * np.sin(x))


def silu(a: Tensor) -> Tensor:
    x = a.data
    sig = expit(x)
    return _unary(a, x * sig, lambda g: g * (sig * (1.0 + x * (1.0 - sig))))


UNARY = {"exp": exp, "cos": cos, "silu": silu}


def bincount_conv1d(x, w, b, stride=1, padding=0):
    """Oracle for T.conv1d: patches gathered through an int64 index array,
    the input gradient scattered back by np.bincount (always float64)."""
    x, w = _as_tensor(x), _as_tensor(w)
    c_in, t = x.shape
    c_out, _, k = w.shape
    t_pad = t + 2 * padding
    t_out = (t_pad - k) // stride + 1
    xp = np.pad(x.data, ((0, 0), (padding, padding))) if padding else x.data
    cols = stride * np.arange(t_out)[None, :] + np.arange(k)[:, None]      # (k, t_out)
    idx = (np.arange(c_in)[:, None, None] * t_pad + cols[None]).reshape(c_in * k, t_out)
    patches = xp.ravel()[idx]                                              # (c_in*k, t_out)
    w2 = w.data.reshape(c_out, c_in * k)
    out = w2 @ patches
    if b is not None:
        b = _as_tensor(b)
        out = out + b.data[:, None]

    def bwd(g):
        if b is not None:
            _accum_fresh(b, g.sum(axis=1))
        _accum_fresh(w, (g @ patches.T).reshape(w.shape))
        if x.requires_grad:
            dpatches = w2.T @ g
            flat = np.bincount(idx.ravel(), weights=dpatches.ravel(), minlength=c_in * t_pad)
            dxp = flat.reshape(c_in, t_pad)
            _accum_fresh(x, dxp[:, padding:padding + t] if padding else dxp)

    return _node(out, (x, w) if b is None else (x, w, b), bwd)


def stored_z_linear(x, w, b=None, act=None, omega0=1.0):
    """Oracle for T.linear: the same node, but sin keeps its phase omega0 z
    and FINER keeps z for the backward instead of recomputing z."""
    x, w = _as_tensor(x), _as_tensor(w)
    z = x.data @ w.data.T
    if b is not None:
        b = _as_tensor(b)
        if np.can_cast(b.data.dtype, z.dtype):
            z += b.data
        else:
            z = z + b.data
    if act is None or act == "relu":
        out = z if act is None else np.maximum(z, 0.0, out=z)
        dz = (lambda g: g) if act is None else (lambda g: g * (out > 0.0))
    elif act == "sin":
        s = z * omega0 if omega0 != 1.0 else z
        out = np.sin(s)

        def dz(g):
            c = np.cos(s)
            c *= g
            return c * omega0 if omega0 != 1.0 else c
    else:
        out = np.sin(T._finer_phase(z, omega0))

        def dz(g):
            c = np.cos(T._finer_phase(z, omega0))
            c *= g
            if omega0 != 1.0:
                c *= omega0
            # d(z |z + 1|)/dz = |z + 1| + z sign(z + 1)
            zp1 = z + 1.0
            d = c * z
            d *= np.sign(zp1)
            c *= np.abs(zp1)
            return c + d

    def bwd(g):
        g = dz(g)
        if x.requires_grad:
            _accum_fresh(x, g @ w.data)
        if w.requires_grad:
            _accum_fresh(w, g.T @ x.data)
        if b is not None and b.requires_grad:
            _accum_fresh(b, g.sum(axis=0))

    return _node(out, (x, w) if b is None else (x, w, b), bwd)


def stored_z_gabor_layer(x, w, b, omega0, s0):
    """Oracle for T.gabor_layer: the same node, but it keeps z for the
    backward instead of recomputing it."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    first = x.data.ndim == 2
    n, d_out = x.shape[-2], w.shape[0]
    xs = x.data.reshape(-1, x.shape[-1])
    dt = np.result_type(x.data, w.data, b.data)
    z = (xs @ w.data.T).astype(dt, copy=False).reshape(-1, n, d_out)
    z[0] += b.data
    expo = np.square(z[0])
    if not first:
        expo += np.square(z[1])
    expo *= -s0 * s0
    if not first:
        expo += z[1] * -omega0
    np.copyto(expo, -np.inf, where=expo < T.gabor_floor(expo.dtype))
    mag = np.exp(expo)
    ang = z[0] * omega0
    out = np.stack([np.cos(ang) * mag, mag * np.sin(ang)])

    def bwd(g):
        re, im = out
        k = 2.0 * s0 * s0
        d_expo = g[0] * re + g[1] * im
        dz = np.empty_like(z)
        dz[0] = (g[1] * re - g[0] * im) * omega0 - z[0] * k * d_expo
        if not first:
            dz[1] = -(z[1] * k + omega0) * d_expo
        dzs = dz.reshape(-1, d_out)
        if x.requires_grad:
            _accum_fresh(x, (dzs @ w.data).reshape(x.shape))
        if w.requires_grad:
            _accum_fresh(w, dzs.T @ xs)
        if b.requires_grad:
            _accum_fresh(b, dz[0].sum(axis=0))

    return _node(out, (x, w, b), bwd)


# -- unfused layer graphs ---------------------------------------------------------


def unfused_linear(x, w, b=None):
    """Oracle for T.linear: the matmul / transpose / bias-add graph it replaces."""
    out = matmul(x, transpose(w))
    return out if b is None else add_bias(out, b)


def unfused_dense(x, w, b=None, act=None, omega0=1.0):
    """Oracle for T.linear with an activation: unfused_linear, then relu,
    scale + sin, or FINER's shift / abs / mul / scale / sin chain."""
    z = unfused_linear(x, w, b)
    if act is None:
        return z
    if act == "relu":
        return z.relu()
    if act == "finer":
        z = z * z.shift(1.0).abs()
    return (z if omega0 == 1.0 else z.scale(omega0)).sin()


def unfused_sin_features(t2, freq, phase):
    """Oracle for inr._sin_features: sin(t2 @ freq + phase) as three nodes."""
    dt = t2.data.dtype
    return add_bias(matmul(t2, Tensor(freq.astype(dt))), Tensor(phase.astype(dt))).sin()


def unfused_kan_layer(x, w_b, w_s, coeffs, grid):
    """The per-layer graph kan_layer replaces, built from separate tape ops."""
    n, d_in = x.shape
    d_out, nb = w_b.shape[0], grid.n_bases
    eff = coeffs if w_s is None else expand_last(w_s, nb) * coeffs
    base = matmul(silu(x), transpose(w_b))
    bases = spline_bases(x.clamp(grid.lo, grid.hi), grid)
    flat_b = T.reshape(bases, (n, d_in * nb))
    flat_e = T.reshape(eff, (d_out, d_in * nb))
    return base + matmul(flat_b, transpose(flat_e))


def unfused_wire_forward(cfg, plist, t2):
    """Oracle for WIRE's Gabor layers: the linear / square / scale / exp /
    cos / sin / mul chain, one (real, imaginary) pair of tensors per layer."""
    om, s0 = cfg.omega0, cfg.s0
    re, im = t2, None
    for i in range(0, len(plist) - 2, 2):
        w, b = plist[i], plist[i + 1]
        z_re = T.linear(re, w, b)
        z_im = T.linear(im, w) if im is not None else None
        if z_im is None:
            expo = z_re.square().scale(-s0 * s0)
        else:
            expo = z_im.scale(-om) + (z_re.square() + z_im.square()).scale(-s0 * s0)
        mag = exp(expo)
        ang = z_re.scale(om)
        re, im = mag * cos(ang), mag * ang.sin()
    return T.reshape(T.linear(re, plist[-2], plist[-1]), (t2.shape[0],))


def chain_stft_mag(signal: Tensor, res: StftResolution) -> Tensor:
    """The STFT as a tape chain of framing, a window multiply and two
    matmuls against cos/-sin DFT matrices, then sqrt(re^2 + im^2).  The
    matrices keep only the window's rows: zero padding meets the rest."""
    n_frames = (signal.size - res.window_size) // res.hop_size + 1
    idx = res.hop_size * np.arange(n_frames)[:, None] + np.arange(res.window_size)

    def frame_bwd(g):
        _accum(signal, np.bincount(idx.ravel(), weights=g.ravel(), minlength=signal.size))

    frames = _node(signal.data[idx], (signal,), frame_bwd)
    wf = frames * Tensor(np.broadcast_to(hann_window(res.window_size), frames.shape))
    ang = (2.0 * math.pi / res.fft_size) * np.outer(np.arange(res.window_size),
                                                    np.arange(res.bins))
    re = matmul(wf, Tensor(np.cos(ang)))
    im = matmul(wf, Tensor(-np.sin(ang)))
    return (re.square() + im.square()).sqrt()
