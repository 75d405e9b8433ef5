"""Dense tensors with reverse-mode automatic differentiation.

A tape-style engine on top of numpy: every operation that touches a
gradient-tracking tensor records its parents and a backward closure.
Graphs are rebuilt on every training step and live only as long as
their loss is referenced.  ``backward`` frees each interior node's
gradient as soon as that node's closure has passed it on, so only leaf
gradients outlive the sweep.  Inside the ``no_grad`` context manager
operations record nothing, so a render that is never differentiated
frees each intermediate value as soon as the next operation has
consumed it.
64-bit floats are the default; call ``set_default_dtype`` or use the
``default_dtype`` context manager for 32-bit runs.  Grad mode and the
default dtype are per thread: every thread starts taping, in float64,
and ``no_grad`` or ``default_dtype`` in one thread leaves the others'
as they were.

Elementwise ops (``+ - * /``, ``log``, ``abs``, ``square``, ``sqrt``,
``relu``, ``scale``, ``shift``, ``clamp``, ``sin``) and the ``sum`` and
``mean`` reductions are Tensor methods, each building its own node.
There is no broadcasting: binary ops accept equal shapes only, and
anything else is a ShapeError.  Scalars enter through ``scale`` and
``shift``; biases through ``linear``, the one matrix product.

Each dense layer is one ``linear`` node with an optional ReLU, sin or
FINER activation, applied in the pre-activation's own buffer.  A WIRE
layer (``gabor_layer``) builds its output in place.  Neither node keeps
anything beyond its output: where the backward needs the pre-activation
z, it recomputes it with the forward's own product, bitwise equal, and
builds the gradient at z in that buffer.
``conv1d`` copies its patch matrix from a strided view of the padded
input and accumulates its input gradient one kernel tap at a time.
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes do not satisfy an operation's contract."""


class DomainError(ValueError):
    """Operand values lie outside an operation's numeric domain."""


class ContractError(ValueError):
    """An operation was called in a way its contract forbids."""


class _Mode(threading.local):
    """This thread's default dtype and grad mode; the class attributes are
    every thread's starting values."""
    dtype = np.float64
    grad = True


_mode = _Mode()
_ids = itertools.count()

# guard used when differentiating sqrt/magnitude at zero
_SQRT_EPS = 1e-12


def set_default_dtype(dtype) -> None:
    """Set this thread's dtype for wrapping plain data in Tensors ('float32'/'float64')."""
    dt = np.dtype(dtype)
    if dt not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ContractError(f"unsupported dtype {dtype!r}; use float32 or float64")
    _mode.dtype = dt.type


def get_default_dtype():
    return _mode.dtype


@contextmanager
def default_dtype(dtype):
    """Temporarily switch this thread's default dtype (restored on exit)."""
    prev = _mode.dtype
    set_default_dtype(dtype)
    try:
        yield
    finally:
        set_default_dtype(prev)


@contextmanager
def no_grad():
    """Record no tape in this thread inside the block: every result has no
    parents and requires_grad=False.  Nests; the previous state returns
    on exit."""
    prev = _mode.grad
    _mode.grad = False
    try:
        yield
    finally:
        _mode.grad = prev


class Tensor:
    """N-d value array, optionally tracking gradients through a tape.

    ``data`` is a numpy array and is never mutated by operations.  AdamW
    owns the arrays of the parameters it steps and mutates them in place
    between steps, after the step's graph has been consumed.  It keeps a
    leaf's ``data`` when only the leaf refers to it (an array that owns
    its C-contiguous, writeable memory) and replaces it with a private
    copy otherwise, so an array a caller still holds is never written.
    Float arrays are kept as given; anything else (lists, integer or bool
    arrays) becomes the default dtype.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_id")

    def __init__(self, data, requires_grad: bool = False, _parents: tuple = (),
                 _backward: Callable | None = None):
        if isinstance(data, Tensor):
            data = data.data
        if not (isinstance(data, np.ndarray) and np.issubdtype(data.dtype, np.floating)):
            data = np.asarray(data, dtype=_mode.dtype)
        self.data = data
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._backward = _backward
        self._id = next(_ids)

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- elementwise operations ---------------------------------------------

    def __add__(self, other):
        a, b = _pair(self, other)
        return _node(a.data + b.data, (a, b), _passing((a, None), (b, None)))

    def __sub__(self, other):
        a, b = _pair(self, other)
        return _node(a.data - b.data, (a, b), _passing((a, None), (b, lambda g: -g)))

    def __mul__(self, other):
        a, b = _pair(self, other)
        x, y = a.data, b.data
        return _node(x * y, (a, b), _passing((a, lambda g: g * y), (b, lambda g: g * x)))

    def __truediv__(self, other):
        a, b = _pair(self, other)
        x, y = a.data, b.data
        if np.any(y == 0.0):
            raise DomainError("division by zero")
        return _node(x / y, (a, b),
                     _passing((a, lambda g: g / y), (b, lambda g: -g * x / (y * y))))

    def sin(self):
        x = self.data
        return _node(np.sin(x), (self,), _passing((self, lambda g: g * np.cos(x))))

    def log(self):
        x = self.data
        if np.any(x <= 0.0):
            raise DomainError("log requires strictly positive inputs")
        return _node(np.log(x), (self,), _passing((self, lambda g: g / x)))

    def abs(self):
        # subgradient 0 at exactly 0 (np.sign(0) == 0)
        x = self.data
        return _node(np.abs(x), (self,), _passing((self, lambda g: g * np.sign(x))))

    def square(self):
        x = self.data
        return _node(np.square(x), (self,), _passing((self, lambda g: g * (2.0 * x))))

    def sqrt(self):
        if np.any(self.data < 0.0):
            raise DomainError("sqrt requires non-negative inputs")
        out = np.sqrt(self.data)
        return _node(out, (self,),
                     _passing((self, lambda g: g * (0.5 / np.maximum(out, _SQRT_EPS)))))

    def relu(self):
        x = self.data
        return _node(np.maximum(x, 0.0), (self,), _passing((self, lambda g: g * (x > 0.0))))

    def scale(self, alpha: float):
        return _node(alpha * self.data, (self,), _passing((self, lambda g: alpha * g)))

    def shift(self, alpha: float):
        return _node(self.data + alpha, (self,), _passing((self, None)))

    def clamp(self, lo: float, hi: float):
        x = self.data
        return _node(np.clip(x, lo, hi), (self,),
                     _passing((self, lambda g: g * ((x >= lo) & (x <= hi)))))

    # -- reductions ----------------------------------------------------------

    def sum(self, axis=None):
        bwd = _reduction(self, axis, mean=False)
        return _node(np.asarray(np.sum(self.data, axis=axis)), (self,), bwd)

    def mean(self, axis=None):
        bwd = _reduction(self, axis, mean=True)
        return _node(np.asarray(np.mean(self.data, axis=axis)), (self,), bwd)


def _node(data: np.ndarray, parents: Sequence[Tensor], bwd: Callable) -> Tensor:
    if _mode.grad and any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, _parents=tuple(parents), _backward=bwd)
    return Tensor(data)


def _accum(t: Tensor, g: np.ndarray) -> None:
    """Add ``g`` into t's gradient buffer, copying it on the first write.

    For a ``g`` the caller does not own: the upstream gradient itself or a
    view of it, which other parents may receive too.
    """
    if t.requires_grad:
        if t.grad is None:
            t.grad = np.zeros_like(t.data)
        t.grad += g


def _accum_fresh(t: Tensor, g: np.ndarray) -> None:
    """Like _accum for a ``g`` the backward just computed and no one else
    holds: the first write keeps it as the gradient buffer (cast to t's
    dtype; a numpy scalar from a 0-d op becomes a 0-d array), later writes
    add in place."""
    if t.requires_grad:
        if t.grad is None:
            t.grad = np.asarray(g, dtype=t.data.dtype)
        else:
            t.grad += g


def _pass_grad(t: Tensor, g: np.ndarray, dfn: Callable | None) -> None:
    """Hand t the upstream ``g`` as is (``dfn`` None) or the fresh dfn(g)."""
    if t.requires_grad:
        if dfn is None:
            _accum(t, g)
        else:
            _accum_fresh(t, dfn(g))


def _pair(a: Tensor, b) -> tuple[Tensor, Tensor]:
    """The operands of a binary op, which must have one shape."""
    b = _as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"shapes {a.shape} and {b.shape} differ; binary ops take "
                         "equal shapes (scalars go through scale/shift)")
    return a, b


def _passing(*pairs: tuple[Tensor, Callable | None]) -> Callable:
    """The backward of an elementwise node: each (parent, dfn) pair gets
    dfn(g), or the upstream g itself where dfn is None."""
    def bwd(g):
        for t, dfn in pairs:
            _pass_grad(t, g, dfn)
    return bwd


def _reduction(a: Tensor, axis: int | None, mean: bool) -> Callable:
    """The backward of a sum (or mean) of a over ``axis``, all axes when
    None: g spread back over a's shape (divided by the count for a mean)."""
    if axis is not None and not (0 <= axis < a.data.ndim):
        raise ShapeError(f"axis {axis} out of range for shape {a.shape}")
    scale_back = 1.0 / (a.data.size if axis is None else a.shape[axis]) if mean else 1.0

    def bwd(g):
        if axis is None:
            _accum(a, np.broadcast_to(np.asarray(g * scale_back, dtype=a.data.dtype), a.shape))
        else:
            _accum(a, np.broadcast_to(np.expand_dims(g, axis) * scale_back, a.shape))

    return bwd


# -- layer operations -------------------------------------------------------


def linear(x: Tensor, w: Tensor, b: Tensor | None = None, act: str | None = None,
           omega0: float = 1.0) -> Tensor:
    """Dense layer act(x @ Wᵀ + b) as one node: x (n, d_in), W (d_out, d_in), b (d_out,).

    ``act`` is None (the affine map), "relu", "sin" (sin(omega0 z)) or
    "finer" (sin(omega0 z |z + 1|)).  The activation is applied in z's own
    buffer, in the order the separate relu / scale / shift / abs / mul /
    sin ops would round in, so results are bitwise equal to that graph.
    The node keeps nothing beyond its output: ReLU's mask is out > 0, and
    the sin and FINER backward recomputes z with the forward's own
    product, bitwise equal to it, and builds the activation's derivative
    in that buffer.  Backward then writes dW = dzᵀ.x, dx = dz.W and db =
    dz summed over rows.
    """
    x, w = _as_tensor(x), _as_tensor(w)
    if x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[1]:
        raise ShapeError(f"linear shapes x{x.shape} and W{w.shape} do not chain")
    if act not in _ACTS:
        raise ContractError(f"unknown activation {act!r}; expected one of {_ACTS}")
    if b is not None:
        b = _as_tensor(b)
        if b.shape != (w.shape[0],):
            raise ShapeError(f"linear bias shape {b.shape} != ({w.shape[0]},)")
    bd = None if b is None else b.data
    out = _dense_act(_affine(x.data, w.data, bd), act, omega0)

    def bwd(g):
        if act == "relu":
            g = g * (out > 0.0)
        elif act is not None:
            g = _dense_dz(_affine(x.data, w.data, bd), g, act, omega0)
        if x.requires_grad:
            _accum_fresh(x, g @ w.data)
        if w.requires_grad:
            _accum_fresh(w, g.T @ x.data)
        if b is not None and b.requires_grad:
            _accum_fresh(b, g.sum(axis=0))

    return _node(out, (x, w) if b is None else (x, w, b), bwd)


_ACTS = (None, "relu", "sin", "finer")


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray | None) -> np.ndarray:
    """z = x Wᵀ + b in a fresh array.  The same calls on the same operands
    give the same bits, so a backward may recompute z instead of keeping it."""
    z = x @ w.T
    if b is not None:
        if np.can_cast(b.dtype, z.dtype):
            z += b
        else:
            z = z + b
    return z


def _dense_act(z: np.ndarray, act: str | None, omega0: float) -> np.ndarray:
    """linear's activation, written over the pre-activation z it owns: none,
    ReLU, or sin of the phase (omega0 z for sin, omega0 z |z + 1| for
    FINER)."""
    if act == "relu":
        return np.maximum(z, 0.0, out=z)
    if act == "finer":
        _finer_phase(z, omega0, out=z)
    elif act == "sin" and omega0 != 1.0:
        z *= omega0
    return z if act is None else np.sin(z, out=z)


def _dense_dz(z: np.ndarray, g: np.ndarray, act: str, omega0: float) -> np.ndarray:
    """Gradient at z of sin or FINER from the gradient g at the output,
    written over the recomputed pre-activation z.  It rounds as the
    stored-phase form cos(phase) g omega0 does, times d(z |z + 1|)/dz =
    |z + 1| + z sign(z + 1) for FINER; sin needs no other array, FINER
    two."""
    if act == "sin":
        c = z
        if omega0 != 1.0:
            c *= omega0
    else:
        c = _finer_phase(z, omega0)
    np.cos(c, out=c)
    c *= g
    if omega0 != 1.0:
        c *= omega0
    if act == "sin":
        return c
    zp1 = z + 1.0
    z *= c                                  # c z
    c *= zp1
    sgn = np.sign(zp1, out=zp1)
    c *= sgn                                # c |z + 1|, exactly: sgn is ±1 or 0
    z *= sgn
    z += c
    return z


def _finer_phase(z: np.ndarray, omega0: float, out: np.ndarray | None = None) -> np.ndarray:
    """omega0 z |z + 1|, rounded as the shift, abs, mul and scale ops round
    it, written into ``out`` (which may be z) or a fresh array."""
    a = z + 1.0
    np.abs(a, out=a)
    s = np.multiply(z, a, out=a if out is None else out)
    if omega0 != 1.0:
        s *= omega0
    return s


def gabor_floor(dtype) -> float:
    """Exponent below which gabor_layer sets its envelope to exactly 0.

    At half of ln(smallest normal) the envelope is still normal, and so is
    its product with any activation or gradient of order one: no
    subnormal reaches a matmul, whose cost on subnormals is 5-15x.
    """
    return 0.5 * float(np.log(np.finfo(dtype).tiny))


def gabor_layer(x: Tensor, w: Tensor, b: Tensor, omega0: float, s0: float) -> Tensor:
    """One WIRE hidden layer as one node: the complex Gabor wavelet of z = x Wᵀ + b.

    ``x`` is a real (n, d_in) input or a stacked complex one, (2, n, d_in)
    = [re, im]; the output is always stacked, (2, n, d_out).  With the
    combined exponent expo = -omega0 z_im - s0² |z|², kept bounded by
    e^(omega0² / (4 s0²)), it is e^expo [cos(omega0 z_re), sin(omega0 z_re)].
    The bias enters the real half only.  Where expo < gabor_floor(dtype)
    the envelope, and so its gradient, is exactly 0.  The node keeps only
    its output: the backward recomputes z with the forward's own product,
    bitwise equal to it, and writes the gradient at z over it.
    """
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    first = x.data.ndim == 2
    if not (first or (x.data.ndim == 3 and x.shape[0] == 2)) or w.data.ndim != 2 \
            or x.shape[-1] != w.shape[1]:
        raise ShapeError(f"gabor_layer shapes x{x.shape} and W{w.shape} do not chain; "
                         "x must be (n, d_in) or (2, n, d_in)")
    if b.shape != (w.shape[0],):
        raise ShapeError(f"gabor_layer bias shape {b.shape} != ({w.shape[0]},)")
    n, d_out = x.shape[-2], w.shape[0]
    xs = x.data.reshape(-1, x.shape[-1])
    dt = np.result_type(x.data, w.data, b.data)

    def affine():
        z = (xs @ w.data.T).astype(dt, copy=False).reshape(-1, n, d_out)
        z[0] += b.data
        return z

    z = affine()
    z_re = z[0]
    out = np.empty((2, n, d_out), dtype=z.dtype)
    re, im = out
    # the exponent is built in im, with re as scratch: squares, their sum, then
    # the scales, the order the reference graph in the tests rounds in, so
    # float64 losses agree with it bit for bit
    expo = np.square(z_re, out=im)
    if not first:
        expo += np.square(z[1], out=re)
    expo *= -s0 * s0
    if not first:
        expo += np.multiply(z[1], -omega0, out=re)
    # re is scratch until cos fills it: the floor's mask goes there, as bools
    below = np.less(expo, gabor_floor(expo.dtype),
                    out=re.view(np.uint8)[:, :d_out].view(np.bool_))
    np.copyto(expo, -np.inf, where=below)
    mag = np.exp(expo, out=expo)
    ang = z_re                  # z is spent: the angle is written over its real half
    ang *= omega0
    np.cos(ang, out=re)
    re *= mag
    mag *= np.sin(ang, out=ang)

    def bwd(g):
        dz = _gabor_dz(g, out, affine(), omega0, s0)
        dzs = dz.reshape(-1, d_out)
        if x.requires_grad:
            _accum_fresh(x, (dzs @ w.data).reshape(x.shape))
        if w.requires_grad:
            _accum_fresh(w, dzs.T @ xs)
        if b.requires_grad:
            _accum_fresh(b, dz[0].sum(axis=0))

    return _node(out, (x, w, b), bwd)


def _gabor_dz(g: np.ndarray, out: np.ndarray, z: np.ndarray, omega0: float,
              s0: float) -> np.ndarray:
    """Gradient at z from the gradient g at gabor_layer's output, written
    over z, the recomputed pre-activation.

    With out = e^expo [cos, sin] of omega0 z_re, the envelope's gradient
    times the envelope is d_expo = g_re re + g_im im and the phase's is
    d_ang = g_im re - g_re im, so neither cos nor sin is kept; both are
    exactly 0 wherever the envelope was floored.  Beyond z it allocates
    two scratch arrays of z_re's shape.  It forms k z_re d_expo in z[0]
    first, then -(omega0 + k z_im) d_expo in z[1], then
    omega0 d_ang - k z_re d_expo in z[0], with d_expo's array reused as
    scratch: the rounding of the form that keeps z.
    """
    re, im = out
    k = 2.0 * s0 * s0
    d_expo = np.multiply(g[0], re)
    scratch = np.multiply(g[1], im)
    d_expo += scratch
    z[0] *= k
    z[0] *= d_expo
    if len(z) == 2:
        d_im = z[1]
        d_im *= k
        d_im += omega0
        np.negative(d_im, out=d_im)
        d_im *= d_expo
    d_ang = np.multiply(g[1], re, out=d_expo)
    d_ang -= np.multiply(g[0], im, out=scratch)
    d_ang *= omega0
    np.subtract(d_ang, z[0], out=z[0])
    return z


# -- structural operations -------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    a = _as_tensor(a)
    shape = tuple(shape)
    if int(np.prod(shape)) != a.size:
        raise ShapeError(f"cannot reshape {a.shape} ({a.size} values) to {shape}")

    def bwd(g):
        _accum(a, g.reshape(a.shape))

    return _node(a.data.reshape(shape), (a,), bwd)


def concat(tensors: Sequence[Tensor]) -> Tensor:
    """Concatenate 1-D tensors."""
    tensors = [_as_tensor(t) for t in tensors]
    if any(t.data.ndim != 1 for t in tensors):
        raise ShapeError("concat expects 1-D tensors")
    sizes = [t.size for t in tensors]
    offs = np.cumsum([0] + sizes)

    def bwd(g):
        for t, s, e in zip(tensors, offs[:-1], offs[1:]):
            _accum(t, g[s:e])

    return _node(np.concatenate([t.data for t in tensors]), tuple(tensors), bwd)


def narrow(a: Tensor, start: int, length: int) -> Tensor:
    """Contiguous 1-D slice a[start:start+length]."""
    a = _as_tensor(a)
    if a.data.ndim != 1:
        raise ShapeError(f"narrow expects a 1-D tensor, got shape {a.shape}")
    if start < 0 or start + length > a.size:
        raise ShapeError(f"narrow [{start}:{start + length}] out of range for size {a.size}")

    def bwd(g):
        if a.requires_grad:
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            a.grad[start:start + length] += g

    return _node(a.data[start:start + length], (a,), bwd)


def conv1d(x: Tensor, w: Tensor, b: Tensor | None, stride: int = 1, padding: int = 0) -> Tensor:
    """1-D convolution: x (C_in, T), w (C_out, C_in, K), b (C_out,) -> (C_out, T_out).

    The (C_in·K, T_out) patch matrix is copied once from a read-only
    strided view of the zero-padded input.  Backward accumulates the input
    gradient one kernel tap at a time, in x's dtype.
    """
    x, w = _as_tensor(x), _as_tensor(w)
    if x.data.ndim != 2 or w.data.ndim != 3 or x.shape[0] != w.shape[1]:
        raise ShapeError(f"conv1d shapes x{x.shape} w{w.shape} incompatible")
    c_in, t = x.shape
    c_out, _, k = w.shape
    t_pad = t + 2 * padding
    t_out = (t_pad - k) // stride + 1
    if t_out < 1:
        raise ShapeError(f"conv1d kernel {k} does not fit input length {t} (pad {padding})")

    xp = x.data
    if padding:
        xp = np.zeros((c_in, t_pad), x.data.dtype)
        xp[:, padding:padding + t] = x.data
    # patches[ci*k + j, t] = xp[ci, j + stride*t], copied once from a strided
    # view so that both products below run in BLAS
    s_c, s_t = xp.strides
    patches = np.ascontiguousarray(np.lib.stride_tricks.as_strided(
        xp, (c_in, k, t_out), (s_c, s_t, stride * s_t), writeable=False
    )).reshape(c_in * k, t_out)
    w2 = w.data.reshape(c_out, c_in * k)
    out = w2 @ patches
    if b is not None:
        b = _as_tensor(b)
        if b.shape != (c_out,):
            raise ShapeError(f"conv1d bias shape {b.shape} != ({c_out},)")
        out = out + b.data[:, None]

    def bwd(g):
        if b is not None:
            _accum_fresh(b, g.sum(axis=1))
        _accum_fresh(w, (g @ patches.T).reshape(w.shape))
        if x.requires_grad:
            dpatches = (w2.T @ g).reshape(c_in, k, t_out)
            dxp = np.zeros((c_in, t_pad), dtype=x.data.dtype)
            span = stride * (t_out - 1) + 1
            for j in range(k):                  # taps add in order j = 0, 1, ...
                dxp[:, j:j + span:stride] += dpatches[:, j]
            _accum_fresh(x, dxp[:, padding:padding + t] if padding else dxp)

    parents = (x, w) if b is None else (x, w, b)
    return _node(out, parents, bwd)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# -- backward pass and gradient checking -----------------------------------


def _reachable(root: Tensor) -> list[Tensor]:
    seen = {id(root): root}
    stack = [root]
    while stack:
        node = stack.pop()
        for p in node._parents:
            if id(p) not in seen:
                seen[id(p)] = p
                stack.append(p)
    return list(seen.values())


def backward(loss: Tensor, leaves: Iterable[Tensor] | None = None) -> dict[int, np.ndarray] | None:
    """Reverse sweep from a scalar loss; repeat calls recompute identical grads.

    An interior node's gradient is freed (set to None) as soon as its
    backward closure has passed it on to its parents, so the sweep holds
    only the gradients still waiting to be consumed.  Leaves (tensors
    with no backward closure) keep theirs, and so does any tensor named
    in ``leaves``.  When ``leaves`` is given, every leaf is guaranteed a
    gradient buffer afterwards (zeros if unreachable from the loss) and
    a map from leaf id() to gradient array is returned.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
    leaves = None if leaves is None else list(leaves)
    kept = {id(leaf) for leaf in leaves or ()}
    nodes = _reachable(loss)
    for node in nodes:
        node.grad = None
    loss.grad = np.ones_like(loss.data)
    for node in sorted(nodes, key=lambda n: n._id, reverse=True):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
            if id(node) not in kept:
                node.grad = None
    if leaves is None:
        return None
    out = {}
    for leaf in leaves:
        if leaf.grad is None:
            leaf.grad = np.zeros_like(leaf.data)
        out[id(leaf)] = leaf.grad
    return out


def grad_check(f: Callable[..., Tensor], inputs: Sequence[Tensor], h: float = 1e-6,
               n_samples: int | None = None, seed: int = 0,
               denom_floor: float = 1e-6) -> float:
    """Worst relative error between analytic gradients of f and central differences.

    Checks every coordinate, or ``n_samples`` seeded random coordinates
    per input tensor.  Reports, never raises.
    """
    inputs = list(inputs)
    loss = f(*inputs)
    grads = backward(loss, leaves=inputs)
    rng = np.random.Generator(np.random.PCG64(seed))
    worst = 0.0
    for t in inputs:
        flat = t.data.reshape(-1)
        n = flat.size
        if n_samples is None or n_samples >= n:
            coords = range(n)
        else:
            coords = rng.choice(n, size=n_samples, replace=False)
        gflat = grads[id(t)].reshape(-1)
        for i in coords:
            orig = flat[i]
            flat[i] = orig + h
            hi = float(f(*inputs).data)
            flat[i] = orig - h
            lo = float(f(*inputs).data)
            flat[i] = orig
            numeric = (hi - lo) / (2.0 * h)
            analytic = gflat[i]
            denom = max(abs(analytic), abs(numeric), denom_floor)
            worst = max(worst, abs(analytic - numeric) / denom)
    return worst
