"""Uniform B-spline bases on a bounded interval.

A grid of ``grid_size`` cells over [lo, hi] is extended by ``order``
knot steps on each side, giving ``grid_size + order`` basis functions
of degree ``order``.  Bases are evaluated with the iterative Cox-de
Boor recursion, seeded with the order-1 pair ``[1 - u, u]`` (u the
position inside the point's cell), so any point in range touches at
most ``order + 1`` functions and the full set sums to one.  Inputs are
clamped to the domain before evaluation.

``spline_bases`` exposes the basis matrix to the autodiff engine, with
the derivative recurrence as its backward rule.

``kan_layer`` is one whole KAN layer as a single tape op,
``silu(x) @ w_bᵀ + B(clamp(x)) @ (w_s ⊙ coeffs)ᵀ``.  It walks the rows
in blocks of ``max(1, BUDGET // (d_in * n_bases))``: each block's k+1
band values are scattered into one reused dense buffer and multiplied
against the flattened effective coefficients, so the dense
``(n, d_in, n_bases)`` basis tensor never exists.  The node keeps only
x, the parameters and the flattened effective coefficients ``eff``,
nothing per (row, input) point: the backward pass recomputes each
block's cells, bands and derivative bands, the sigmoid and the clamp
mask, which come out bitwise equal to the forward's.  Its one
(n, d_in) array holds the SiLU for w_b's gradient and then the input
gradient.  The sigmoid is ``0.5 + 0.5 tanh(x / 2)``, computed in place
in x's dtype: it is within 2.2e-16 of the logistic function in float64
and, unlike ``1 / (1 + exp(-x))``, overflows at no finite input.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import Tensor, ContractError, ShapeError, _node, _accum_fresh, _as_tensor

# dense basis entries per row block of kan_layer: 512 KiB in float64,
# small enough for the block buffer to stay in cache
BUDGET = 1 << 16


@dataclass(frozen=True)
class SplineGrid:
    """Uniform extended knot grid; build with make_grid."""
    grid_size: int
    order: int
    lo: float
    hi: float
    knots: np.ndarray = field(repr=False)

    @property
    def n_bases(self) -> int:
        return self.grid_size + self.order

    @property
    def step(self) -> float:
        return (self.hi - self.lo) / self.grid_size


def make_grid(grid_size: int, order: int, lo: float = -1.0, hi: float = 1.0) -> SplineGrid:
    """Grid with grid_size + 2*order + 1 uniform knots over an extended [lo, hi]."""
    if grid_size < 1:
        raise ContractError(f"grid_size must be >= 1, got {grid_size}")
    if order < 0:
        raise ContractError(f"order must be >= 0, got {order}")
    if not hi > lo:
        raise ContractError(f"interval [{lo}, {hi}] is empty")
    h = (hi - lo) / grid_size
    knots = lo + h * np.arange(-order, grid_size + order + 1, dtype=np.float64)
    return SplineGrid(grid_size, order, float(lo), float(hi), knots)


def _banded_impl(xf: np.ndarray, grid: SplineGrid, want_deriv: bool):
    """Band evaluation over flat float64 points in [lo, hi]: only the
    k+1 bases covering a point are nonzero, so the recursion carries k+1
    columns, each a contiguous 1-D vector, built in place.

    Returns (cell, band, dband): basis cell + p is the (cell + p)-th of
    the n_bases functions and takes value band[p], p = 0..k; dband is
    None unless requested.
    """
    G, k = grid.grid_size, grid.order
    h = grid.step
    u = xf - grid.lo
    u /= h
    # x == hi lands in the last cell, so the right endpoint stays covered;
    # fmax/fmin send a NaN point to cell 0 (its band stays NaN)
    f = np.floor(u)
    np.fmax(f, 0, out=f)
    np.fmin(f, G - 1, out=f)
    cell = f.astype(np.int64)
    u -= f                                  # position inside the cell, in [0, 1]

    # order 1 is [1 - u, u]; u is only read from here on
    band = [np.ones_like(xf)] if k == 0 else [1.0 - u, u]
    prev = [np.ones_like(xf)] if k == 1 and want_deriv else band
    for r in range(2, k + 1):
        if r == k:
            prev = band
        # B_{i,r} = (u + r - p)/r * B_{i,r-1} + (p + 1 - u)/r * B_{i+1,r-1}
        # in band coordinates p, with i = cell + p - r
        nxt = []
        for p in range(r + 1):
            if p == 0:
                acc = 1.0 - u
                acc *= band[0]
            elif p == r:
                acc = u * band[r - 1]
            else:
                acc = u + (r - p)
                acc *= band[p - 1]
                t = (p + 1) - u
                t *= band[p]
                acc += t
            acc /= r
            nxt.append(acc)
        band = nxt

    if not want_deriv:
        return cell, band, None
    if k == 0:
        return cell, band, [np.zeros_like(xf)]
    # uniform knots collapse the derivative recurrence to a difference
    # quotient of the order k-1 values
    dband = [np.negative(prev[0])]
    for p in range(1, k):
        dband.append(prev[p - 1] - prev[p])
    for col in dband:
        col /= h
    dband.append(prev[k - 1] / h)
    return cell, band, dband


def _scatter(cell: np.ndarray, band, grid: SplineGrid) -> np.ndarray:
    nb = grid.n_bases
    full = np.zeros(cell.size * nb)
    idx = np.arange(cell.size) * nb + cell
    for p, col in enumerate(band):
        full[idx + p] = col
    return full.reshape(cell.size, nb)


def spline_bases(x: Tensor, grid: SplineGrid) -> Tensor:
    """Tape op: x (...,) -> basis matrix x.shape + (n_bases,).

    The backward rule contracts the output gradient with the analytic
    basis derivatives.  Points clamped at the boundary get the one-sided
    interior derivative; put a clamp op upstream when gradients must
    vanish out of range.
    """
    x = _as_tensor(x)
    xc = np.clip(x.data.astype(np.float64, copy=False), grid.lo, grid.hi)
    shp = xc.shape
    cell, band, dband = _banded_impl(xc.reshape(-1), grid, want_deriv=x.requires_grad)
    bases = _scatter(cell, band, grid).reshape(shp + (grid.n_bases,))
    bases = bases.astype(x.data.dtype, copy=False)
    idx = np.arange(cell.size) * grid.n_bases + cell

    def bwd(g):
        if x.requires_grad:
            gflat = g.reshape(-1)
            acc = gflat[idx] * dband[0]
            for p in range(1, grid.order + 1):
                acc += gflat[idx + p] * dband[p]
            _accum_fresh(x, acc.reshape(shp))

    return _node(bases, (x,), bwd)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function of x in x's dtype, as one new array."""
    s = np.multiply(x, 0.5)
    np.tanh(s, out=s)
    s *= 0.5
    s += 0.5
    return s


def kan_layer(x: Tensor, w_b: Tensor, w_s: Tensor | None, coeffs: Tensor,
              grid: SplineGrid) -> Tensor:
    """Tape op: one KAN layer, x (n, d_in) -> (n, d_out).

    Computes ``silu(x) @ w_bᵀ + B(clamp(x)) @ effᵀ`` with
    ``eff = w_s[..., None] * coeffs`` (``eff = coeffs`` when ``w_s`` is
    None), flattened to (d_out, d_in * n_bases).  Inputs outside the
    grid are clamped before the spline, and the spline term passes no
    gradient to them.  The bases are built and consumed one row block
    at a time; the recursion runs in float64, the buffer and the matmuls
    in x's dtype.  The node keeps x, the parameters and eff; its
    backward rebuilds each block's bases (with their derivatives when x
    needs a gradient), the sigmoid and the clamp mask, and skips the
    bases when neither x nor the spline parameters need a gradient.  The
    sigmoid, the SiLU and its derivative are formed a block at a time
    too.  The backward's one (n, d_in) array holds the SiLU until w_b's
    gradient ``gᵀ silu`` is taken, then ``dx = g @ w_b`` in its place;
    it is built only when x or w_b needs a gradient.
    """
    x, w_b, coeffs = _as_tensor(x), _as_tensor(w_b), _as_tensor(coeffs)
    w_s = None if w_s is None else _as_tensor(w_s)
    nb = grid.n_bases
    if x.data.ndim != 2:
        raise ShapeError(f"kan_layer input must be 2-D, got shape {x.shape}")
    n, d_in = x.shape
    if d_in == 0:
        raise ShapeError(f"kan_layer input needs at least one column, got shape {x.shape}")
    d_out = w_b.shape[0]
    if (w_b.shape != (d_out, d_in) or coeffs.shape != (d_out, d_in, nb)
            or (w_s is not None and w_s.shape != (d_out, d_in))):
        got = [t.shape for t in (w_b, w_s, coeffs) if t is not None]
        raise ShapeError(f"kan_layer parameter shapes {got} do not fit input {x.shape} "
                         f"with {nb} bases")
    xd = x.data
    eff = coeffs.data if w_s is None else w_s.data[..., None] * coeffs.data
    eff2 = eff.reshape(d_out, d_in * nb)

    rows = max(1, BUDGET // (d_in * nb))
    blocks = [(s, min(s + rows, n)) for s in range(0, n, rows)]
    silu = np.empty_like(xd)
    for s, e in blocks:
        np.multiply(xd[s:e], _sigmoid(xd[s:e]), out=silu[s:e])
    out = silu @ w_b.data.T
    del silu

    buf = np.zeros(min(rows, n) * d_in * nb, dtype=xd.dtype)
    offsets = np.arange(min(rows, n) * d_in) * nb

    def bases(s, e, want_deriv):
        """Rows s:e clamped to the grid, in float64, through _banded_impl;
        the dense bases go into the buffer.  Returns the flat positions
        of band column 0, the (m, d_in * nb) view and the derivative band."""
        xb = np.clip(xd[s:e], grid.lo, grid.hi, dtype=np.float64)
        cell, band, dband = _banded_impl(xb.reshape(-1), grid, want_deriv)
        idx = offsets[:cell.size] + cell
        dense = buf[:cell.size * nb]
        dense.fill(0.0)
        for p, col in enumerate(band):
            dense[p:][idx] = col
        return idx, dense.reshape(-1, d_in * nb), dband

    for s, e in blocks:
        out[s:e] += bases(s, e, False)[1] @ eff2.T

    def bwd(g):
        need_eff = coeffs.requires_grad or (w_s is not None and w_s.requires_grad)
        # one (n, d_in) buffer holds the SiLU until w_b's gradient is taken,
        # then dx = g @ w_b, where that product has x's dtype
        work = None
        if w_b.requires_grad:
            work = np.empty((n, d_in), dtype=xd.dtype)
            for s, e in blocks:
                np.multiply(xd[s:e], _sigmoid(xd[s:e]), out=work[s:e])
            _accum_fresh(w_b, g.T @ work)
        dx = None
        if x.requires_grad:
            if work is not None and np.result_type(g, w_b.data) == xd.dtype:
                dx = np.matmul(g, w_b.data, out=work)
            else:
                dx = g @ w_b.data
        del work
        if not (need_eff or dx is not None):
            return
        d_eff = np.zeros_like(eff2) if need_eff else None
        for s, e in blocks:
            xs = xd[s:e]
            if dx is not None:
                sig = _sigmoid(xs)
                # silu'(x) = sig * (1 + x * (1 - sig)), rounded in that order
                t = 1.0 - sig
                t *= xs
                t += 1.0
                t *= sig
                dx[s:e] *= t
            idx, dense, dband = bases(s, e, dx is not None)
            gs = g[s:e]
            if need_eff:
                d_eff += gs.T @ dense
            if dx is not None:
                gflat = (gs @ eff2).reshape(-1)
                acc = gflat[idx] * dband[0]
                for p in range(1, grid.order + 1):
                    acc += gflat[p:][idx] * dband[p]
                inside = (xs >= grid.lo) & (xs <= grid.hi)
                dx[s:e] += acc.reshape(e - s, d_in) * inside
        if dx is not None:
            _accum_fresh(x, dx)
        if need_eff:
            d_eff = d_eff.reshape(eff.shape)
            if w_s is None:
                _accum_fresh(coeffs, d_eff)
            else:
                _accum_fresh(w_s, (d_eff * coeffs.data).sum(axis=-1))
                _accum_fresh(coeffs, d_eff * w_s.data[..., None])

    parents = (x, w_b, coeffs) if w_s is None else (x, w_b, w_s, coeffs)
    return _node(out, parents, bwd)
