"""AdamW with decoupled weight decay, and a one-cycle learning-rate curve.

The decay term is applied directly to the parameter (p -= lr*wd*p),
separate from the bias-corrected moment update, so decay strength does
not depend on gradient magnitudes.  The schedule ramps with a cosine
from max_lr/div_factor up to max_lr over the warmup fraction of steps,
then anneals with a cosine down to max_lr/final_div_factor.

AdamW owns and mutates its parameters' arrays: each ``p.data`` is
replaced by a private copy, which step() updates in place, block by
block, so no full-size temporary is allocated.

``run_steps`` is the one training loop, for single-clip fits and
FewSound meta-training alike.  It frees each step's graph after the
backward and each gradient after the AdamW step, so a fit peaks at one
step's tape plus the parameters and moments, however many steps it
takes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import tensor as T
from .tensor import Tensor, ContractError, ShapeError


# entries per block of one in-place AdamW pass; the block's slices of p,
# g, m, v and the two scratch buffers stay in cache between ufunc calls
_BLOCK = 2 ** 14


class AdamW:
    """Holds per-parameter moments; step() consumes .grad buffers.

    The optimizer owns its parameters' arrays: construction replaces each
    ``p.data`` with a private copy, and step() updates that copy in
    place, so an array a caller handed in is never written.  An array
    assigned to ``p.data`` later is copied the same way at the next step.
    The moments come from ``np.zeros``, whose large arrays are fresh
    zero pages rather than an explicit fill, and live as long as the
    optimizer.  step() reads the gradients and frees nothing;
    ``run_steps`` drops them after it.
    """

    def __init__(self, named_params, lr: float, betas=(0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.01):
        b1, b2 = betas
        for name, value, ok, want in (("lr", lr, lr > 0, "> 0"),
                                      ("eps", eps, eps > 0, "> 0"),
                                      ("weight_decay", weight_decay, weight_decay >= 0, ">= 0"),
                                      ("beta1", b1, 0 <= b1 < 1, "in [0, 1)"),
                                      ("beta2", b2, 0 <= b2 < 1, "in [0, 1)")):
            if not (math.isfinite(value) and ok):
                raise ContractError(f"{name} must be finite and {want}, got {value}")
        self.named_params: list[tuple[str, Tensor]] = [
            (n, p) for n, p in named_params]
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self._owned = [self._own(p) for _, p in self.named_params]
        self.m = [np.zeros(p.shape, p.data.dtype) for _, p in self.named_params]
        self.v = [np.zeros(p.shape, p.data.dtype) for _, p in self.named_params]

    @staticmethod
    def _own(p: Tensor) -> np.ndarray:
        p.data = np.array(p.data, order="C")
        return p.data

    def step(self, lr: float | None = None) -> None:
        """One update; params with no gradient buffer are treated as zero-grad.

        Every gradient is checked before any parameter is written, so a
        step that raises leaves parameters and moments as they were.
        """
        lr = self.lr if lr is None else lr
        grads = []
        for name, p in self.named_params:
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            if g.shape != p.data.shape:
                raise ShapeError(f"gradient shape {g.shape} != parameter "
                                 f"shape {p.data.shape} for {name!r}")
            # a finite sum implies finite entries; only a non-finite sum
            # (or an overflowing one) needs the entrywise test
            with np.errstate(over="ignore"):
                finite_sum = np.isfinite(np.sum(g))
            if not finite_sum and not np.all(np.isfinite(g)):
                raise ContractError(f"non-finite gradient in parameter {name!r}")
            grads.append(np.ascontiguousarray(g, dtype=p.data.dtype).reshape(-1))
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        b1, b2, eps, decay = self.beta1, self.beta2, self.eps, lr * self.weight_decay
        for i, ((_, p), g) in enumerate(zip(self.named_params, grads)):
            if p.data is not self._owned[i]:
                self._owned[i] = self._own(p)
            flat, m, v = p.data.reshape(-1), self.m[i].reshape(-1), self.v[i].reshape(-1)
            n = flat.size
            s1 = np.empty(min(n, _BLOCK), dtype=flat.dtype)
            s2 = np.empty_like(s1)
            for lo in range(0, n, _BLOCK):
                hi = min(lo + _BLOCK, n)
                pb, gb, mb, vb = flat[lo:hi], g[lo:hi], m[lo:hi], v[lo:hi]
                a, b = s1[:hi - lo], s2[:hi - lo]
                # evaluation order of the whole-array form, so results match it
                # bitwise: m = b1 m + (1-b1) g; v = b2 v + ((1-b2) g) g;
                # u = (m/bc1) / (sqrt(v/bc2) + eps); p = (p - (lr wd) p) - lr u
                mb *= b1
                np.multiply(gb, 1.0 - b1, out=a)
                mb += a
                vb *= b2
                np.multiply(gb, 1.0 - b2, out=a)
                a *= gb
                vb += a
                np.divide(vb, bc2, out=b)
                np.sqrt(b, out=b)
                b += eps
                np.divide(mb, bc1, out=a)
                a /= b
                np.multiply(pb, decay, out=b)
                pb -= b
                a *= lr
                pb -= a


def run_steps(opt: AdamW, loss_at: Callable[[int], Tensor], steps: int,
              lr_at: Callable[[int], float] | None = None) -> np.ndarray:
    """Per step: loss_at(step), a finite check (ContractError, nothing
    stepped), backward into opt's parameters, one AdamW step at
    lr_at(step) or opt.lr.  Returns every step's loss.

    Each step's graph is dropped right after its backward, before the
    AdamW step and the next forward, and each parameter's gradient is
    set to None once the step has consumed it; so no step's tape
    overlaps the next one's, and the loop returns with no gradients
    held."""
    leaves = [p for _, p in opt.named_params]
    losses = np.zeros(steps)
    for step in range(steps):
        loss = loss_at(step)
        if not np.isfinite(loss.data):
            raise ContractError(f"non-finite loss at step {step}")
        T.backward(loss, leaves=leaves)
        losses[step] = float(loss.data)
        del loss
        opt.step(lr=None if lr_at is None else lr_at(step))
        for p in leaves:
            p.grad = None
    return losses


@dataclass(frozen=True)
class OneCycleSchedule:
    max_lr: float
    total_steps: int
    warmup_fraction: float = 0.3
    div_factor: float = 25.0
    final_div_factor: float = 1e4

    def __post_init__(self):
        if self.max_lr <= 0 or self.total_steps < 1:
            raise ContractError("max_lr must be positive and total_steps >= 1")
        if not 0.0 <= self.warmup_fraction <= 1.0:
            raise ContractError(f"warmup_fraction out of [0,1]: {self.warmup_fraction}")
        if self.div_factor < 1 or self.final_div_factor < 1:
            raise ContractError("div factors must be >= 1")


def one_cycle_lr(sched: OneCycleSchedule, step: int | float) -> float:
    """lr at an integer step in [0, total_steps]; cosine up then cosine down."""
    if not 0 <= step <= sched.total_steps:
        raise ContractError(f"step {step} outside [0, {sched.total_steps}]")
    peak = sched.warmup_fraction * sched.total_steps
    lo = sched.max_lr / sched.div_factor
    fin = sched.max_lr / sched.final_div_factor
    if step < peak:
        u = step / peak
        return lo + (sched.max_lr - lo) * 0.5 * (1.0 - math.cos(math.pi * u))
    if peak == sched.total_steps:
        return sched.max_lr
    u = (step - peak) / (sched.total_steps - peak)
    return fin + (sched.max_lr - fin) * 0.5 * (1.0 + math.cos(math.pi * u))
