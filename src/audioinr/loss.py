"""Training objective: L1 in time plus multi-resolution mel STFT loss.

``stft`` is the one short-time Fourier transform of the package: the
complex one-sided rfft spectrum of Hann-windowed frames, in plain
numpy.  The metrics take its magnitude off the tape; ``stft_mag`` puts
the same magnitude on the tape as a single op whose backward pass is
the rfft adjoint (an irfft and an overlap-add), so the whole objective
is differentiable down to the predicted waveform.  Mel projection uses
triangular filters whose peaks are spaced on the mel scale from f_min
to f_max inclusive; with peaks at both edges every in-range FFT bin
lands on the rising or falling slope of at least one band, and
adjacent slopes sum to one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import tensor as T
from .tensor import Tensor, ContractError, ShapeError

LOG_EPS = 1e-7       # inside log(M + eps)
NORM_GUARD = 1e-12   # spectral-convergence denominator floor


@dataclass(frozen=True)
class StftResolution:
    fft_size: int
    hop_size: int
    window_size: int

    def __post_init__(self):
        ok = 0 < self.hop_size <= self.window_size <= self.fft_size
        if not ok:
            raise ContractError(
                f"need 0 < hop <= window <= fft, got ({self.fft_size}, "
                f"{self.hop_size}, {self.window_size})")


DEFAULT_RESOLUTIONS = (
    StftResolution(512, 128, 512),
    StftResolution(1024, 256, 1024),
    StftResolution(2048, 512, 2048),
)


def hann_window(n: int) -> np.ndarray:
    """Periodic Hann: 0.5 - 0.5 cos(2 pi k / n)."""
    return 0.5 - 0.5 * np.cos(2.0 * math.pi * np.arange(n) / n)


def _frame_index(n: int, res: StftResolution) -> np.ndarray:
    """(frames, window) sample indices: frames start at 0 and step by hop."""
    if n < res.window_size:
        raise ContractError(f"signal of {n} samples is shorter than one "
                            f"{res.window_size}-sample frame")
    n_frames = (n - res.window_size) // res.hop_size + 1
    return res.hop_size * np.arange(n_frames)[:, None] + np.arange(res.window_size)


def stft(x: np.ndarray, res: StftResolution) -> np.ndarray:
    """Complex one-sided spectrum of the Hann-windowed frames of a 1-D
    signal, shape (frames, fft//2+1); frames shorter than the FFT are
    zero-padded at the end.  No centering."""
    x = np.asarray(x)
    if x.ndim != 1:
        raise ShapeError(f"stft expects a 1-D signal, got shape {x.shape}")
    win = hann_window(res.window_size).astype(x.dtype, copy=False)
    return np.fft.rfft(x[_frame_index(x.size, res)] * win, n=res.fft_size, axis=1)


def stft_mag(signal: Tensor, res: StftResolution) -> Tensor:
    """Tape op: |stft(signal)|, shape (frames, fft//2+1), in the signal's dtype.

    The backward pass is the adjoint of the one-sided rfft: the bins
    that stand for a conjugate pair are halved, so N * irfft maps the
    complex bin gradients back to the frame samples, which overlap-add
    into the signal.
    """
    signal = T._as_tensor(signal)
    x = signal.data
    spec = stft(x, res)
    mag = np.abs(spec)
    N = res.fft_size

    def bwd(g):
        y = spec * (g / np.maximum(mag, T._SQRT_EPS))
        y[:, 1:(N + 1) // 2] *= 0.5
        win = hann_window(res.window_size)
        frames = N * np.fft.irfft(y, n=N, axis=1)[:, :res.window_size] * win
        idx = _frame_index(x.size, res)
        T._accum_fresh(signal, np.bincount(idx.ravel(), weights=frames.ravel(),
                                           minlength=x.size))

    return T._node(mag.astype(x.dtype, copy=False), (signal,), bwd)


@dataclass(frozen=True)
class MelFilterbank:
    n_mels: int
    sample_rate: int
    fft_size: int
    matrix: np.ndarray = field(repr=False)   # (n_mels, fft//2 + 1)


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


_fb_cache: dict[tuple, MelFilterbank] = {}


def make_mel_filterbank(n_mels: int, sample_rate: int, fft_size: int,
                        f_min: float = 0.0, f_max: float | None = None,
                        dtype=np.float64) -> MelFilterbank:
    """Triangles with n_mels peaks mel-spaced from f_min to f_max inclusive.

    Built in float64 and cast once per dtype; the cached matrix is
    read-only because every caller shares it.
    """
    if f_max is None:
        f_max = sample_rate / 2.0
    key = (n_mels, sample_rate, fft_size, f_min, f_max, np.dtype(dtype))
    got = _fb_cache.get(key)
    if got is not None:
        return got
    if n_mels < 2:
        raise ContractError(f"n_mels must be >= 2, got {n_mels}")
    bins = fft_size // 2 + 1
    m = hz_to_mel(np.arange(bins) * (sample_rate / fft_size))
    peaks = np.linspace(hz_to_mel(f_min), hz_to_mel(f_max), n_mels)
    w = np.zeros((n_mels, bins))
    for i in range(n_mels):
        rise = np.ones(bins) if i == 0 else (m - peaks[i - 1]) / (peaks[i] - peaks[i - 1])
        fall = np.ones(bins) if i == n_mels - 1 else (peaks[i + 1] - m) / (peaks[i + 1] - peaks[i])
        w[i] = np.clip(np.minimum(rise, fall), 0.0, 1.0)
    w[:, m < peaks[0]] = 0.0
    w[:, m > peaks[-1]] = 0.0
    w = w.astype(dtype, copy=False)
    w.setflags(write=False)
    fb = MelFilterbank(n_mels, sample_rate, fft_size, w)
    _fb_cache[key] = fb
    return fb


def mel_project(mag: Tensor, fb: MelFilterbank) -> Tensor:
    """Project (frames, bins) magnitudes to (frames, n_mels)."""
    mag = T._as_tensor(mag)
    if mag.data.ndim != 2 or mag.shape[1] != fb.matrix.shape[1]:
        raise ShapeError(f"magnitude shape {mag.shape} does not match "
                         f"{fb.matrix.shape[1]}-bin filterbank")
    return T.linear(mag, Tensor(fb.matrix.astype(mag.data.dtype, copy=False)))


def _mel_mag(signal: Tensor, res: StftResolution, sample_rate: int, n_mels: int) -> Tensor:
    fb = make_mel_filterbank(n_mels, sample_rate, res.fft_size, dtype=signal.data.dtype)
    return mel_project(stft_mag(signal, res), fb)


def _resolution_terms(mh: Tensor, mx: Tensor, ref_norm: Tensor, log_mx: Tensor) -> Tensor:
    """Spectral convergence plus L1 of log magnitudes, one resolution;
    ``ref_norm`` and ``log_mx`` are the fixed target's guarded norm and
    log magnitudes."""
    diff_norm = (mx - mh).square().sum().sqrt()
    sc = diff_norm / ref_norm
    log_l1 = (log_mx - mh.shift(LOG_EPS).log()).abs().mean()
    return sc + log_l1


def make_combined_loss(target: np.ndarray, lam_t: float = 1.0, lam_f: float = 1.0,
                       resolutions: Sequence[StftResolution] = DEFAULT_RESOLUTIONS,
                       sample_rate: int = 22050,
                       n_mels: int = 80) -> Callable[[Tensor], Tensor]:
    """Loss closure against a fixed target x: lam_t * mean|x - xhat| plus
    lam_f * the mean over resolutions of spectral convergence + log-mel
    L1.  Target mel magnitudes are computed once up front instead of on
    every step, with their norm and logs; ``lam_f = 0`` skips the
    spectral term."""
    if not (math.isfinite(lam_t) and math.isfinite(lam_f) and lam_t >= 0 and lam_f >= 0):
        raise ContractError(f"loss weights must be finite and >= 0, "
                            f"got lam_t={lam_t}, lam_f={lam_f}")
    target = np.asarray(target)
    tgt = Tensor(target.astype(T.get_default_dtype()))
    cached = []
    if lam_f > 0.0:
        for res in resolutions:
            mx = Tensor(_mel_mag(tgt, res, sample_rate, n_mels).data)
            ref_norm = mx.square().sum().sqrt().clamp(NORM_GUARD, math.inf)
            cached.append((res, (mx, ref_norm, mx.shift(LOG_EPS).log())))

    def loss_fn(xhat: Tensor) -> Tensor:
        if xhat.shape != tgt.shape:
            raise ShapeError(f"prediction shape {xhat.shape} != target {tgt.shape}")
        out = (tgt - xhat).abs().mean().scale(lam_t)
        if cached:
            total = None
            for res, fixed in cached:
                term = _resolution_terms(_mel_mag(xhat, res, sample_rate, n_mels), *fixed)
                total = term if total is None else total + term
            out = out + total.scale(lam_f / len(cached))
        return out

    return loss_fn
