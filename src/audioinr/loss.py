"""Training objective: L1 in time plus multi-resolution mel STFT loss.

The STFT runs on the autodiff tape as two matmuls against fixed
cos/-sin DFT matrices, so the whole objective is differentiable down to
the predicted waveform.  Mel projection uses triangular filters whose
peaks are spaced on the mel scale from f_min to f_max inclusive; with
peaks at both edges every in-range FFT bin lands on the rising or
falling slope of at least one band, and adjacent slopes sum to one.
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

    @property
    def bins(self) -> int:
        return self.fft_size // 2 + 1


DEFAULT_RESOLUTIONS = (
    StftResolution(512, 128, 512),
    StftResolution(1024, 256, 1024),
    StftResolution(2048, 512, 2048),
)


def hann_window(n: int) -> np.ndarray:
    """Periodic Hann: 0.5 - 0.5 cos(2 pi k / n)."""
    return 0.5 - 0.5 * np.cos(2.0 * math.pi * np.arange(n) / n)


_dft_cache: dict[tuple[int, np.dtype], tuple[np.ndarray, np.ndarray]] = {}


def dft_matrices(fft_size: int, dtype=np.float64) -> tuple[np.ndarray, np.ndarray]:
    """(cos, -sin) matrices of shape (fft_size, fft_size//2 + 1).

    Built in float64 and cast once per dtype; the cached arrays are
    read-only because every caller shares them.
    """
    key = (fft_size, np.dtype(dtype))
    got = _dft_cache.get(key)
    if got is None:
        k = np.arange(fft_size // 2 + 1)
        n = np.arange(fft_size)[:, None]
        ang = 2.0 * math.pi * n * k / fft_size
        got = (np.cos(ang).astype(dtype, copy=False), (-np.sin(ang)).astype(dtype, copy=False))
        for m in got:
            m.setflags(write=False)
        _dft_cache[key] = got
    return got


def stft_mag(signal: Tensor, res: StftResolution) -> Tensor:
    """Hann-windowed magnitude spectrogram, shape (frames, fft//2+1).

    Frames start at 0 and advance by hop; no centering or padding.
    Differentiable through to the signal.
    """
    signal = T._as_tensor(signal)
    if signal.data.ndim != 1:
        raise ShapeError(f"stft_mag expects a 1-D signal, got shape {signal.shape}")
    frames = T.frame_signal(signal, res.window_size, res.hop_size)
    dt = signal.data.dtype
    win = Tensor(hann_window(res.window_size).astype(dt, copy=False))
    wf = frames * win
    if res.window_size < res.fft_size:
        wf = T.pad_last(wf, res.fft_size)
    c, s = dft_matrices(res.fft_size, dt)
    re = T.matmul(wf, Tensor(c))
    im = T.matmul(wf, Tensor(s))
    return (re.square() + im.square()).sqrt()


@dataclass(frozen=True)
class MelFilterbank:
    n_mels: int
    sample_rate: int
    fft_size: int
    matrix: np.ndarray = field(repr=False)   # (n_mels, fft//2 + 1)


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (np.power(10.0, np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


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
    return T.matmul(mag, Tensor(fb.matrix.T.astype(mag.data.dtype, copy=False)))


def _mel_mag(signal: Tensor, res: StftResolution, sample_rate: int, n_mels: int) -> Tensor:
    fb = make_mel_filterbank(n_mels, sample_rate, res.fft_size, dtype=signal.data.dtype)
    return mel_project(stft_mag(signal, res), fb)


def _resolution_terms(mx: Tensor, mh: Tensor) -> Tensor:
    """Spectral convergence plus L1 of log magnitudes, one resolution."""
    diff_norm = (mx - mh).square().sum().sqrt()
    ref_norm = mx.square().sum().sqrt().clamp(NORM_GUARD, math.inf)
    sc = T.ew_binary("div", diff_norm, ref_norm)
    log_l1 = (mx.shift(LOG_EPS).log() - mh.shift(LOG_EPS).log()).abs().mean()
    return sc + log_l1


def mr_mel_stft_loss(x: Tensor, xhat: Tensor,
                     resolutions: Sequence[StftResolution] = DEFAULT_RESOLUTIONS,
                     sample_rate: int = 22050, n_mels: int = 80) -> Tensor:
    """Mean over resolutions of spectral convergence + log-mel L1."""
    x, xhat = T._as_tensor(x), T._as_tensor(xhat)
    if x.shape != xhat.shape:
        raise ShapeError(f"signal shapes differ: {x.shape} vs {xhat.shape}")
    total = None
    for res in resolutions:
        term = _resolution_terms(_mel_mag(x, res, sample_rate, n_mels),
                                 _mel_mag(xhat, res, sample_rate, n_mels))
        total = term if total is None else total + term
    return total.scale(1.0 / len(resolutions))


def combined_loss(x: Tensor, xhat: Tensor, lam_t: float = 1.0, lam_f: float = 1.0,
                  resolutions: Sequence[StftResolution] = DEFAULT_RESOLUTIONS,
                  sample_rate: int = 22050, n_mels: int = 80) -> Tensor:
    """lam_t * mean|x - xhat| + lam_f * mr_mel_stft_loss(x, xhat)."""
    if lam_t < 0 or lam_f < 0:
        raise ContractError("loss weights must be non-negative")
    x, xhat = T._as_tensor(x), T._as_tensor(xhat)
    if x.shape != xhat.shape:
        raise ShapeError(f"signal shapes differ: {x.shape} vs {xhat.shape}")
    out = (x - xhat).abs().mean().scale(lam_t)
    if lam_f > 0.0:
        out = out + mr_mel_stft_loss(x, xhat, resolutions, sample_rate, n_mels).scale(lam_f)
    return out


def make_combined_loss(target: np.ndarray, lam_t: float = 1.0, lam_f: float = 1.0,
                       resolutions: Sequence[StftResolution] = DEFAULT_RESOLUTIONS,
                       sample_rate: int = 22050,
                       n_mels: int = 80) -> Callable[[Tensor], Tensor]:
    """Loss closure against a fixed target; target mel magnitudes are
    computed once up front instead of on every step."""
    if lam_t < 0 or lam_f < 0:
        raise ContractError("loss weights must be non-negative")
    target = np.asarray(target)
    tgt = Tensor(target.astype(T.get_default_dtype()))
    cached = []
    if lam_f > 0.0:
        for res in resolutions:
            mx = _mel_mag(tgt, res, sample_rate, n_mels)
            cached.append((res, Tensor(mx.data)))

    def loss_fn(xhat: Tensor) -> Tensor:
        if xhat.shape != tgt.shape:
            raise ShapeError(f"prediction shape {xhat.shape} != target {tgt.shape}")
        out = (tgt - xhat).abs().mean().scale(lam_t)
        if cached:
            total = None
            for res, mx in cached:
                term = _resolution_terms(mx, _mel_mag(xhat, res, sample_rate, n_mels))
                total = term if total is None else total + term
            out = out + total.scale(lam_f / len(cached))
        return out

    return loss_fn
