"""WAV file I/O, polyphase resampling, and dataset preparation.

Reads RIFF/WAVE containers holding PCM-16 or IEEE float-32 frames with
one or two channels; stereo is averaged to mono.  Writes float-32 by
default so reconstructions slightly outside [-1,1] survive a roundtrip;
PCM-16 output clamps.  Resampling by up/down runs a windowed-sinc
lowpass (Kaiser beta 8.555, 64 taps per phase, cutoff 0.9 of the
tighter Nyquist, unity gain in the passband) as a numpy polyphase
filter: the output samples of each of the ``up`` phases are one matrix
product of a strided view of the input with that phase's taps.
"""

from __future__ import annotations

import math
import os
import struct
import warnings
from dataclasses import dataclass, field

import numpy as np

from .tensor import ContractError
from .serialize import _atomic_file


class WavError(ValueError):
    """Malformed or unsupported WAV data; message carries the byte offset."""


PCM_SCALE = 32768.0
# frames read at a time by wav_read, samples written at a time by wav_write
WRITE_BLOCK = 1 << 16


@dataclass
class AudioClip:
    sample_rate: int
    samples: np.ndarray = field(repr=False)
    source_id: str = ""

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.sample_rate <= 0:
            raise ContractError(f"sample_rate must be positive, got {self.sample_rate}")
        if self.samples.ndim != 1:
            raise ContractError(f"samples must be mono 1-D, got shape {self.samples.shape}")
        if not np.all(np.isfinite(self.samples)):
            raise ContractError("samples contain non-finite values")


def wav_read(path) -> AudioClip:
    """PCM-16 or float-32, mono or stereo (averaged), as a float64 clip.

    The chunk headers are parsed from the file; the data chunk is then
    read into the output array WRITE_BLOCK frames at a time, so memory
    beyond the samples stays one block's worth.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        head = f.read(12)
        if size < 12:
            raise WavError(f"offset 0: file too short ({size} bytes) for a RIFF header")
        if head[0:4] != b"RIFF":
            raise WavError("offset 0: missing RIFF tag")
        if head[8:12] != b"WAVE":
            raise WavError("offset 8: missing WAVE tag")

        fmt = None
        data = None
        off = 12
        while off + 8 <= size:
            f.seek(off)
            cid, chunk = struct.unpack("<4sI", f.read(8))
            body_off = off + 8
            if body_off + chunk > size:
                raise WavError(f"offset {off}: chunk {cid!r} of {chunk} bytes overruns file")
            if cid == b"fmt ":
                if chunk < 16:
                    raise WavError(f"offset {off}: fmt chunk too small ({chunk} bytes)")
                fmt = struct.unpack("<HHIIHH", f.read(16)) + (off,)
            elif cid == b"data":
                data = (chunk, body_off)
            off = body_off + chunk + (chunk & 1)     # chunks are word-aligned

        if fmt is None:
            raise WavError(f"offset {off}: no fmt chunk found")
        if data is None:
            raise WavError(f"offset {off}: no data chunk found")
        codec, channels, rate, _, _, bits, fmt_off = fmt
        if channels not in (1, 2):
            raise WavError(f"offset {fmt_off}: {channels} channels unsupported (want 1 or 2)")
        if rate == 0:
            raise WavError(f"offset {fmt_off}: sample rate is 0")

        n_bytes, body_off = data
        if codec == 1 and bits == 16:
            dtype, scale = "<i2", PCM_SCALE
        elif codec == 3 and bits == 32:
            dtype, scale = "<f4", 1.0
        else:
            raise WavError(f"offset {fmt_off}: unsupported codec (format {codec}, "
                           f"{bits}-bit); want PCM-16 or IEEE float-32")
        frame = channels * bits // 8
        if n_bytes % frame:
            raise WavError(f"offset {body_off}: data chunk of {n_bytes} bytes is not a "
                           f"whole number of {frame}-byte sample frames")
        samples = np.empty(n_bytes // frame)
        f.seek(body_off)
        for s in range(0, samples.size, WRITE_BLOCK):
            block = samples[s:s + WRITE_BLOCK]
            raw = np.frombuffer(f.read(block.size * frame), dtype=dtype)
            if channels == 2:
                pairs = (raw.astype(np.float64) / scale).reshape(-1, 2)
                finite = np.all(np.isfinite(pairs))
                np.mean(pairs, axis=1, out=block)
            else:
                block[...] = raw
                block /= scale
                finite = np.all(np.isfinite(block))
            if not finite:
                raise WavError(f"offset {body_off}: data chunk holds non-finite samples")
    return AudioClip(rate, samples, source_id=os.path.basename(os.fspath(path)))


def wav_write(path, clip: AudioClip, pcm16: bool = False) -> None:
    """Float-32 WAV by default; pcm16=True clamps to [-1, 32767/32768].

    The data chunk is converted and written WRITE_BLOCK samples at a
    time, so memory beyond the clip stays one block's worth.  Every
    chunk has an even size, so none needs a pad byte.
    """
    x, rate = clip.samples, clip.sample_rate
    if pcm16:
        codec, width, fact = 1, 2, b""
    else:
        codec, width, fact = 3, 4, b"fact" + struct.pack("<II", 4, x.size)
    fmt = b"fmt " + struct.pack("<IHHIIHH", 16, codec, 1, rate, rate * width, width, 8 * width)
    data = b"data" + struct.pack("<I", x.size * width)
    riff = struct.pack("<4sI4s", b"RIFF", 4 + len(fmt) + len(fact) + len(data) + x.size * width,
                       b"WAVE")
    with _atomic_file(path) as f:
        f.write(riff + fmt + fact + data)
        for s in range(0, x.size, WRITE_BLOCK):
            block = x[s:s + WRITE_BLOCK]
            if pcm16:
                f.write(np.clip(np.round(block * PCM_SCALE), -32768, 32767).astype("<i2"))
            else:
                f.write(block.astype("<f4"))


def _sinc_kaiser_filter(up: int, down: int) -> np.ndarray:
    """Lowpass for rate conversion by up/down, gain up in the passband."""
    cutoff = 0.45 / max(up, down)                # cycles per upsampled sample
    half = 32 * up
    n = np.arange(-half, half + 1)
    h = 2.0 * cutoff * np.sinc(2.0 * cutoff * n)
    h *= np.kaiser(2 * half + 1, 8.555)
    return up * h / h.sum()                      # DC gain exactly up


def resample(clip: AudioClip, target_sr: int = 22050) -> AudioClip:
    if target_sr <= 0:
        raise ContractError(f"target_sr must be positive, got {target_sr}")
    if target_sr == clip.sample_rate:
        return AudioClip(clip.sample_rate, clip.samples.copy(), clip.source_id)
    g = math.gcd(clip.sample_rate, target_sr)
    up, down = target_sr // g, clip.sample_rate // g
    y = _polyphase(clip.samples, up, down, _sinc_kaiser_filter(up, down))
    return AudioClip(target_sr, y, clip.source_id)


def _polyphase(x: np.ndarray, up: int, down: int, h: np.ndarray) -> np.ndarray:
    """Upsample x by up (zero stuffing), filter with the odd-length,
    centred h, keep every down-th sample: ceil(len(x) * up / down) outputs.

    Output m sits at t = m * down on the upsampled grid and equals
    sum_i x[i] h[half + t - i * up].  With t = q * up + phase, that is a
    dot product of the about len(h) / up inputs around x[q] with the
    phase's taps; outputs m0, m0 + up, ... share a phase and step q by
    down, so each phase is one matmul over a strided view of x.
    """
    if x.size == 0:
        return np.zeros(0)
    n_out = -(-x.size * up // down)
    half = (h.size - 1) // 2
    a, b = -(-half // up), half // up            # taps reach x[q - b] ... x[q + a]
    q_taps = a + b + 1
    # taps[phase, k] = h[half + phase + (b - k) * up], zero outside h
    at = half + np.arange(up)[:, None] + (b - np.arange(q_taps)) * up
    taps = np.where((at >= 0) & (at < h.size), h[np.clip(at, 0, h.size - 1)], 0.0)
    xp = np.concatenate([np.zeros(b), x, np.zeros(a)])
    windows = np.lib.stride_tricks.sliding_window_view(xp, q_taps)
    y = np.empty(n_out)
    for m0 in range(min(up, n_out)):
        q0, phase = divmod(m0 * down, up)
        out = y[m0::up]
        np.matmul(windows[q0::down][:out.size], taps[phase], out=out)
    return y


def wav_paths(directory) -> list[str]:
    """Paths of every .wav file under a directory (str, bytes or path-like;
    searched recursively), as sorted str paths."""
    return sorted(os.path.join(root, name)
                  for root, _, names in os.walk(os.fsdecode(directory))
                  for name in names if name.lower().endswith(".wav"))


def prepare_dataset(directory, crop_len: int, seed: int = 0,
                    target_sr: int = 22050) -> list[AudioClip]:
    """Read every WAV under a directory (recursively, sorted by path),
    resample, and crop a random window of crop_len from each.  Short
    clips are zero-padded with a warning."""
    directory = os.fspath(directory)
    paths = wav_paths(directory)
    if not paths:
        raise ContractError(f"no .wav files under {directory!r}")
    rng = np.random.Generator(np.random.PCG64(seed))
    clips = []
    for p in paths:
        clip = resample(wav_read(p), target_sr)
        x = clip.samples
        if x.size < crop_len:
            warnings.warn(f"{p}: {x.size} samples < crop {crop_len}; zero-padding")
            x = np.pad(x, (0, crop_len - x.size))
        else:
            start = int(rng.integers(0, x.size - crop_len + 1))
            x = x[start:start + crop_len]
        clips.append(AudioClip(target_sr, x, clip.source_id))
    return clips
