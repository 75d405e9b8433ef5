"""WAV container I/O, resampling, and dataset preparation."""

import math
import os
import struct

import numpy as np
import pytest
from scipy.signal import resample_poly

from audioinr.tensor import ContractError
from audioinr.wavio import (
    AudioClip,
    PCM_SCALE,
    WRITE_BLOCK,
    WavError,
    _sinc_kaiser_filter,
    prepare_dataset,
    resample,
    wav_paths,
    wav_read,
    wav_write,
)
from memory import traced


def tone(sr, freq, seconds, amp=0.5):
    t = np.arange(int(sr * seconds)) / sr
    return amp * np.sin(2.0 * math.pi * freq * t)


# -- clip type -------------------------------------------------------------------


def test_clip_validation():
    with pytest.raises(ContractError):
        AudioClip(0, np.zeros(4))
    with pytest.raises(ContractError):
        AudioClip(8000, np.zeros((2, 2)))
    with pytest.raises(ContractError):
        AudioClip(8000, np.array([0.0, np.inf]))
    clip = AudioClip(8000, [0, 1, 0])
    assert clip.samples.dtype == np.float64
    assert len(clip) == 3


# -- read / write ------------------------------------------------------------------


def test_float32_roundtrip_bitwise(tmp_path, rng):
    x = rng.uniform(-1.2, 1.2, 500).astype(np.float32).astype(np.float64)
    path = tmp_path / "f32.wav"
    wav_write(path, AudioClip(22050, x))
    back = wav_read(path)
    assert back.sample_rate == 22050
    np.testing.assert_array_equal(back.samples, x)
    assert back.source_id == "f32.wav"


def test_pcm16_codes_map_exactly(tmp_path):
    codes = np.array([-32768, -1, 0, 1, 32767], dtype=np.int16)
    x = codes.astype(np.float64) / PCM_SCALE
    path = tmp_path / "pcm.wav"
    wav_write(path, AudioClip(8000, x), pcm16=True)
    back = wav_read(path)
    np.testing.assert_array_equal(back.samples * PCM_SCALE, codes.astype(np.float64))


def test_pcm16_clamps_overrange(tmp_path):
    x = np.array([2.0, -2.0, 1.0])           # 1.0 would round to 32768
    path = tmp_path / "clip.wav"
    wav_write(path, AudioClip(8000, x), pcm16=True)
    back = wav_read(path)
    np.testing.assert_array_equal(back.samples * PCM_SCALE, [32767.0, -32768.0, 32767.0])


def test_odd_pcm16_body_padded(tmp_path):
    # 3 int16 samples make a 6-byte body; the fact chunk in float mode and
    # word alignment in general must not corrupt the frame count
    x = np.array([0.25, -0.25, 0.125])
    path = tmp_path / "odd.wav"
    wav_write(path, AudioClip(8000, x), pcm16=True)
    assert len(wav_read(path)) == 3


def whole_file_wav_bytes(x: np.ndarray, rate: int, pcm16: bool) -> bytes:
    """The file wav_write should produce, built in memory chunk by chunk."""
    if pcm16:
        body = np.clip(np.round(x * PCM_SCALE), -32768, 32767).astype("<i2").tobytes()
        chunks = [(b"fmt ", struct.pack("<HHIIHH", 1, 1, rate, rate * 2, 2, 16)),
                  (b"data", body)]
    else:
        chunks = [(b"fmt ", struct.pack("<HHIIHH", 3, 1, rate, rate * 4, 4, 32)),
                  (b"fact", struct.pack("<I", x.size)),
                  (b"data", x.astype("<f4").tobytes())]
    out = b"".join(cid + struct.pack("<I", len(body)) + body + b"\x00" * (len(body) & 1)
                   for cid, body in chunks)
    return b"RIFF" + struct.pack("<I", 4 + len(out)) + b"WAVE" + out


@pytest.mark.parametrize("pcm16", [False, True])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 1000, WRITE_BLOCK, 2 * WRITE_BLOCK + 7])
def test_write_is_byte_equal_to_whole_file_writer(n, pcm16, tmp_path, rng):
    x = rng.uniform(-1.2, 1.2, n)
    path = tmp_path / "clip.wav"
    wav_write(path, AudioClip(16000, x), pcm16=pcm16)
    assert path.read_bytes() == whole_file_wav_bytes(x, 16000, pcm16)


@pytest.mark.parametrize("pcm16", [False, True])
def test_write_memory_is_one_block(pcm16, tmp_path, rng):
    clip = AudioClip(22050, rng.uniform(-1.0, 1.0, 2_000_000))
    _, _, peak = traced(wav_write, tmp_path / "long.wav", clip, pcm16=pcm16)
    assert peak < 0.25 * clip.samples.nbytes
    assert len(wav_read(tmp_path / "long.wav")) == 2_000_000


def _stereo_wav_bytes(left, right, rate=8000):
    inter = np.empty(left.size * 2, dtype="<i2")
    inter[0::2] = left
    inter[1::2] = right
    body = inter.tobytes()
    fmt = struct.pack("<HHIIHH", 1, 2, rate, rate * 4, 4, 16)
    chunks = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    chunks += b"data" + struct.pack("<I", len(body)) + body
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


def test_stereo_averages_to_mono(tmp_path):
    left = np.array([1000, 2000, -500], dtype=np.int16)
    right = np.array([3000, 0, 500], dtype=np.int16)
    path = tmp_path / "st.wav"
    path.write_bytes(_stereo_wav_bytes(left, right))
    clip = wav_read(path)
    want = (left.astype(np.float64) + right) / 2.0 / PCM_SCALE
    np.testing.assert_array_equal(clip.samples, want)


@pytest.mark.parametrize("kind", ["float32", "pcm16", "stereo"])
@pytest.mark.parametrize("frames", [1, WRITE_BLOCK, 2 * WRITE_BLOCK + 7])
def test_block_read_matches_whole_chunk_decode(kind, frames, tmp_path, rng):
    # the whole data chunk decoded at once, as one frombuffer / cast / scale
    if kind == "stereo":
        inter = rng.integers(-32768, 32768, (frames, 2)).astype(np.int16)
        blob = _stereo_wav_bytes(inter[:, 0], inter[:, 1])
        want = (inter.astype(np.float64) / PCM_SCALE).mean(axis=1)
    else:
        x = rng.uniform(-1.2, 1.2, frames)
        blob = whole_file_wav_bytes(x, 16000, kind == "pcm16")
        raw = np.frombuffer(blob[-frames * (2 if kind == "pcm16" else 4):],
                            dtype="<i2" if kind == "pcm16" else "<f4")
        want = raw.astype(np.float64) / (PCM_SCALE if kind == "pcm16" else 1.0)
    path = tmp_path / "clip.wav"
    path.write_bytes(blob)
    np.testing.assert_array_equal(wav_read(path).samples, want)


def test_read_memory_is_the_clip_plus_one_block(tmp_path):
    # a 2-minute float-32 clip at 22.05 kHz; the whole-file reader peaked at 2.1x
    path = tmp_path / "long.wav"
    wav_write(path, AudioClip(22050, tone(22050, 440.0, 120.0)))
    clip, _, peak = traced(wav_read, path)
    assert clip.samples.size == 120 * 22050
    assert peak <= 1.2 * clip.samples.nbytes


def test_read_skips_unknown_chunks(tmp_path):
    x = np.array([0.5, -0.5])
    body = np.round(x * PCM_SCALE).astype("<i2").tobytes()
    fmt = struct.pack("<HHIIHH", 1, 1, 8000, 16000, 2, 16)
    junk = b"LIST" + struct.pack("<I", 5) + b"INFOx" + b"\x00"   # odd size, padded
    chunks = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    chunks += junk
    chunks += b"data" + struct.pack("<I", len(body)) + body
    blob = b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks
    path = tmp_path / "junk.wav"
    path.write_bytes(blob)
    np.testing.assert_allclose(wav_read(path).samples, x, atol=1e-4)


@pytest.mark.parametrize("mutate,offset_word", [
    (lambda b: b[:8], "offset 0"),                       # truncated header
    (lambda b: b"JUNK" + b[4:], "offset 0"),             # bad RIFF tag
    (lambda b: b[:8] + b"EVAW" + b[12:], "offset 8"),    # bad WAVE tag
])
def test_read_rejects_bad_headers(tmp_path, mutate, offset_word):
    good = _stereo_wav_bytes(np.zeros(4, np.int16), np.zeros(4, np.int16))
    path = tmp_path / "bad.wav"
    path.write_bytes(mutate(good))
    with pytest.raises(WavError, match=offset_word):
        wav_read(path)


def test_read_rejects_overrunning_chunk(tmp_path):
    fmt = struct.pack("<HHIIHH", 1, 1, 8000, 16000, 2, 16)
    chunks = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    chunks += b"data" + struct.pack("<I", 9999) + b"\x00\x00"
    blob = b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks
    path = tmp_path / "run.wav"
    path.write_bytes(blob)
    with pytest.raises(WavError, match="overruns"):
        wav_read(path)


def test_read_rejects_missing_chunks_and_codecs(tmp_path):
    path = tmp_path / "x.wav"
    path.write_bytes(b"RIFF" + struct.pack("<I", 4) + b"WAVE")
    with pytest.raises(WavError, match="no fmt chunk"):
        wav_read(path)

    fmt = struct.pack("<HHIIHH", 1, 1, 8000, 16000, 2, 16)
    blob = b"RIFF" + struct.pack("<I", 4 + 8 + len(fmt)) + b"WAVE"
    blob += b"fmt " + struct.pack("<I", len(fmt)) + fmt
    path.write_bytes(blob)
    with pytest.raises(WavError, match="no data chunk"):
        wav_read(path)

    fmt = struct.pack("<HHIIHH", 1, 1, 8000, 16000, 3, 24)   # 24-bit PCM
    chunks = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    chunks += b"data" + struct.pack("<I", 0) + b""
    path.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks)
    with pytest.raises(WavError, match="unsupported codec"):
        wav_read(path)

    fmt = struct.pack("<HHIIHH", 1, 4, 8000, 16000, 2, 16)   # 4 channels
    chunks = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    chunks += b"data" + struct.pack("<I", 0) + b""
    path.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks)
    with pytest.raises(WavError, match="channels unsupported"):
        wav_read(path)


def _wav_bytes(fmt, body):
    chunks = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    chunks += b"data" + struct.pack("<I", len(body)) + body + b"\x00" * (len(body) & 1)
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


@pytest.mark.parametrize("codec,channels,bits,size", [
    (1, 1, 16, 3),            # PCM-16 mono: 2-byte frames
    (1, 2, 16, 6),            # PCM-16 stereo: 4-byte frames
    (3, 1, 32, 6),            # float-32 mono: 4-byte frames
])
def test_read_rejects_partial_sample_frame(tmp_path, codec, channels, bits, size):
    frame = channels * bits // 8
    fmt = struct.pack("<HHIIHH", codec, channels, 8000, 8000 * frame, frame, bits)
    path = tmp_path / "partial.wav"
    path.write_bytes(_wav_bytes(fmt, b"\x01" * size))
    # the data body starts after the RIFF header, the fmt chunk and the data tag
    with pytest.raises(WavError, match=f"offset {12 + 8 + len(fmt) + 8}: .* {frame}-byte"):
        wav_read(path)


def test_read_rejects_zero_sample_rate(tmp_path):
    fmt = struct.pack("<HHIIHH", 1, 1, 0, 0, 2, 16)
    path = tmp_path / "norate.wav"
    path.write_bytes(_wav_bytes(fmt, b"\x00\x00" * 4))
    with pytest.raises(WavError, match="offset 12: sample rate is 0"):
        wav_read(path)


# -- resampler ---------------------------------------------------------------------


def test_resample_identity_copies():
    clip = AudioClip(22050, np.arange(10.0))
    out = resample(clip, 22050)
    np.testing.assert_array_equal(out.samples, clip.samples)
    assert out.samples is not clip.samples


def test_resample_preserves_dc():
    clip = AudioClip(48000, np.ones(48000))
    out = resample(clip, 16000)
    assert out.sample_rate == 16000
    mid = out.samples[100:-100]               # ignore filter edge ramps
    np.testing.assert_allclose(mid, 1.0, atol=1e-4)


def test_resample_preserves_tone_frequency():
    sr_in, sr_out, freq = 44100, 22050, 1000.0
    clip = AudioClip(sr_in, tone(sr_in, freq, 1.0))
    out = resample(clip, sr_out)
    spec = np.abs(np.fft.rfft(out.samples * np.hanning(out.samples.size)))
    peak_hz = np.argmax(spec) * sr_out / out.samples.size
    assert abs(peak_hz - freq) < 2.0


def test_upsampling_rejects_images():
    # a 3 kHz tone at 8 kHz upsampled to 24 kHz must not alias to 5/11 kHz
    sr_in, sr_out, freq = 8000, 24000, 3000.0
    clip = AudioClip(sr_in, tone(sr_in, freq, 1.0))
    out = resample(clip, sr_out)
    n = out.samples.size
    spec = np.abs(np.fft.rfft(out.samples * np.hanning(n)))
    freqs = np.arange(spec.size) * sr_out / n
    signal_band = np.abs(freqs - freq) < 50.0
    image_band = freqs > 3600.0
    assert spec[image_band].max() < 1e-3 * spec[signal_band].max()


GAIN_PAIRS = [(16000, 22050), (48000, 22050), (22050, 44100), (8000, 24000)]


@pytest.mark.parametrize("sr_in,sr_out", GAIN_PAIRS)
def test_resample_unity_passband_gain(sr_in, sr_out):
    # away from the filter's edge ramps a constant stays 1 and a 200 Hz
    # tone keeps its amplitude, whatever the up factor
    edge = 200
    dc = resample(AudioClip(sr_in, np.ones(sr_in)), sr_out).samples
    np.testing.assert_allclose(dc[edge:-edge], 1.0, atol=1e-3)
    out = resample(AudioClip(sr_in, tone(sr_in, 200.0, 1.0, amp=1.0)), sr_out).samples
    want = tone(sr_out, 200.0, 1.0, amp=1.0)
    assert out.size == want.size
    np.testing.assert_allclose(out[edge:-edge], want[edge:-edge], atol=1e-3)


@pytest.mark.parametrize("sr_in,sr_out", GAIN_PAIRS + [(44100, 22050), (48000, 16000),
                                                       (22050, 8000)])
@pytest.mark.parametrize("n", [1, 5, 100, None])
def test_resample_matches_scipy_polyphase(sr_in, sr_out, n, rng):
    # oracle: scipy's resample_poly scales a given window by up, so it gets
    # the unity-gain taps divided by up
    n = sr_in if n is None else n
    x = rng.uniform(-1.0, 1.0, n)
    g = math.gcd(sr_in, sr_out)
    up, down = sr_out // g, sr_in // g
    want = resample_poly(x, up, down, window=_sinc_kaiser_filter(up, down) / up)
    got = resample(AudioClip(sr_in, x), sr_out).samples
    assert got.shape == want.shape == (math.ceil(n * up / down),)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(x).max())


def test_resample_empty_clip():
    assert resample(AudioClip(44100, np.zeros(0)), 22050).samples.shape == (0,)


def test_resample_length_scales():
    clip = AudioClip(44100, np.zeros(44100))
    assert len(resample(clip, 22050)) == 22050
    with pytest.raises(ContractError):
        resample(clip, 0)


# -- dataset preparation -------------------------------------------------------------


def _write_dataset(root, rng):
    (root / "sub").mkdir()
    for i, name in enumerate(["a.wav", "sub/b.wav"]):
        x = rng.uniform(-0.5, 0.5, 30000)
        wav_write(root / name, AudioClip(22050, x))
    (root / "notes.txt").write_text("ignored")


def test_wav_paths_recursive_and_sorted(tmp_path):
    for rel in ("b.wav", "sub/a.WAV", "a.wav", "sub/deeper/c.wav", "notes.txt", "sub/x.wav.bak"):
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_bytes(b"")
    got = [os.path.relpath(p, tmp_path) for p in wav_paths(tmp_path)]
    assert got == ["a.wav", "b.wav", os.path.join("sub", "a.WAV"),
                   os.path.join("sub", "deeper", "c.wav")]
    assert wav_paths(os.fsencode(tmp_path)) == wav_paths(str(tmp_path))
    assert wav_paths(tmp_path / "sub" / "deeper") == [str(tmp_path / "sub" / "deeper" / "c.wav")]

def test_prepare_dataset_deterministic(tmp_path, rng):
    _write_dataset(tmp_path, rng)
    a = prepare_dataset(tmp_path, 2048, seed=5)
    b = prepare_dataset(tmp_path, 2048, seed=5)
    assert [c.source_id for c in a] == ["a.wav", "b.wav"]
    for ca, cb in zip(a, b):
        assert len(ca) == 2048
        np.testing.assert_array_equal(ca.samples, cb.samples)
    c = prepare_dataset(tmp_path, 2048, seed=6)
    assert any(not np.array_equal(x.samples, y.samples) for x, y in zip(a, c))


def test_prepare_dataset_pads_short_clips(tmp_path, rng):
    wav_write(tmp_path / "short.wav",
              AudioClip(22050, rng.uniform(-0.5, 0.5, 1000)))
    with pytest.warns(UserWarning, match="zero-padding"):
        clips = prepare_dataset(tmp_path, 2048)
    assert len(clips[0]) == 2048
    assert np.all(clips[0].samples[1000:] == 0.0)


def test_prepare_dataset_resamples(tmp_path, rng):
    wav_write(tmp_path / "hi.wav", AudioClip(44100, rng.uniform(-0.5, 0.5, 50000)))
    clips = prepare_dataset(tmp_path, 2048, target_sr=22050)
    assert clips[0].sample_rate == 22050


def test_prepare_dataset_empty_directory(tmp_path):
    with pytest.raises(ContractError, match="no .wav files"):
        prepare_dataset(tmp_path, 2048)
