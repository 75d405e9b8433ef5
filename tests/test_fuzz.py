"""Mutated model files and WAVs: each reader raises only its documented
error type, and the CLI exits 2 on every file a reader rejects.

Mutations start from valid files: byte flips, truncations, appended
bytes, and patched header fields (for model files with the CRC
recomputed, so the parser, not the checksum, meets the bad value).
"""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from audioinr import cli
from audioinr.fewsound import FewSoundConfig, build_state
from audioinr.inr import InrConfig, build
from audioinr.serialize import SerializationError, load_model, save_model
from audioinr.toydata import sine_mixture
from audioinr.wavio import AudioClip, WavError, wav_read, wav_write

TARGET = dict(hidden=(4,), encoding_length=2, rff_features=3, grid_size=3,
              spline_order=1, seed=3)
INR_TAIL = "II4dIIBq"      # encoding_length ... seed, after the hidden widths


def _inr_fields(base: int, n_hidden: int) -> list[tuple[str, int]]:
    """(struct code, offset) of every count, size or seed field of a
    network config block at ``base`` whose hidden list has n_hidden
    entries."""
    widths = base + 2
    tail = widths + 4 * n_hidden
    return [("B", base), ("B", base + 1)] \
        + [("I", widths + 4 * i) for i in range(n_hidden)] \
        + [("I", tail), ("I", tail + 4), ("I", tail + 40), ("I", tail + 44),
           ("B", tail + 48), ("q", tail + 49), ("Q", tail + struct.calcsize("<" + INR_TAIL))]


# window, sample_rate, embed_dim, conv0, n_blocks, two channel widths,
# weight_enc_hidden, n_hyper, one hyper width, lam_t, lam_f, epochs, lr,
# seed, batch_size, then the target's block
META_FIELDS = [("I", 7), ("I", 11), ("I", 15), ("I", 19), ("B", 23), ("I", 24), ("I", 28),
               ("I", 32), ("B", 36), ("I", 37), ("d", 41), ("d", 49), ("I", 57), ("d", 61),
               ("q", 69), ("Q", 77)]

_VALUES = {
    "B": st.integers(0, 255),
    "I": st.one_of(st.sampled_from([0, 1, 2 ** 31, 2 ** 32 - 1]), st.integers(0, 2 ** 32 - 1)),
    "Q": st.one_of(st.sampled_from([0, 2 ** 60, 2 ** 64 - 1]), st.integers(0, 2 ** 64 - 1)),
    "q": st.one_of(st.sampled_from([-1, -2 ** 63, 2 ** 63 - 1]),
                   st.integers(-2 ** 63, 2 ** 63 - 1)),
    "d": st.floats(allow_nan=True, allow_infinity=True),
    "H": st.one_of(st.sampled_from([0, 1, 2, 3, 16, 32]), st.integers(0, 2 ** 16 - 1)),
}


@st.composite
def mutants(draw, blob: bytes, fields, crc: bool,
            hows=("flip", "truncate", "append", "patch")) -> bytes:
    b = bytearray(blob)
    how = draw(st.sampled_from(hows))
    if how == "flip":
        b[draw(st.integers(0, len(b) - 1))] ^= draw(st.integers(1, 255))
    elif how == "truncate":
        del b[draw(st.integers(0, len(b) - 1)):]
    elif how == "append":
        b += draw(st.binary(min_size=1, max_size=16))
    else:
        code, off = draw(st.sampled_from(fields))
        struct.pack_into("<" + code, b, off, draw(_VALUES[code]))
        if crc:
            b[-4:] = struct.pack("<I", zlib.crc32(b[:-4]))
    return bytes(b)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    paths = {"model": d / "model.bin", "state": d / "state.bin", "clip": d / "clip.wav",
             "out": d / "out.wav", "mutant": d / "mutant"}
    save_model(paths["model"], build(InrConfig("kan", **TARGET)))
    cfg = FewSoundConfig(target=InrConfig("rff", **TARGET), window=64, embed_dim=4,
                         conv0_channels=2, encoder_channels=(2, 2), weight_enc_hidden=4,
                         hyper_hidden=(4,), epochs=1, lr=1e-3, seed=9)
    save_model(paths["state"], build_state(cfg))
    wav_write(paths["clip"], AudioClip(22050, sine_mixture(300)))
    return {k: str(v) for k, v in paths.items()}


def _check_model_mutant(files, data: bytes) -> None:
    with open(files["mutant"], "wb") as f:
        f.write(data)
    try:
        load_model(files["mutant"])
    except SerializationError:
        assert cli.main(["eval", files["mutant"], files["clip"]]) == 2
        assert cli.main(["reconstruct", files["mutant"], files["clip"],
                         "--out", files["out"]]) == 2


@given(st.data())
def test_fuzz_network_file(files, data):
    blob = open(files["model"], "rb").read()
    _check_model_mutant(files, data.draw(mutants(blob, _inr_fields(7, 1), crc=True)))


@given(st.data())
def test_fuzz_meta_trainer_file(files, data):
    blob = open(files["state"], "rb").read()
    fields = META_FIELDS + _inr_fields(85, 1)
    _check_model_mutant(files, data.draw(mutants(blob, fields, crc=True)))


@pytest.mark.parametrize("kind", ["model", "state"])
@given(data=st.data())
def test_fuzz_seed_slots(files, kind, data):
    # the mixes above patch a seed in about one example in a hundred
    fields = _inr_fields(7, 1) if kind == "model" else META_FIELDS + _inr_fields(85, 1)
    seeds = [f for f in fields if f[0] == "q"]
    blob = open(files[kind], "rb").read()
    _check_model_mutant(files, data.draw(mutants(blob, seeds, crc=True, hows=("patch",))))


def _pcm16_stereo(n: int) -> bytes:
    frames = np.arange(2 * n, dtype="<i2") * 97
    fmt = struct.pack("<HHIIHH", 1, 2, 16000, 16000 * 4, 4, 16)
    body = b"fmt " + struct.pack("<I", len(fmt)) + fmt \
        + b"data" + struct.pack("<I", frames.nbytes) + frames.tobytes()
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


# RIFF size, fmt size, codec, channels, rate, byte rate, block align, bits;
# the data (or fact) chunk's size field follows the 16-byte fmt body
WAV_FIELDS = [("I", 4), ("I", 16), ("H", 20), ("H", 22), ("I", 24), ("I", 28), ("H", 32),
              ("H", 34), ("I", 40)]


@pytest.mark.parametrize("kind", ["float32", "pcm16", "stereo"])
@given(data=st.data())
def test_fuzz_wav(files, kind, data):
    if kind == "stereo":
        blob = _pcm16_stereo(40)
    else:
        path = files["mutant"] + ".wav"
        wav_write(path, AudioClip(22050, sine_mixture(40)), pcm16=kind == "pcm16")
        blob = open(path, "rb").read()
    mutant = files["mutant"] + ".wav"
    with open(mutant, "wb") as f:
        f.write(data.draw(mutants(blob, WAV_FIELDS, crc=False)))
    try:
        wav_read(mutant)
    except WavError:
        assert cli.main(["eval", files["model"], mutant]) == 2
        assert cli.main(["reconstruct", files["state"], mutant, "--out", files["out"]]) == 2


def test_wav_with_non_finite_sample(tmp_path):
    path = tmp_path / "nan.wav"
    wav_write(path, AudioClip(22050, np.zeros(8)))
    blob = bytearray(path.read_bytes())
    blob[-4:] = struct.pack("<f", float("nan"))
    path.write_bytes(bytes(blob))
    with pytest.raises(WavError, match="non-finite"):
        wav_read(path)
