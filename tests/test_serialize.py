"""Binary model files: layout arithmetic, roundtrips, corruption detection."""

import dataclasses
import glob
import hashlib
import math
import os
import stat
import struct
import zlib

import numpy as np
import pytest

from audioinr import fewsound, inr
from audioinr import tensor as T
from audioinr.fewsound import FewSoundConfig, build_state, state_flatten
from audioinr.inr import ARCHS, InrConfig, build, flatten_params, param_count
from audioinr.tensor import ContractError
from audioinr.serialize import (
    KIND_FEWSOUND,
    KIND_INR,
    MAGIC,
    VERSION,
    SerializationError,
    _pack_fewsound_config,
    atomic_write_bytes,
    load_model,
    pack_inr_config,
    save_model,
)
from memory import traced

TINY_TARGET = dict(hidden=(4,), encoding_length=2, rff_features=3,
                   grid_size=3, spline_order=1, seed=3)


def tiny_meta_config():
    return FewSoundConfig(target=InrConfig("siren", **TINY_TARGET),
                          window=64, embed_dim=4, conv0_channels=2,
                          encoder_channels=(2, 2), weight_enc_hidden=4,
                          hyper_hidden=(4,), epochs=1, lr=1e-3, seed=9)


# -- roundtrips ----------------------------------------------------------------


@pytest.mark.parametrize("arch", ARCHS)
def test_inr_roundtrip_bitwise(arch, tmp_path, rng):
    cfg = InrConfig(arch, **TINY_TARGET)
    model = build(cfg)
    path = tmp_path / f"{arch}.bin"
    save_model(path, model)
    back = load_model(path)
    assert back.config == cfg
    np.testing.assert_array_equal(flatten_params(back), flatten_params(model))
    t = rng.uniform(-1.0, 1.0, 19)
    np.testing.assert_array_equal(back.forward(t).data, model.forward(t).data)


def test_inr_roundtrip_after_edits(tmp_path, rng):
    model = build(InrConfig("kan", **TINY_TARGET))
    for p in model.params:
        p.data = rng.standard_normal(p.data.shape)
    path = tmp_path / "edited.bin"
    save_model(path, model)
    np.testing.assert_array_equal(flatten_params(load_model(path)),
                                  flatten_params(model))


def test_fewsound_roundtrip_bitwise(tmp_path, rng):
    cfg = tiny_meta_config()
    state = build_state(cfg)
    for _, p in state.named_params():
        p.data = rng.standard_normal(p.data.shape)
    path = tmp_path / "state.bin"
    save_model(path, state)
    back = load_model(path)
    assert back.config.target == cfg.target
    for name in ("window", "sample_rate", "embed_dim", "conv0_channels",
                 "encoder_channels", "weight_enc_hidden", "hyper_hidden",
                 "lam_t", "lam_f", "epochs", "lr", "seed", "batch_size"):
        assert getattr(back.config, name) == getattr(cfg, name), name
    np.testing.assert_array_equal(state_flatten(back), state_flatten(state))


def test_fewsound_load_draws_no_random_init(tmp_path, monkeypatch, rng):
    cfg = tiny_meta_config()
    cfg.target = InrConfig("rff", **TINY_TARGET)
    state = build_state(cfg)
    for _, p in state.named_params():
        p.data = rng.standard_normal(p.data.shape)
    path = tmp_path / "state.bin"
    save_model(path, state)

    def no_init(*args, **kwargs):
        raise AssertionError("load_model drew a random init")

    monkeypatch.setattr(fewsound, "build_state", no_init)
    monkeypatch.setattr(inr, "build", no_init)
    back = load_model(path)
    assert [n for n, _ in back.named_params()] == [n for n, _ in state.named_params()]
    for (name, p), (_, q) in zip(state.named_params(), back.named_params()):
        assert q.name == name and q.requires_grad and q.data.dtype == np.float64
        np.testing.assert_array_equal(q.data, p.data)
    np.testing.assert_array_equal(back.target_embedding["rff_b"],
                                  state.target_embedding["rff_b"])
    with T.default_dtype("float32"):
        back32 = load_model(path)
    for (_, p), (_, q) in zip(state.named_params(), back32.named_params()):
        assert q.data.dtype == np.float32
        np.testing.assert_array_equal(q.data, p.data.astype(np.float32))


def test_counts_at_their_slot_maxima_roundtrip(tmp_path):
    # the configs accept the largest count each slot holds, and the file
    # keeps it: u64 for batch_size, u32 for epochs
    state = build_state(dataclasses.replace(tiny_meta_config(), batch_size=2 ** 64 - 1,
                                            epochs=2 ** 32 - 1))
    path = tmp_path / "max.bin"
    save_model(path, state)
    back = load_model(path).config
    assert (back.batch_size, back.epochs) == (2 ** 64 - 1, 2 ** 32 - 1)


def test_rff_projection_survives_roundtrip(tmp_path):
    model = build(InrConfig("rff", **TINY_TARGET))
    path = tmp_path / "rff.bin"
    save_model(path, model)
    np.testing.assert_array_equal(load_model(path).embedding["rff_b"],
                                  model.embedding["rff_b"])


# -- layout arithmetic -----------------------------------------------------------


def test_file_size_formula(tmp_path):
    cfg = InrConfig("kan")
    path = tmp_path / "m.bin"
    save_model(path, build(cfg))
    config_block = 2 + 4 * len(cfg.hidden) + struct.calcsize("<II4dIIBq")
    want = len(MAGIC) + 1 + 1 + config_block + 8 + 8 * param_count(cfg) + 4
    assert path.stat().st_size == want


def test_meta_config_block_starts_with_window_and_sample_rate(tmp_path):
    cfg = tiny_meta_config()
    cfg.sample_rate = 12345
    path = tmp_path / "meta.bin"
    save_model(path, build_state(cfg))
    blob = path.read_bytes()
    assert struct.unpack_from("<IIII", blob, 7) == (cfg.window, 12345, cfg.embed_dim,
                                                    cfg.conv0_channels)
    assert load_model(path).config.sample_rate == 12345


def whole_blob(obj) -> bytes:
    """Reference writer: the whole file built as one bytes object."""
    if isinstance(obj, fewsound.FewSoundState):
        kind, config, vec = KIND_FEWSOUND, _pack_fewsound_config(obj.config), state_flatten(obj)
    else:
        kind, config, vec = KIND_INR, pack_inr_config(obj.config), flatten_params(obj)
    vec = np.ascontiguousarray(vec, dtype="<f8")
    blob = MAGIC + bytes([VERSION, kind]) + config + struct.pack("<Q", vec.size) + vec.tobytes()
    return blob + struct.pack("<I", zlib.crc32(blob))


@pytest.mark.parametrize("precision", ["float64", "float32"])
def test_streamed_file_equals_whole_blob(precision, tmp_path, rng):
    with T.default_dtype(precision):
        objs = [build(InrConfig(arch, **TINY_TARGET)) for arch in ARCHS]
        objs.append(build_state(tiny_meta_config()))
    for i, obj in enumerate(objs):
        for _, p in obj.named_params():
            p.data = rng.standard_normal(p.data.shape).astype(precision)
        path = tmp_path / f"{i}.bin"
        save_model(path, obj)
        assert path.read_bytes() == whole_blob(obj)


# SHA-256 of tiny files whose parameters are an arange pattern: every
# arch with and without scale_spline, and a meta-trainer state without and
# with a batch size.  A change to any byte of the layout changes a digest.
PINNED = {
    "nerf-scaled": "a84cf08546fb15eeffed801ff071bc4571693e3a7c84248de65e54648ce9a906",
    "nerf-unscaled": "62202a7b3868746a514f0280e30f65f81afd4703fd11ce6dbfb6bc8a09878102",
    "siren-scaled": "caad39deebb885aaa87a6f7e86903d28eeb9665191a70f1bd84686ffc8e63c18",
    "siren-unscaled": "dbadec5c46dfdf402daae8eb7725ee3c5f46a753a8dbf8ed24ae2b8df5af4055",
    "rff-scaled": "8935c6c86bcee0b06309ae734197778a748a18c9479af43a9d45a2bc6240700e",
    "rff-unscaled": "c5d6dfc4e7e47171c8a825d4a0e66cae29ba7a833a91ae0f608eb07c8c4a9f88",
    "wire-scaled": "64325acc8e6e5f8746337486a6300d0acece01c7be4132a03215b23250c4ba3c",
    "wire-unscaled": "0ef3a92b601db63358fbd106b4c476b306ba51b1d113856fb26af17a35627d9c",
    "finer-scaled": "ce1dd7a909a9540217ff7e4dc535bc72796bfa77fe79657a3a19c42ad2a52f19",
    "finer-unscaled": "8b22472a5fb1ffd62debe10053da5c320cc6df19e170879db8e0ce477ab94e4e",
    "kan-scaled": "55af3779312905d98c00a1da3ca45c673fcc4d6095cae3c8938016fea8ecb767",
    "kan-unscaled": "dddfc0b2913f25ddcbe232fb819f4c58b9310fb2e35ccc0e11a9c988050c3acf",
    "meta-whole": "6b15b63767f31e1d1ed6d2932ef65306f4f0cb1b0aa882c6b6066372c3049e81",
    "meta-batch2": "b50cc7155e8b4ca1bdb6c8976be600736ff4a592b6389d006098e25e64393482",
}


@pytest.mark.parametrize("name", PINNED)
def test_file_bytes_are_pinned(name, tmp_path):
    kind, variant = name.split("-")
    if kind == "meta":
        batch = None if variant == "whole" else 2
        obj = build_state(dataclasses.replace(tiny_meta_config(), batch_size=batch))
    else:
        obj = build(InrConfig(kind, scale_spline=variant == "scaled", **TINY_TARGET))
    start = 0
    for _, p in obj.named_params():
        p.data = (np.arange(start, start + p.data.size) / 64).reshape(p.data.shape)
        start += p.data.size
    path = tmp_path / "pinned.bin"
    save_model(path, obj)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED[name]


def _meta_state_5mb():
    """A meta-trainer state of about 5 MB, nearly all in two matrices."""
    cfg = tiny_meta_config()
    cfg.target = InrConfig("siren", hidden=(32, 32), seed=3)
    cfg.weight_enc_hidden = 256
    cfg.hyper_hidden = (256,)
    return build_state(cfg)


@pytest.mark.parametrize("make", [_meta_state_5mb,
                                  lambda: build(InrConfig("siren", hidden=(256,) * 3))],
                         ids=["meta", "siren"])
def test_save_and_load_stream(make, tmp_path):
    obj = make()
    path = tmp_path / "big.bin"
    _, _, save_peak = traced(save_model, path, obj)
    back, _, load_peak = traced(load_model, path)
    size = path.stat().st_size
    assert size > 1_000_000
    assert save_peak <= 0.1 * size
    assert load_peak <= 1.1 * size
    np.testing.assert_array_equal(np.concatenate([p.data.ravel() for _, p in back.named_params()]),
                                  np.concatenate([p.data.ravel() for _, p in obj.named_params()]))


def test_save_is_deterministic(tmp_path):
    cfg = InrConfig("finer", **TINY_TARGET)
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    save_model(a, build(cfg))
    save_model(b, build(cfg))
    assert a.read_bytes() == b.read_bytes()


# -- corruption detection ----------------------------------------------------------


def _saved_blob(tmp_path):
    path = tmp_path / "m.bin"
    save_model(path, build(InrConfig("siren", **TINY_TARGET)))
    return path, bytearray(path.read_bytes())


def _rewrite(path, body: bytes):
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))


def test_rejects_truncation(tmp_path):
    path, blob = _saved_blob(tmp_path)
    path.write_bytes(bytes(blob[:8]))
    with pytest.raises(SerializationError, match="too short"):
        load_model(path)
    path.write_bytes(bytes(blob[:-10]))
    with pytest.raises(SerializationError):
        load_model(path)


def test_rejects_flipped_payload_byte(tmp_path):
    path, blob = _saved_blob(tmp_path)
    blob[-40] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(SerializationError, match="CRC mismatch"):
        load_model(path)


def test_rejects_bad_magic(tmp_path):
    path, blob = _saved_blob(tmp_path)
    _rewrite(path, b"XXXXX" + bytes(blob[5:-4]))
    with pytest.raises(SerializationError, match="bad magic"):
        load_model(path)


def test_rejects_unknown_version(tmp_path):
    path, blob = _saved_blob(tmp_path)
    body = bytearray(blob[:-4])
    body[5] = 9
    _rewrite(path, bytes(body))
    with pytest.raises(SerializationError, match="version 9"):
        load_model(path)


def test_rejects_unknown_kind(tmp_path):
    path, blob = _saved_blob(tmp_path)
    body = bytearray(blob[:-4])
    body[6] = 7
    _rewrite(path, bytes(body))
    with pytest.raises(SerializationError, match="unknown kind byte 7"):
        load_model(path)


def test_rejects_unknown_arch_byte(tmp_path):
    path, blob = _saved_blob(tmp_path)
    body = bytearray(blob[:-4])
    body[7] = 99
    _rewrite(path, bytes(body))
    with pytest.raises(SerializationError, match="unknown arch byte 99"):
        load_model(path)


def test_rejects_wrong_payload_count(tmp_path):
    path, blob = _saved_blob(tmp_path)
    body = bytearray(blob[:-4])
    count_off = 7 + 2 + 4 * 1 + struct.calcsize("<II4dIIBq")
    (count,) = struct.unpack_from("<Q", body, count_off)
    struct.pack_into("<Q", body, count_off, count + 1)
    _rewrite(path, bytes(body))
    with pytest.raises(SerializationError, match="payload declares"):
        load_model(path)


@pytest.mark.parametrize("width,count", [(4, 2 ** 60), (2 ** 31, None)])
def test_refuses_huge_payload_before_allocating(width, count, tmp_path):
    # count None: the count agrees with the config, whose width of 2^31
    # implies 6.4e9 parameters, far more than the file holds
    path, blob = _saved_blob(tmp_path)
    body = bytearray(blob[:-4])
    implied = param_count(InrConfig("siren", **dict(TINY_TARGET, hidden=(width,))))
    struct.pack_into("<I", body, 9, width)
    struct.pack_into("<Q", body, 7 + 2 + 4 * 1 + struct.calcsize("<II4dIIBq"),
                     count or implied)
    _rewrite(path, bytes(body))
    message = f"payload declares {count} " if count else f"needed {8 * implied} more bytes"

    def refused():
        with pytest.raises(SerializationError, match=message):
            load_model(path)

    _, _, peak = traced(refused)
    assert peak < 1 << 20


@pytest.mark.parametrize("where", [0, 6, 7, -12])
def test_crc_mismatch_reported_first(where, tmp_path):
    # each flip also breaks a field (magic, kind, arch, payload), but the
    # CRC is not recomputed, so the CRC is what the error names
    path, blob = _saved_blob(tmp_path)
    blob[where] ^= 0x5A
    path.write_bytes(bytes(blob) + b"junk")
    with pytest.raises(SerializationError, match="CRC mismatch"):
        load_model(path)


def test_rejects_trailing_junk(tmp_path):
    path, blob = _saved_blob(tmp_path)
    _rewrite(path, bytes(blob[:-4]) + b"\x00\x00\x00")
    with pytest.raises(SerializationError, match="trailing bytes"):
        load_model(path)


@pytest.mark.parametrize("field,value", [("grid_size", 0), ("hidden", ()),
                                         ("omega0", -1.0), ("omega0", math.nan),
                                         ("s0", math.inf), ("rff_sigma", -math.inf),
                                         ("finer_bias_bound", math.nan), ("seed", -1),
                                         ("seed", -2 ** 63)])
def test_rejects_invalid_network_config(field, value, tmp_path):
    # the CRC is valid; the stored values are ones InrConfig refuses.  rff
    # draws its projection from the seed: a negative one once reached
    # PCG64, which raised a bare ValueError
    model = build(InrConfig("rff", **TINY_TARGET))
    setattr(model.config, field, value)
    path = tmp_path / "bad.bin"
    save_model(path, model)
    with pytest.raises(SerializationError, match="invalid network config at offset 7") as e:
        load_model(path)
    assert isinstance(e.value.__cause__, ContractError)


@pytest.mark.parametrize("field,value", [("window", 8), ("window", 66),
                                         ("embed_dim", 0), ("lr", math.nan),
                                         ("lr", math.inf), ("lam_t", math.nan),
                                         ("lam_f", -1.0), ("epochs", 0),
                                         ("sample_rate", 0), ("weight_enc_hidden", 0),
                                         ("seed", -1)])
def test_rejects_invalid_meta_config(field, value, tmp_path):
    state = build_state(tiny_meta_config())
    setattr(state.config, field, value)
    path = tmp_path / "bad.bin"
    save_model(path, state)
    with pytest.raises(SerializationError,
                       match="invalid meta-trainer config at offset 7") as e:
        load_model(path)
    assert isinstance(e.value.__cause__, ContractError)


def test_rejects_invalid_target_inside_meta_config(tmp_path):
    state = build_state(tiny_meta_config())
    state.config.target.grid_size = 0
    path = tmp_path / "bad.bin"
    save_model(path, state)
    with pytest.raises(SerializationError, match="invalid network config") as e:
        load_model(path)
    assert isinstance(e.value.__cause__, ContractError)


def test_rejects_unserializable_object(tmp_path):
    with pytest.raises(SerializationError, match="cannot serialize"):
        save_model(tmp_path / "x.bin", {"weights": [1, 2, 3]})


# -- atomic writes ------------------------------------------------------------------


def test_atomic_write_overwrites_cleanly(tmp_path):
    path = tmp_path / "out.bin"
    atomic_write_bytes(path, b"first")
    atomic_write_bytes(path, b"second")
    assert path.read_bytes() == b"second"
    assert glob.glob(str(tmp_path / ".tmp-*")) == []


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_atomic_write_honours_umask(tmp_path, umask):
    old = os.umask(umask)
    try:
        atomic_write_bytes(tmp_path / "out.bin", b"data")
        save_model(tmp_path / "model.bin", build(InrConfig("siren", **TINY_TARGET)))
    finally:
        os.umask(old)
    for name in ("out.bin", "model.bin"):
        assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == 0o666 & ~umask
