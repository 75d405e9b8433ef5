"""Binary model files and atomic file writes.

Layout (all integers and floats little-endian):

    offset 0   magic  b"AINR1"
    5          version u8 (currently 1)
    6          kind    u8: 1 = single network, 2 = meta-trainer state
    7          kind-specific config block (below)
    ...        payload count u64, then that many float64 parameter values
               in flatten order
    trailer    CRC32 (u32) over every preceding byte

Network config block:
    arch u8 (index into inr.ARCHS), n_hidden u8, hidden widths u32 each,
    encoding_length u32, rff_features u32, rff_sigma f64, omega0 f64,
    s0 f64, finer_bias_bound f64, grid_size u32, spline_order u32,
    scale_spline u8, seed i64

Meta-trainer config block:
    window u32, sample_rate u32, embed_dim u32, conv0_channels u32,
    n_blocks u8, block channels u32 each, weight_enc_hidden u32, n_hyper
    u8, hyper widths u32 each, lam_t f64, lam_f f64, epochs u32, lr f64,
    seed i64, batch_size u64 (0 = whole dataset), then the target
    network's config block.

A block whose values the config type rejects (say grid_size 0) raises
SerializationError, like any other malformed file.

Frozen state (e.g. the random-feature projection) is reproduced from the
stored seed rather than serialized.  Writes go to a temp file in the
destination directory and are renamed into place, so a crashed run never
leaves a file that passes its CRC.
"""

from __future__ import annotations

import os
import struct
import tempfile
import zlib

import numpy as np

from . import inr
from .inr import InrConfig, InrModel
from .tensor import ContractError


class SerializationError(ValueError):
    """Malformed, truncated, or corrupt model file."""


MAGIC = b"AINR1"
VERSION = 1
KIND_INR = 1
KIND_FEWSOUND = 2


def atomic_write_bytes(path, data: bytes) -> None:
    """Write via temp file + rename so readers never see partial content."""
    path = os.fspath(path)
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=".part")
    try:
        # mkstemp creates the file 0600; give it the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class _Reader:
    """Cursor over a memoryview; take() returns views, never copies."""

    def __init__(self, buf: memoryview):
        self.buf = buf
        self.off = 0

    def take(self, n: int) -> memoryview:
        if self.off + n > len(self.buf):
            raise SerializationError(
                f"file truncated at offset {self.off}: needed {n} more bytes, "
                f"have {len(self.buf) - self.off}")
        out = self.buf[self.off: self.off + n]
        self.off += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack("<" + fmt, self.take(struct.calcsize("<" + fmt)))


def pack_inr_config(cfg: InrConfig) -> bytes:
    parts = [struct.pack("<BB", inr.ARCHS.index(cfg.arch), len(cfg.hidden))]
    parts.append(struct.pack(f"<{len(cfg.hidden)}I", *cfg.hidden))
    parts.append(struct.pack("<II4dIIBq",
                             cfg.encoding_length, cfg.rff_features,
                             cfg.rff_sigma, cfg.omega0, cfg.s0, cfg.finer_bias_bound,
                             cfg.grid_size, cfg.spline_order,
                             1 if cfg.scale_spline else 0, cfg.seed))
    return b"".join(parts)


def unpack_inr_config(r: _Reader) -> InrConfig:
    start = r.off
    arch_ix, n_hidden = r.unpack("BB")
    if arch_ix >= len(inr.ARCHS):
        raise SerializationError(f"unknown arch byte {arch_ix} at offset {r.off - 2}")
    hidden = r.unpack(f"{n_hidden}I")
    (enc_len, rff_m, rff_sigma, omega0, s0, kb,
     grid, order, scale, seed) = r.unpack("II4dIIBq")
    try:
        return InrConfig(inr.ARCHS[arch_ix], hidden=hidden, encoding_length=enc_len,
                         rff_features=rff_m, rff_sigma=rff_sigma, omega0=omega0, s0=s0,
                         finer_bias_bound=kb, grid_size=grid, spline_order=order,
                         scale_spline=bool(scale), seed=seed)
    except ContractError as e:
        raise SerializationError(f"invalid network config at offset {start}: {e}") from e


def _pack_fewsound_config(cfg) -> bytes:
    parts = [struct.pack("<IIIIB", cfg.window, cfg.sample_rate, cfg.embed_dim,
                         cfg.conv0_channels, len(cfg.encoder_channels))]
    parts.append(struct.pack(f"<{len(cfg.encoder_channels)}I", *cfg.encoder_channels))
    parts.append(struct.pack("<IB", cfg.weight_enc_hidden, len(cfg.hyper_hidden)))
    parts.append(struct.pack(f"<{len(cfg.hyper_hidden)}I", *cfg.hyper_hidden))
    parts.append(struct.pack("<ddIdqQ", cfg.lam_t, cfg.lam_f, cfg.epochs, cfg.lr,
                             cfg.seed, cfg.batch_size or 0))
    parts.append(pack_inr_config(cfg.target))
    return b"".join(parts)


def _unpack_fewsound_config(r: _Reader):
    from .fewsound import FewSoundConfig
    start = r.off
    window, sample_rate, embed_dim, conv0, n_blocks = r.unpack("IIIIB")
    channels = r.unpack(f"{n_blocks}I")
    weight_enc_hidden, n_hyper = r.unpack("IB")
    hyper = r.unpack(f"{n_hyper}I")
    lam_t, lam_f, epochs, lr, seed, batch = r.unpack("ddIdqQ")
    target = unpack_inr_config(r)
    try:
        return FewSoundConfig(target=target, window=window, sample_rate=sample_rate,
                              embed_dim=embed_dim, conv0_channels=conv0,
                              encoder_channels=channels,
                              weight_enc_hidden=weight_enc_hidden, hyper_hidden=hyper,
                              lam_t=lam_t, lam_f=lam_f, epochs=epochs, lr=lr, seed=seed,
                              batch_size=batch or None)
    except ContractError as e:
        raise SerializationError(
            f"invalid meta-trainer config at offset {start}: {e}") from e


def _payload(vec: np.ndarray) -> bytes:
    vec = np.ascontiguousarray(vec, dtype="<f8")
    return struct.pack("<Q", vec.size) + vec.tobytes()


def save_model(path, obj) -> None:
    """Serialize an InrModel or meta-trainer state with a CRC trailer."""
    from .fewsound import FewSoundState, state_flatten
    if isinstance(obj, InrModel):
        body = bytes([KIND_INR]) + pack_inr_config(obj.config) \
            + _payload(inr.flatten_params(obj))
    elif isinstance(obj, FewSoundState):
        body = bytes([KIND_FEWSOUND]) + _pack_fewsound_config(obj.config) \
            + _payload(state_flatten(obj))
    else:
        raise SerializationError(f"cannot serialize object of type {type(obj).__name__}")
    blob = MAGIC + bytes([VERSION]) + body
    atomic_write_bytes(path, blob + struct.pack("<I", zlib.crc32(blob)))


def load_model(path):
    """Load a file written by save_model; returns an InrModel or meta state."""
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < len(MAGIC) + 2 + 4:
        raise SerializationError(f"file too short ({len(blob)} bytes) to be a model file")
    body, (crc,) = memoryview(blob)[:-4], struct.unpack("<I", blob[-4:])
    actual = zlib.crc32(body)
    if actual != crc:
        raise SerializationError(f"CRC mismatch: stored {crc:#010x}, computed {actual:#010x}")

    r = _Reader(body)
    if r.take(len(MAGIC)) != MAGIC:
        raise SerializationError("bad magic at offset 0")
    (version, kind) = r.unpack("BB")
    if version != VERSION:
        raise SerializationError(f"unsupported format version {version} at offset 5")

    if kind == KIND_INR:
        cfg = unpack_inr_config(r)
        vec = _read_payload(r, inr.param_count(cfg))
        if r.off != len(body):
            raise SerializationError(f"{len(body) - r.off} trailing bytes at offset {r.off}")
        return inr.unflatten_params(cfg, vec)
    if kind == KIND_FEWSOUND:
        from .fewsound import state_from_vector, state_param_count
        cfg = _unpack_fewsound_config(r)
        vec = _read_payload(r, state_param_count(cfg))
        if r.off != len(body):
            raise SerializationError(f"{len(body) - r.off} trailing bytes at offset {r.off}")
        return state_from_vector(cfg, vec)
    raise SerializationError(f"unknown kind byte {kind} at offset 6")


def _read_payload(r: _Reader, expected: int) -> np.ndarray:
    (count,) = r.unpack("Q")
    if count != expected:
        raise SerializationError(f"payload declares {count} parameters, "
                                 f"config implies {expected}")
    raw = r.take(8 * count)
    return np.frombuffer(raw, dtype="<f8").copy()
