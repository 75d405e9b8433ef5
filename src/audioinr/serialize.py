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

Both directions stream, so neither holds the file as one bytes object.
save_model writes the header, then each parameter's float64 bytes in
flatten order, with a running CRC.  load_model parses the header field by
field, checks the payload count against the config and the file size
before it allocates, then reads the payload straight into one float64
array in fixed-size chunks, with a running CRC.  A file whose CRC fails
reports the CRC mismatch, whatever else is wrong with it.
"""

from __future__ import annotations

import os
import struct
import tempfile
import zlib
from contextlib import contextmanager
from functools import partial

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


_CHUNK = 1 << 20        # bytes per read while streaming a payload


@contextmanager
def _atomic_file(path):
    """Binary file that replaces ``path`` (temp file + rename) when the
    block exits cleanly and is removed when it raises."""
    path = os.fspath(path)
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=".part")
    try:
        # mkstemp creates the file 0600; give it the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "wb") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_bytes(path, data: bytes) -> None:
    """Write via temp file + rename so readers never see partial content."""
    with _atomic_file(path) as f:
        f.write(data)


class _Reader:
    """Reads a model file's body (all but the 4-byte trailer) in order,
    never past its end, with a running CRC32 over every byte read."""

    def __init__(self, f, size: int):
        self.f = f
        self.end = size - 4
        self.off = 0
        self.crc = 0

    def _need(self, n: int) -> None:
        if self.off + n > self.end:
            raise SerializationError(
                f"file truncated at offset {self.off}: needed {n} more bytes, "
                f"have {self.end - self.off}")

    def _fill(self, buf: memoryview) -> None:
        if self.f.readinto(buf) != len(buf):
            raise SerializationError(f"file shrank while being read, at offset {self.off}")
        self.crc = zlib.crc32(buf, self.crc)
        self.off += len(buf)

    def take(self, n: int) -> bytearray:
        self._need(n)
        out = bytearray(n)
        self._fill(memoryview(out))
        return out

    def unpack(self, fmt: str):
        return struct.unpack("<" + fmt, self.take(struct.calcsize("<" + fmt)))

    def take_floats(self, count: int) -> np.ndarray:
        """``count`` float64 values, read into one array _CHUNK bytes at a
        time; the size is checked before anything is allocated."""
        self._need(8 * count)
        out = np.empty(count, dtype="<f8")
        buf = memoryview(out).cast("B")
        for a in range(0, len(buf), _CHUNK):
            self._fill(buf[a:a + _CHUNK])
        return out

    def check_crc(self) -> None:
        """Read the rest of the body and compare its CRC with the trailer."""
        buf = memoryview(bytearray(min(_CHUNK, self.end - self.off)))
        while self.off < self.end:
            self._fill(buf[:self.end - self.off])
        computed = self.crc
        self.end += 4                   # the trailer follows the body
        (stored,) = self.unpack("I")
        if stored != computed:
            raise SerializationError(f"CRC mismatch: stored {stored:#010x}, "
                                     f"computed {computed:#010x}")


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


def save_model(path, obj) -> None:
    """Serialize an InrModel or meta-trainer state with a CRC trailer."""
    from .fewsound import FewSoundState
    if isinstance(obj, InrModel):
        kind, config, params = KIND_INR, pack_inr_config(obj.config), obj.params
    elif isinstance(obj, FewSoundState):
        kind, config = KIND_FEWSOUND, _pack_fewsound_config(obj.config)
        params = [p for _, p in obj.named_params()]
    else:
        raise SerializationError(f"cannot serialize object of type {type(obj).__name__}")
    head = MAGIC + bytes([VERSION, kind]) + config \
        + struct.pack("<Q", sum(p.data.size for p in params))
    with _atomic_file(path) as f:
        f.write(head)
        crc = zlib.crc32(head)
        for p in params:
            values = np.ascontiguousarray(p.data.ravel(), dtype="<f8")
            f.write(values)
            crc = zlib.crc32(values, crc)
        f.write(struct.pack("<I", crc))


def load_model(path):
    """Load a file written by save_model; returns an InrModel or meta state."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if size < len(MAGIC) + 2 + 4:
            raise SerializationError(f"file too short ({size} bytes) to be a model file")
        r = _Reader(f, size)
        try:
            make, vec = _read_body(r)
        except SerializationError:
            r.check_crc()
            raise
        r.check_crc()
    return make(vec)


def _read_body(r: _Reader):
    """(constructor, payload) from a body whose CRC is checked afterwards."""
    if r.take(len(MAGIC)) != MAGIC:
        raise SerializationError("bad magic at offset 0")
    (version, kind) = r.unpack("BB")
    if version != VERSION:
        raise SerializationError(f"unsupported format version {version} at offset 5")
    if kind == KIND_INR:
        cfg = unpack_inr_config(r)
        make, count = partial(inr.unflatten_params, cfg), inr.param_count(cfg)
    elif kind == KIND_FEWSOUND:
        from .fewsound import state_from_vector, state_param_count
        cfg = _unpack_fewsound_config(r)
        make, count = partial(state_from_vector, cfg), state_param_count(cfg)
    else:
        raise SerializationError(f"unknown kind byte {kind} at offset 6")
    vec = _read_payload(r, count)
    if r.off != r.end:
        raise SerializationError(f"{r.end - r.off} trailing bytes at offset {r.off}")
    return make, vec


def _read_payload(r: _Reader, expected: int) -> np.ndarray:
    (count,) = r.unpack("Q")
    if count != expected:
        raise SerializationError(f"payload declares {count} parameters, "
                                 f"config implies {expected}")
    return r.take_floats(count)
