"""Reconstruction quality metrics and spectrogram export.

All functions here are evaluation-only and run on plain numpy,
independent of the autodiff tape.  LSD and the spectrogram export take
the magnitude of ``loss.stft``, the same Hann-framed rfft spectrum the
training loss puts on the tape.  The Wasserstein distance compares
normalized FFT magnitude distributions on the squared-index support
[0, 1, 4, ..., (N-1)^2], which weights errors by how high in frequency
they occur; the result is divided by N so clips of different lengths
are comparable.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .tensor import ContractError, DomainError, ShapeError
from .loss import StftResolution, stft
from .serialize import atomic_write_bytes

PSNR_SENTINEL = 999.0    # stands in for +inf when mse == 0
SI_SNR_CAP = 100.0
LSD_EPS = 1e-8
DB_EPS = 1e-7

METRIC_COLUMNS = ("mse", "psnr", "lsd", "sisnr", "wd")

DEFAULT_METRIC_RES = StftResolution(2048, 512, 2048)


def _pair(x, xhat) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    xhat = np.asarray(xhat, dtype=np.float64)
    if x.ndim != 1 or x.shape != xhat.shape:
        raise ShapeError(f"signals must be 1-D and equal length, got {x.shape} vs {xhat.shape}")
    if x.size == 0:
        raise ContractError("empty signals")
    return x, xhat


def mse_psnr(x, xhat) -> tuple[float, float]:
    """(mean squared error, 10*log10(1/mse)); full-scale MAX = 1.0."""
    x, xhat = _pair(x, xhat)
    mse = float(np.mean((x - xhat) ** 2))
    if mse == 0.0:
        return 0.0, PSNR_SENTINEL
    return mse, 10.0 * math.log10(1.0 / mse)


def lsd(x, xhat, res: StftResolution = DEFAULT_METRIC_RES) -> float:
    """Log-spectral distance: per-frame RMS over bins of log10 power
    differences, averaged over frames."""
    x, xhat = _pair(x, xhat)
    px = np.log10(np.abs(stft(x, res)) ** 2 + LSD_EPS)
    ph = np.log10(np.abs(stft(xhat, res)) ** 2 + LSD_EPS)
    return float(np.mean(np.sqrt(np.mean((px - ph) ** 2, axis=1))))


def si_snr(x, xhat) -> float:
    """Scale-invariant SNR in dB, capped at +100."""
    x, xhat = _pair(x, xhat)
    x = x - x.mean()
    xhat = xhat - xhat.mean()
    denom = float(x @ x)
    if denom == 0.0:
        raise DomainError("reference signal is constant; SI-SNR undefined")
    s = (float(xhat @ x) / denom) * x
    e = xhat - s
    e_pow = float(e @ e)
    if e_pow == 0.0:
        return SI_SNR_CAP
    return min(SI_SNR_CAP, 10.0 * math.log10(float(s @ s) / e_pow))


def squared_index_support(n: int) -> np.ndarray:
    return np.arange(n, dtype=np.float64) ** 2


def wasserstein_1d(p, q, support) -> float:
    """Exact 1-D Wasserstein between distributions on a shared sorted support:
    sum_i |CDF_p(i) - CDF_q(i)| * (s_{i+1} - s_i)."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    support = np.asarray(support, dtype=np.float64)
    if not (p.shape == q.shape == support.shape) or p.ndim != 1:
        raise ShapeError("p, q, support must share one 1-D shape")
    gap = np.abs(np.cumsum(p - q))[:-1]
    return float(np.sum(gap * np.diff(support)))


def spectral_wasserstein(x, xhat) -> float:
    """Wasserstein between normalized |FFT| distributions on the
    squared-index support, divided by the signal length."""
    x, xhat = _pair(x, xhat)
    n = x.size
    p = np.abs(np.fft.fft(x))
    q = np.abs(np.fft.fft(xhat))
    ps, qs = p.sum(), q.sum()
    if ps == 0.0 or qs == 0.0:
        raise DomainError("zero-energy signal; magnitude distribution undefined")
    return wasserstein_1d(p / ps, q / qs, squared_index_support(n)) / n


def compute_all(x, xhat, res: StftResolution = DEFAULT_METRIC_RES) -> dict[str, float]:
    """Every metric defined for this pair, as a column-keyed dict.

    mse and psnr are always present; lsd, sisnr and wd are left out when
    the pair is too short or degenerate for them (their ContractError or
    DomainError), e.g. silence has no SI-SNR or spectral distribution.
    """
    mse, psnr = mse_psnr(x, xhat)
    out = {"mse": mse, "psnr": psnr}
    for name, fn, args in (("lsd", lsd, (x, xhat, res)),
                           ("sisnr", si_snr, (x, xhat)),
                           ("wd", spectral_wasserstein, (x, xhat))):
        try:
            out[name] = fn(*args)
        except (ContractError, DomainError):
            pass
    return out


# -- spectrogram export --------------------------------------------------------


def spectrogram_export(x, path, res: StftResolution = DEFAULT_METRIC_RES) -> tuple[str, str]:
    """Write dB magnitudes (20*log10(mag + 1e-7)) next to ``path`` as
    <path>.csv (frames x bins) and <path>.pgm (bins tall, frames wide,
    grayscale normalized min->0, max->255).  Returns both paths."""
    x = np.asarray(x, dtype=np.float64)
    db = 20.0 * np.log10(np.abs(stft(x, res)) + DB_EPS)

    base = str(path)
    if base.endswith(".csv") or base.endswith(".pgm"):
        base = base[:-4]
    csv_path, pgm_path = base + ".csv", base + ".pgm"

    lines = [",".join(f"{v:.8e}" for v in row) for row in db]
    atomic_write_bytes(csv_path, ("\n".join(lines) + "\n").encode())

    lo, hi = db.min(), db.max()
    if hi > lo:
        img = np.round((db - lo) / (hi - lo) * 255.0).astype(np.uint8)
    else:
        img = np.zeros(db.shape, dtype=np.uint8)
    img = img.T  # rows = frequency bins, columns = frames
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode()
    atomic_write_bytes(pgm_path, header + img.tobytes())
    return csv_path, pgm_path


# -- aggregate report ----------------------------------------------------------


@dataclass
class MetricsReport:
    """Per-clip metric rows plus recomputable per-arch aggregates."""
    rows: list[dict] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    def add(self, clip_id: str, arch: str, params: int, values: dict[str, float]) -> None:
        row = {"clip_id": clip_id, "arch": arch, "params": int(params)}
        row.update({k: float(values[k]) for k in METRIC_COLUMNS})
        self.rows.append(row)

    def warn(self, message: str) -> None:
        self.warnings.append(message)

    def archs(self) -> list[str]:
        seen: list[str] = []
        for r in self.rows:
            if r["arch"] not in seen:
                seen.append(r["arch"])
        return seen

    def aggregate(self) -> dict[str, dict[str, tuple[float, float]]]:
        """arch -> metric -> (mean, population std)."""
        out: dict[str, dict[str, tuple[float, float]]] = {}
        for arch in self.archs():
            vals = [r for r in self.rows if r["arch"] == arch]
            out[arch] = {
                m: (float(np.mean([v[m] for v in vals])),
                    float(np.std([v[m] for v in vals])))
                for m in METRIC_COLUMNS
            }
        return out

    def to_csv(self) -> str:
        """Per-clip rows then per-arch mean/std rows, fixed column order, csv-quoted."""
        buf = io.StringIO()
        out = csv.writer(buf, lineterminator="\n")
        out.writerow(["clip_id", "arch", "params", *METRIC_COLUMNS])
        for r in self.rows:
            out.writerow([r["clip_id"], r["arch"], r["params"],
                          *(_fmt(r[m]) for m in METRIC_COLUMNS)])
        agg = self.aggregate()
        params_by_arch = {r["arch"]: r["params"] for r in self.rows}
        for arch in self.archs():
            for stat, j in (("mean", 0), ("std", 1)):
                out.writerow([stat, arch, params_by_arch[arch],
                              *(_fmt(agg[arch][m][j]) for m in METRIC_COLUMNS)])
        for w in self.warnings:
            buf.write(f"# warning: {w}\n")
        return buf.getvalue()

    def write_csv(self, path) -> None:
        atomic_write_bytes(path, self.to_csv().encode())


def _fmt(v: float) -> str:
    return f"{v:.12g}"
