"""Single-clip fitting loop and the multi-architecture comparison harness.

Fitting is full batch: every step evaluates the network on one time
point per sample, uniformly spaced over [-1,1], and takes one AdamW
step (``optim.run_steps``) on the combined loss at constant learning
rate; ``evaluate`` then scores the fit, rendering in the parameters'
dtype.  The comparison
harness fits every (clip, architecture) pair independently and reports
per-architecture mean and standard deviation of each metric.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import tensor as T
from .tensor import Tensor, ContractError
from . import inr
from .inr import InrConfig, InrModel
from .loss import DEFAULT_RESOLUTIONS, StftResolution, make_combined_loss
from . import metrics as M
from .optim import AdamW, run_steps
from .wavio import AudioClip, WavError, wav_paths, wav_read

DEFAULT_KAN_LR = 5e-3
DEFAULT_MLP_LR = 1e-4


@dataclass
class TrainConfig:
    steps: int = 10000
    lr: float | None = None                  # per-arch default when None
    lam_t: float = 1.0
    lam_f: float = 1.0
    precision: str = "float64"
    weight_decay: float = 0.01
    resolutions: tuple = DEFAULT_RESOLUTIONS
    n_mels: int = 80
    metric_res: StftResolution = M.DEFAULT_METRIC_RES

    def __post_init__(self):
        if self.steps < 1:
            raise ContractError(f"steps must be >= 1, got {self.steps}")
        if self.lr is not None and not (math.isfinite(self.lr) and self.lr > 0):
            raise ContractError(f"lr must be positive and finite, got {self.lr}")
        if self.precision not in ("float32", "float64"):
            raise ContractError(f"precision must be float32 or float64, "
                                f"got {self.precision!r}")
        for name in ("lam_t", "lam_f", "weight_decay"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise ContractError(f"{name} must be finite and >= 0, got {v}")


@dataclass
class FitResult:
    model: InrModel
    loss_trace: np.ndarray = field(repr=False)
    metrics: dict[str, float]
    seconds: float


def resolve_lr(train_config: TrainConfig, arch: str) -> float:
    if train_config.lr is not None:
        return train_config.lr
    return DEFAULT_KAN_LR if arch == "kan" else DEFAULT_MLP_LR


def fit_inr(clip: AudioClip, inr_config: InrConfig, train_config: TrainConfig) -> FitResult:
    """Fit one network to one clip; deterministic for fixed config seeds."""
    x = clip.samples
    if x.size == 0:
        raise ContractError("empty clip")
    started = time.monotonic()
    with T.default_dtype(train_config.precision):
        model = inr.build(inr_config)
        times = Tensor(np.linspace(-1.0, 1.0, x.size).astype(T.get_default_dtype()))
        loss_fn = make_combined_loss(x, train_config.lam_t, train_config.lam_f,
                                     train_config.resolutions, clip.sample_rate,
                                     train_config.n_mels)
        opt = AdamW(model.named_params(), lr=resolve_lr(train_config, inr_config.arch),
                    weight_decay=train_config.weight_decay)
        trace = run_steps(opt, lambda step: loss_fn(model.forward(times)),
                          train_config.steps)
    return FitResult(model, trace, evaluate(model, clip, train_config.metric_res),
                     time.monotonic() - started)


def evaluate(model: InrModel, clip: AudioClip,
             metric_res: StftResolution = M.DEFAULT_METRIC_RES) -> dict[str, float]:
    """Render the model over the clip's [-1,1] time grid, in its parameters'
    dtype, and compute metrics."""
    if clip.samples.size == 0:
        raise ContractError("empty clip")
    times = np.linspace(-1.0, 1.0, clip.samples.size).astype(model.params[0].data.dtype)
    with T.no_grad():
        pred = model.forward(times).data.astype(np.float64)
    return M.compute_all(clip.samples, pred, metric_res)


def compare_archs(dataset, configs: Sequence[InrConfig], train_config: TrainConfig,
                  out_csv=None) -> M.MetricsReport:
    """Fit every (clip, config) pair; aggregate per arch; optionally write CSV.

    ``dataset`` is a directory of WAV files (read in sorted path order)
    or a list of AudioClips.  Unreadable files are skipped with a
    warning recorded in the report.
    """
    report = M.MetricsReport()
    clips: list[AudioClip] = []
    if isinstance(dataset, (str, bytes)) or hasattr(dataset, "__fspath__"):
        for p in wav_paths(dataset):
            try:
                clips.append(wav_read(p))
            except (WavError, OSError) as e:
                report.warn(f"skipped {p}: {e}")
        if not clips:
            raise ContractError(f"no readable clips in {dataset!r}")
    else:
        clips = list(dataset)
        if not clips:
            raise ContractError("empty dataset")

    for cfg in configs:
        count = inr.param_count(cfg)
        for clip in clips:
            result = fit_inr(clip, cfg, train_config)
            vals = {m: result.metrics.get(m, float("nan")) for m in M.METRIC_COLUMNS}
            missing = [m for m in M.METRIC_COLUMNS if m not in result.metrics]
            if missing:
                report.warn(f"{clip.source_id}/{cfg.arch}: metrics {missing} undefined")
            report.add(clip.source_id or "clip", cfg.arch, count, vals)
    if out_csv is not None:
        report.write_csv(out_csv)
    return report
