"""Command-line surface: fit, eval, compare, meta-train, reconstruct,
spectrogram, paramcount.

A flag left off keeps its config dataclass's default (``InrConfig``,
``trainer.TrainConfig``, ``fewsound.FewSoundConfig``); fixed seeds
make identical flag sets reproduce identical outputs.  Exit codes: 0
success, 1 usage error, 2 runtime failure (a MemoryError included).

Before a command that trains (fit, compare, meta-train), ``main`` sets
the process's allocator policy.  Each training step frees its tape
before the next forward, and with glibc's defaults much of that memory
goes back to the OS: large arrays are mappings of their own, unmapped
on free, and the top of the heap is trimmed.  The next step then faults
those pages in again.  So, where ``libc.so.6`` has ``mallopt``, ``main``
raises ``M_TRIM_THRESHOLD`` to 1 GiB and ``M_MMAP_THRESHOLD`` to 64 MiB,
and each step reuses the heap the last one freed.  The cost is that
resident memory stays at its high-water mark instead of shrinking
between steps.  Elsewhere it does nothing.  The other commands take no
steps and leave glibc's defaults: ``reconstruct``, which renders
without a tape, ran faster on average under the policy but its time
spread about twice as wide from one process to the next.  Importing
the package sets nothing; allocation does not change the arithmetic,
so outputs are the same either way.

``reconstruct`` renders its windows on one thread per usable CPU, with
numpy's OpenBLAS held to one thread while they run
(``fewsound.reconstruct_long``), so its output does not depend on the
BLAS thread count.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import sys

from . import fewsound, inr, metrics, trainer
from .inr import ARCHS, InrConfig
from .serialize import SerializationError, atomic_write_bytes, load_model, save_model
from .tensor import ContractError, DomainError, ShapeError
from .loss import StftResolution
from .wavio import AudioClip, WavError, prepare_dataset, resample, wav_read, wav_write


def _keep_freed_heap() -> None:
    """Keep freed memory in the heap for the next step (module docstring);
    a no-op where libc.so.6 or its mallopt is missing."""
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-1, 1 << 30)        # M_TRIM_THRESHOLD (malloc.h): 1 GiB
    mallopt(-3, 64 << 20)       # M_MMAP_THRESHOLD: 64 MiB


class UsageError(Exception):
    """Bad flags or arguments; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _int_list(text: str) -> tuple[int, ...]:
    try:
        vals = tuple(int(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if not vals:
        raise argparse.ArgumentTypeError(f"expected at least one integer, got {text!r}")
    return vals


def _add_inr_flags(p, with_arch: bool = True) -> None:
    g = p.add_argument_group("network")
    if with_arch:
        g.add_argument("--arch", choices=ARCHS, default="kan")
    g.add_argument("--layers", type=_int_list, dest="hidden", metavar="N,N,...",
                   help="hidden widths (default: per-architecture)")
    g.add_argument("--encoding-length", type=int)
    g.add_argument("--rff-features", type=int)
    g.add_argument("--rff-sigma", type=float)
    g.add_argument("--omega0", type=float)
    g.add_argument("--s0", type=float)
    g.add_argument("--finer-bias-bound", type=float)
    g.add_argument("--grid-size", type=int)
    g.add_argument("--spline-order", type=int)
    g.add_argument("--scale-spline", action=argparse.BooleanOptionalAction)
    g.add_argument("--seed", type=int)


def _add_loss_weight_flags(g) -> None:
    g.add_argument("--lambda-t", type=float, dest="lam_t", metavar="LAMBDA_T")
    g.add_argument("--lambda-f", type=float, dest="lam_f", metavar="LAMBDA_F")


def _add_train_flags(p) -> None:
    g = p.add_argument_group("training")
    g.add_argument("--steps", type=int)
    g.add_argument("--lr", type=float, help="default: 5e-3 for kan, 1e-4 otherwise")
    _add_loss_weight_flags(g)
    g.add_argument("--precision", choices=("float32", "float64"))
    g.add_argument("--weight-decay", type=float)
    g.add_argument("--n-mels", type=int)


def _config(cls, args, **fixed):
    """``cls`` built from the flags given on the command line, plus
    ``fixed``; a field whose flag was left off keeps its default."""
    given = vars(args)
    kwargs = {f.name: given[f.name] for f in dataclasses.fields(cls) if f.name in given}
    return cls(**{**kwargs, **fixed})


def _read_clip(path, sample_rate: int) -> AudioClip:
    return resample(wav_read(path), sample_rate)


def _print_metrics(values: dict[str, float]) -> None:
    for name in metrics.METRIC_COLUMNS:
        if name in values:
            print(f"{name}={values[name]:.12g}")


# -- subcommands -----------------------------------------------------------


def _cmd_fit(args) -> int:
    inr_cfg, train_cfg = _config(InrConfig, args), _config(trainer.TrainConfig, args)
    clip = _read_clip(args.clip, args.sample_rate)
    result = trainer.fit_inr(clip, inr_cfg, train_cfg)
    save_model(args.out, result.model)
    if args.trace is not None:
        lr = trainer.resolve_lr(train_cfg, inr_cfg.arch)
        lines = ["step,loss,lr"]
        lines += [f"{i},{v:.12g},{lr:.12g}" for i, v in enumerate(result.loss_trace)]
        atomic_write_bytes(args.trace, ("\n".join(lines) + "\n").encode())
    if args.report is not None:
        report = metrics.MetricsReport()
        vals = {m: result.metrics.get(m, float("nan")) for m in metrics.METRIC_COLUMNS}
        report.add(clip.source_id or "clip", inr_cfg.arch, inr.param_count(inr_cfg), vals)
        report.write_csv(args.report)
    print(f"saved {args.out} ({result.seconds:.1f}s, "
          f"final loss {result.loss_trace[-1]:.6g})")
    _print_metrics(result.metrics)
    return 0


def _cmd_eval(args) -> int:
    obj = load_model(args.model)
    if not isinstance(obj, inr.InrModel):
        raise ContractError(f"{args.model} holds a hypernetwork state; "
                            "eval expects a single-network model file")
    clip = _read_clip(args.clip, args.sample_rate)
    _print_metrics(trainer.evaluate(obj, clip))
    return 0


def _cmd_compare(args) -> int:
    archs = args.archs if args.archs is not None else list(ARCHS)
    for a in archs:
        if a not in ARCHS:
            raise UsageError(f"unknown architecture {a!r}; choose from {', '.join(ARCHS)}")
    configs = [_config(InrConfig, args, arch=a) for a in archs]
    report = trainer.compare_archs(args.dataset, configs,
                                   _config(trainer.TrainConfig, args), out_csv=args.out)
    print(f"wrote {args.out} ({len(report.rows)} fits)")
    for arch, agg in report.aggregate().items():
        cells = "  ".join(f"{m}={agg[m][0]:.4g}" for m in metrics.METRIC_COLUMNS)
        print(f"{arch}: {cells}")
    for w in report.warnings:
        print(f"warning: {w}", file=sys.stderr)
    return 0


def _cmd_meta_train(args) -> int:
    cfg = _config(fewsound.FewSoundConfig, args, target=_config(InrConfig, args))
    clips = prepare_dataset(args.dataset, cfg.window, seed=cfg.seed, target_sr=cfg.sample_rate)
    state, trace = fewsound.meta_train(clips, cfg)
    save_model(args.out, state)
    print(f"saved {args.out} (epoch loss {trace[0]:.6g} -> {trace[-1]:.6g})")
    return 0


def _cmd_reconstruct(args) -> int:
    state = load_model(args.state)
    if not isinstance(state, fewsound.FewSoundState):
        raise ContractError(f"{args.state} holds a single-network model; "
                            "reconstruct expects a hypernetwork state file")
    sr = state.config.sample_rate
    clip = _read_clip(args.clip, sr)
    out = fewsound.reconstruct_long(state, clip.samples)
    wav_write(args.out, AudioClip(sr, out, clip.source_id), pcm16=args.pcm16)
    print(f"wrote {args.out} ({out.size} samples at {sr} Hz)")
    return 0


def _cmd_spectrogram(args) -> int:
    clip = _read_clip(args.clip, args.sample_rate)
    res = StftResolution(args.fft, args.hop, args.window)
    csv_path, pgm_path = metrics.spectrogram_export(clip.samples, args.out, res)
    print(f"wrote {csv_path} and {pgm_path}")
    return 0


def _cmd_paramcount(args) -> int:
    print(inr.param_count(_config(InrConfig, args)))
    return 0


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="audioinr",
                     description="Fit and evaluate neural representations of audio.")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("fit", help="fit one network to one WAV clip",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("clip", help="input WAV path")
    p.add_argument("--out", required=True, help="output model file")
    p.add_argument("--sample-rate", type=int, default=22050)
    p.add_argument("--report", default=None, help="optional metrics CSV path")
    p.add_argument("--trace", default=None, help="optional loss-trace CSV path")
    _add_inr_flags(p)
    _add_train_flags(p)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("eval", help="compute metrics for a saved model on a clip")
    p.add_argument("model", help="model file from fit")
    p.add_argument("clip", help="input WAV path")
    p.add_argument("--sample-rate", type=int, default=22050)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("compare", help="fit all architectures over a WAV directory",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("dataset", help="directory of WAV files")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--archs", type=lambda s: [v.strip() for v in s.split(",") if v.strip()],
                   default=None, metavar="A,B,...",
                   help=f"subset of: {', '.join(ARCHS)} (default: all)")
    _add_inr_flags(p, with_arch=False)
    _add_train_flags(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("meta-train", help="train the hypernetwork system on a dataset",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("dataset", help="directory of WAV files")
    p.add_argument("--out", required=True, help="output state file")
    p.add_argument("--window", type=int)
    p.add_argument("--sample-rate", type=int)
    p.add_argument("--embed-dim", type=int)
    p.add_argument("--conv0-channels", type=int)
    p.add_argument("--encoder-channels", type=_int_list, metavar="N,N,...")
    p.add_argument("--weight-enc-hidden", type=int)
    p.add_argument("--hyper-hidden", type=_int_list, metavar="N,N,...")
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float, help="default: 1e-6 for a siren target, 1e-5 otherwise")
    _add_loss_weight_flags(p)
    p.add_argument("--batch-size", type=int)
    _add_inr_flags(p)
    p.set_defaults(func=_cmd_meta_train)

    p = sub.add_parser("reconstruct", help="render a WAV through a trained state")
    p.add_argument("state", help="state file from meta-train")
    p.add_argument("clip", help="input WAV path")
    p.add_argument("--out", required=True, help="output WAV path")
    p.add_argument("--pcm16", action="store_true", help="write PCM-16 instead of float-32")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("spectrogram", help="export dB spectrogram as CSV and PGM")
    p.add_argument("clip", help="input WAV path")
    p.add_argument("--out", required=True, help="output path stem")
    p.add_argument("--sample-rate", type=int, default=22050)
    res = metrics.DEFAULT_METRIC_RES
    p.add_argument("--fft", type=int, default=res.fft_size)
    p.add_argument("--hop", type=int, default=res.hop_size)
    p.add_argument("--window", type=int, default=res.window_size)
    p.set_defaults(func=_cmd_spectrogram)

    p = sub.add_parser("paramcount", help="print the parameter count of a config",
                       argument_default=argparse.SUPPRESS)
    _add_inr_flags(p)
    p.set_defaults(func=_cmd_paramcount)

    return parser


_TRAINING_COMMANDS = (_cmd_fit, _cmd_compare, _cmd_meta_train)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            parser.print_help()
            return 1
        if args.func in _TRAINING_COMMANDS:
            _keep_freed_heap()
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (ContractError, DomainError, ShapeError, WavError, SerializationError,
            OSError, ValueError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
