"""Spans around calls into audioinr's public functions, for the traced run.

The package is treated as a black box: ``install`` replaces selected
public functions with wrappers that record a span (name, start, end,
parent, operation id) plus a few counters, then call the original.  A
function imported by name into another audioinr module is replaced there
too, so ``inr.spline_bases`` is traced like ``bspline.spline_bases``.

Spans are kept in memory and written out once at the end of the run.
The per-layer metrics of the benchmark are computed from them here.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from dataclasses import dataclass

from stats import bytes_to_mb, median, self_times


class Tracer:
    """In-memory span recorder.  Records only while an operation is open
    and ``enabled`` is true, so checks and input loading leave no spans."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.op = None
        self.enabled = True
        self.op_paused = 0.0

    @property
    def recording(self) -> bool:
        return self.op is not None and self.enabled

    def start_op(self, op_id, enabled: bool = True) -> None:
        self.op, self.enabled, self.op_paused, self.stack = op_id, enabled, 0.0, []

    def end_op(self) -> float:
        """Close the operation; returns bookkeeping time to take off its
        wall time."""
        paused = self.op_paused
        self.op = None
        return paused

    def begin(self, name: str, counts: dict | None = None) -> int:
        self.spans.append({"name": name, "op": self.op, "start": self.clock(), "end": None,
                           "paused": 0.0, "parent": self.stack[-1] if self.stack else -1,
                           "counts": counts or {}})
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def end(self, idx: int) -> None:
        self.spans[idx]["end"] = self.clock()
        self.stack.pop()

    def pause(self, seconds: float) -> None:
        """Charge bookkeeping time to no span and not to the operation."""
        for idx in self.stack:
            self.spans[idx]["paused"] += seconds
        self.op_paused += seconds


def wrap(tracer: Tracer, name: str, fn, before=None, after=None):
    """``fn`` inside a span.  ``before(*args, **kwargs)`` and
    ``after(result, *args, **kwargs)`` return counters for the span; the
    time they take is paused, not charged to any layer."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.recording:
            return fn(*args, **kwargs)
        counts = {}
        if before is not None:
            t0 = tracer.clock()
            counts = before(*args, **kwargs)
            tracer.pause(tracer.clock() - t0)
        idx = tracer.begin(name, counts)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if after is not None:
            t0 = tracer.clock()
            tracer.spans[idx]["counts"].update(after(result, *args, **kwargs))
            tracer.pause(tracer.clock() - t0)
        return result

    return traced


# -- counters -------------------------------------------------------------


def _graph_counts(loss, *args, **kwargs) -> dict:
    """Tape nodes reachable from the loss and the bytes their values hold."""
    seen = {id(loss)}
    stack = [loss]
    n_bytes = 0
    while stack:
        node = stack.pop()
        n_bytes += getattr(getattr(node, "data", None), "nbytes", 0)
        for parent in getattr(node, "_parents", ()):
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return {"nodes": len(seen), "graph_bytes": n_bytes}


def _points(x, *args, **kwargs) -> dict:
    return {"points": int(getattr(x, "size", 0))}


def _adamw_params(opt, *args, **kwargs) -> dict:
    return {"params": sum(p.data.size for _, p in getattr(opt, "named_params", ()))}


def _model_bytes(path, *args, **kwargs) -> dict:
    return {"model_bytes": os.path.getsize(path)}


def _windows(starts, *args, **kwargs) -> dict:
    return {"windows": len(starts)}


def _overlap_bytes(result, *args, **kwargs) -> dict:
    return {"overlap_bytes": int(getattr(result[1], "nbytes", 0))}


# -- installing the wrappers ---------------------------------------------------

# (module, attribute, span name, before, after); a dotted attribute names a method.
TARGETS = (
    ("tensor", "backward", "tensor.backward", _graph_counts, None),
    ("bspline", "spline_bases", "bspline.spline_bases", _points, None),
    ("inr", "build", "inr.build", None, None),
    ("inr", "forward", "inr.forward", None, None),
    ("inr", "forward_from_flat", "inr.forward_from_flat", None, None),
    ("loss", "make_combined_loss", "loss.build", None, None),
    ("optim", "AdamW.step", "optim.step", _adamw_params, None),
    ("trainer", "fit_inr", "trainer.fit_inr", None, None),
    ("trainer", "compare_archs", "trainer.compare_archs", None, None),
    ("metrics", "mse_psnr", "metrics.mse_psnr", None, None),
    ("metrics", "lsd", "metrics.lsd", None, None),
    ("metrics", "si_snr", "metrics.si_snr", None, None),
    ("metrics", "spectral_wasserstein", "metrics.spectral_wasserstein", None, None),
    ("fewsound", "meta_train", "fewsound.meta_train", None, None),
    ("fewsound", "encode_audio", "fewsound.encode_audio", None, None),
    ("fewsound", "encode_weights", "fewsound.encode_weights", None, None),
    ("fewsound", "predict_update", "fewsound.predict_update", None, None),
    ("fewsound", "adapt", "fewsound.adapt", None, None),
    ("fewsound", "reconstruct_long", "fewsound.reconstruct_long", None, None),
    ("fewsound", "window_plan", "fewsound.window_plan", None, _windows),
    ("fewsound", "overlap_add_weights", "fewsound.overlap_add_weights", None, _overlap_bytes),
    ("serialize", "load_model", "serialize.load_model", _model_bytes, None),
    ("serialize", "save_model", "serialize.save_model", None, None),
    ("wavio", "wav_read", "wavio.wav_read", None, None),
    ("wavio", "wav_write", "wavio.wav_write", None, None),
    ("wavio", "resample", "wavio.resample", None, None),
)


MODULES = ("tensor", "bspline", "inr", "loss", "optim", "trainer", "metrics", "fewsound",
           "serialize", "wavio", "cli")


def install(tracer: Tracer, package: str = "audioinr") -> list[tuple]:
    """Wrap every target, in its own module and wherever it was imported
    by name.  ``make_combined_loss`` also wraps the closure it returns, so
    each loss evaluation is a ``loss.eval`` span.  Returns the replaced
    (owner, name, original) triples for ``uninstall``."""
    modules = {m: importlib.import_module(f"{package}.{m}") for m in MODULES}
    replaced = []
    for mod_name, attr, span, before, after in TARGETS:
        cls_name, _, attr = attr.rpartition(".")
        if cls_name:
            cls = getattr(modules[mod_name], cls_name)
            replaced.append((cls, attr, getattr(cls, attr)))
            setattr(cls, attr, wrap(tracer, span, getattr(cls, attr), before, after))
            continue
        original = getattr(modules[mod_name], attr)
        if span == "loss.build":
            traced = wrap(tracer, span, _wrap_returned(tracer, original))
        else:
            traced = wrap(tracer, span, original, before, after)
        for m in modules.values():
            for name, value in list(vars(m).items()):
                if value is original:
                    replaced.append((m, name, original))
                    setattr(m, name, traced)
    return replaced


def uninstall(replaced: list[tuple]) -> None:
    for owner, name, original in reversed(replaced):
        setattr(owner, name, original)


def _wrap_returned(tracer: Tracer, make_loss):
    @functools.wraps(make_loss)
    def build(*args, **kwargs):
        return wrap(tracer, "loss.eval", make_loss(*args, **kwargs))
    return build


# -- per-layer metrics ---------------------------------------------------------


@dataclass(frozen=True)
class LayerMetric:
    """One per-layer metric: ``stat`` is ``self`` (self time, s), ``calls``,
    or ``sum``/``max`` of a span counter; ``source`` is ``op`` (median over
    traced operations) or ``setup`` (the traced set-up pass)."""
    name: str
    unit: str
    spans: tuple[str, ...]
    stat: str
    counter: str = ""
    source: str = "op"


_FWD = ("inr.forward", "inr.forward_from_flat")
_METRICS = ("metrics.mse_psnr", "metrics.lsd", "metrics.si_snr", "metrics.spectral_wasserstein")

LAYER_METRICS = (
    LayerMetric("tensor.backward_s", "s", ("tensor.backward",), "self"),
    LayerMetric("tensor.backward_calls", "count", ("tensor.backward",), "calls"),
    LayerMetric("tensor.nodes", "count", ("tensor.backward",), "sum", "nodes"),
    LayerMetric("tensor.graph_mb", "MB", ("tensor.backward",), "max", "graph_bytes"),
    LayerMetric("bspline.spline_bases_s", "s", ("bspline.spline_bases",), "self"),
    LayerMetric("bspline.spline_bases_calls", "count", ("bspline.spline_bases",), "calls"),
    LayerMetric("bspline.points", "count", ("bspline.spline_bases",), "sum", "points"),
    LayerMetric("inr.forward_s", "s", _FWD, "self"),
    LayerMetric("inr.forward_calls", "count", _FWD, "calls"),
    LayerMetric("inr.build_s", "s", ("inr.build",), "self"),
    LayerMetric("inr.build_calls", "count", ("inr.build",), "calls"),
    LayerMetric("loss.eval_s", "s", ("loss.eval",), "self"),
    LayerMetric("loss.eval_calls", "count", ("loss.eval",), "calls"),
    LayerMetric("loss.build_s", "s", ("loss.build",), "self"),
    LayerMetric("optim.step_s", "s", ("optim.step",), "self"),
    LayerMetric("optim.params", "count", ("optim.step",), "max", "params"),
    LayerMetric("trainer.fit_s", "s", ("trainer.fit_inr", "trainer.compare_archs"), "self"),
    LayerMetric("trainer.fits", "count", ("trainer.fit_inr",), "calls"),
    LayerMetric("metrics.eval_s", "s", _METRICS, "self"),
    LayerMetric("fewsound.meta_train_s", "s", ("fewsound.meta_train",), "self"),
    LayerMetric("fewsound.encode_audio_s", "s", ("fewsound.encode_audio",), "self"),
    LayerMetric("fewsound.encode_audio_calls", "count", ("fewsound.encode_audio",), "calls"),
    LayerMetric("fewsound.encode_weights_s", "s", ("fewsound.encode_weights",), "self"),
    LayerMetric("fewsound.encode_weights_calls", "count", ("fewsound.encode_weights",), "calls"),
    LayerMetric("fewsound.predict_update_s", "s", ("fewsound.predict_update",), "self"),
    LayerMetric("fewsound.reconstruct_s", "s", ("fewsound.reconstruct_long", "fewsound.adapt"),
                "self"),
    LayerMetric("fewsound.windows", "count", ("fewsound.window_plan",), "sum", "windows"),
    LayerMetric("fewsound.overlap_add_s", "s",
                ("fewsound.overlap_add_weights", "fewsound.window_plan"), "self"),
    LayerMetric("fewsound.overlap_add_mb", "MB", ("fewsound.overlap_add_weights",), "max",
                "overlap_bytes"),
    LayerMetric("serialize.load_model_s", "s", ("serialize.load_model",), "self"),
    LayerMetric("serialize.model_mb", "MB", ("serialize.load_model",), "max", "model_bytes"),
    LayerMetric("serialize.save_model_s", "s", ("serialize.save_model",), "self", source="setup"),
    LayerMetric("wavio.wav_read_s", "s", ("wavio.wav_read",), "self"),
    LayerMetric("wavio.resample_s", "s", ("wavio.resample",), "self"),
    LayerMetric("wavio.wav_write_s", "s", ("wavio.wav_write",), "self"),
)


def _value(metric: LayerMetric, spans: list[dict], selfs: list[float]) -> float:
    picked = [i for i, s in enumerate(spans) if s["name"] in metric.spans]
    if metric.stat == "self":
        return sum(selfs[i] for i in picked)
    if metric.stat == "calls":
        return float(len(picked))
    counts = [spans[i]["counts"].get(metric.counter, 0) for i in picked]
    total = sum(counts) if metric.stat == "sum" else max(counts, default=0)
    return bytes_to_mb(total) if metric.unit == "MB" else float(total)


def layer_metrics(spans: list[dict], timed_ops) -> dict[str, float]:
    """Each metric's median over the timed operations (or its value in the
    set-up pass); an idle layer reads 0."""
    selfs = self_times(spans)
    by_op: dict = {}
    for i, s in enumerate(spans):
        by_op.setdefault(s["op"], []).append(i)
    out = {}
    for metric in LAYER_METRICS:
        ops = ["setup"] if metric.source == "setup" else list(timed_ops)
        values = []
        for op in ops:
            idx = by_op.get(op, [])
            values.append(_value(metric, [spans[i] for i in idx], [selfs[i] for i in idx]))
        out[metric.name] = median(values) if values else 0.0
    return out
