"""Tests of the benchmark's own arithmetic and a tiny pass of every workload.

    python3 -m pytest benchmark/test_benchmark.py
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import spans as sp  # noqa: E402
import stats  # noqa: E402
import worker  # noqa: E402

worker.import_checkout_package()
import workloads as wls  # noqa: E402
from audioinr import optim  # noqa: E402
from audioinr import tensor as T  # noqa: E402


def _span(name, start, end, parent=-1, op=1, paused=0.0, counts=None):
    return {"name": name, "start": start, "end": end, "parent": parent, "op": op,
            "paused": paused, "counts": counts or {}}


# -- arithmetic -------------------------------------------------------------------


def test_self_time_nested_and_back_to_back_children():
    spans = [
        _span("a", 0.0, 10.0),
        _span("b", 1.0, 3.0, parent=0),           # back-to-back with c
        _span("c", 3.0, 6.0, parent=0),
        _span("d", 1.5, 2.5, parent=1),           # nested two deep
    ]
    assert stats.self_times(spans) == pytest.approx([5.0, 1.0, 3.0, 1.0])


def test_self_time_excludes_paused_bookkeeping():
    # 0.5 s of counting inside d is charged to nobody, at any depth.
    spans = [_span("a", 0.0, 10.0, paused=0.5), _span("d", 1.0, 3.0, parent=0, paused=0.5)]
    assert stats.self_times(spans) == pytest.approx([8.0, 1.5])


def test_median_matches_statistics():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0]
    assert stats.median(values) == statistics.median(values)
    assert stats.median([7]) == 7.0
    with pytest.raises(ValueError):
        stats.median([])


def test_unit_conversions():
    assert stats.bytes_to_mb(2 ** 20) == 1.0
    assert stats.bytes_to_mb(3 * 2 ** 19) == 1.5
    assert stats.kib_to_mb(1024) == 1.0
    assert stats.kib_to_mb(512) == 0.5


class _Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_tracer_records_parents_only_inside_an_open_op():
    clock = _Clock()
    tracer = sp.Tracer(clock)

    def inner(x):
        clock.t += 1.0
        return x

    def outer(x):
        clock.t += 2.0
        return traced_inner(x) + traced_inner(x)

    traced_inner = sp.wrap(tracer, "inner", inner,
                           after=lambda result, x: {"points": x})
    traced_outer = sp.wrap(tracer, "outer", outer)
    assert traced_outer(3) == 6 and tracer.spans == []      # no op open
    tracer.start_op(7)
    traced_outer(3)
    assert tracer.end_op() == 0.0
    names = [(s["name"], s["parent"], s["op"]) for s in tracer.spans]
    assert names == [("outer", -1, 7), ("inner", 0, 7), ("inner", 0, 7)]
    assert stats.self_times(tracer.spans) == pytest.approx([2.0, 1.0, 1.0])
    assert tracer.spans[1]["counts"] == {"points": 3}
    tracer.start_op(8, enabled=False)
    traced_outer(3)
    tracer.end_op()
    assert len(tracer.spans) == 3


def test_layer_metrics_take_the_median_over_operations():
    spans = [
        _span("tensor.backward", 0.0, 2.0, op=1, counts={"nodes": 10, "graph_bytes": 2 ** 20}),
        _span("tensor.backward", 2.0, 3.0, op=1, counts={"nodes": 12, "graph_bytes": 2 ** 21}),
        _span("tensor.backward", 0.0, 4.0, op=3, counts={"nodes": 12, "graph_bytes": 2 ** 21}),
        _span("tensor.backward", 0.0, 9.0, op=5, counts={"nodes": 12, "graph_bytes": 2 ** 21}),
        _span("serialize.save_model", 0.0, 0.25, op="setup"),
        _span("serialize.save_model", 0.0, 5.0, op=1),
    ]
    m = sp.layer_metrics(spans, [1, 3, 5])
    assert m["tensor.backward_s"] == 4.0           # ops read 3, 4 and 9 s
    assert m["tensor.backward_calls"] == 1.0       # ops read 2, 1 and 1 calls
    assert m["tensor.nodes"] == 12.0               # ops read 22, 12 and 12 nodes
    assert m["tensor.graph_mb"] == 2.0
    assert m["serialize.save_model_s"] == 0.25     # from the set-up pass
    assert m["bspline.spline_bases_s"] == 0.0      # idle layer
    assert set(m) == {x.name for x in sp.LAYER_METRICS}


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS) == list(wls.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        [(m.name, m.unit) for m in sp.LAYER_METRICS]


# -- workloads at a tiny size ---------------------------------------------------------

_TINY_FEWSOUND = dict(embed_dim=4, conv0_channels=2, encoder_channels=(2, 2, 2, 2),
                      weight_enc_hidden=4, hyper_hidden=(4,))
TINY = {
    "fit-kan": lambda: wls.FitKan(n=2048, steps=1, hidden=(4,)),
    "compare-desk": lambda: wls.CompareDesk(n=2048, clips=1, steps=1, hidden=(8,)),
    "meta-kan": lambda: wls.MetaKan(window=2048, clips=1, hidden=(4,),
                                    **_TINY_FEWSOUND),
    "reconstruct-long": lambda: wls.ReconstructLong(seconds=0.25, window=1024, hidden=(8,),
                                                    **_TINY_FEWSOUND),
}
# A layer each workload must load in the traced run, and one it must leave idle.
BUSY_IDLE = {
    "fit-kan": ("bspline.spline_bases_calls", "fewsound.windows"),
    "compare-desk": ("trainer.fits", "fewsound.encode_audio_calls"),
    "meta-kan": ("optim.params", "trainer.fits"),
    "reconstruct-long": ("fewsound.windows", "tensor.backward_calls"),
}


@pytest.mark.parametrize("name", list(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload_passes_its_checks(name, trace, tmp_path):
    wl = TINY[name]()
    wl.setup(3, str(tmp_path))
    result, spans = worker.measure(wl, 3, str(tmp_path), 0.0, trace, str(tmp_path))
    assert [o["ok"] for o in result["ops"]] == [True, True], result["ops"]
    assert result["op_s_p50"] > 0 and result["samples_per_s"] > 0
    assert result["peak_rss_mb"] > 0
    if trace:
        busy, idle = BUSY_IDLE[name]
        assert result["layers"][busy] > 0 and result["layers"][idle] == 0
        assert {s["op"] for s in spans} <= {"setup", 1}
    else:
        assert spans == []


def test_a_wrong_output_fails_its_check(tmp_path):
    wl = TINY["fit-kan"]()
    wl.setup(3, str(tmp_path))
    inputs = wl.load(str(tmp_path))
    out = wl.op(inputs, str(tmp_path))
    assert wl.check(out, inputs) == []
    inputs["loss0"] *= 1.0 + 1e-6
    assert wl.check(out, inputs) != []


@pytest.mark.parametrize("name", ["fit-kan", "meta-kan"])
def test_a_skipped_backward_or_step_fails_the_check(name, tmp_path, monkeypatch):
    wl = TINY[name]()
    wl.setup(3, str(tmp_path))
    inputs = wl.load(str(tmp_path))
    with monkeypatch.context() as m:
        m.setattr(T, "backward", lambda loss, leaves=None: None)
        assert wl.check(wl.op(inputs, str(tmp_path)), inputs) != []
    with monkeypatch.context() as m:
        m.setattr(optim.AdamW, "step", lambda self, lr=None: None)
        assert wl.check(wl.op(inputs, str(tmp_path)), inputs) != []
    assert wl.check(wl.op(inputs, str(tmp_path)), inputs) == []


@pytest.mark.parametrize("name", ["fit-kan", "meta-kan"])
def test_a_wrong_gradient_fails_the_load(name, tmp_path, monkeypatch):
    wl = TINY[name]()
    wl.setup(3, str(tmp_path))
    backward = T.backward

    def off_by_a_percent(loss, leaves=None):
        grads = backward(loss, leaves)
        for leaf in leaves:
            leaf.grad = leaf.grad * 1.01
        return grads

    monkeypatch.setattr(T, "backward", off_by_a_percent)
    with pytest.raises(RuntimeError, match="central difference"):
        wl.load(str(tmp_path))


class _Failing:
    """Raises on every operation, or returns a value its check rejects."""
    samples_per_op = 10

    def __init__(self, raises: bool):
        self.raises = raises

    def setup(self, seed, directory):
        pass

    def load(self, directory):
        return {}

    def op(self, inputs, scratch):
        if self.raises:
            raise RuntimeError("boom")
        return 3

    def check(self, out, inputs):
        return ["wrong"]

    def quality(self, out):
        return {}


@pytest.mark.parametrize("raises", [True, False])
def test_failed_operations_are_counted_and_the_run_finishes(raises, tmp_path):
    result, _ = worker.measure(_Failing(raises), 0, str(tmp_path), 0.0, False, str(tmp_path))
    assert [o["ok"] for o in result["ops"]] == [False, False]
    assert ("boom" in result["ops"][1]["problems"][0]) == raises
    assert result["op_s_p50"] > 0 and result["samples_per_s"] > 0
    line = run.summary(dict(result, setup_s=1.0), trace=False)
    assert (line["correct"], line["attempted"], line["failed"]) == (False, 2, 2)
    assert set(line["metrics"]) == set(run.END_TO_END)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "benchmark/run.py", "--workload", "fit-kan",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
