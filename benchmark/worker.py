"""One benchmark process: write a workload's inputs, or measure it.

    python3 benchmark/worker.py setup   --workload W --seed N --dir D
    python3 benchmark/worker.py measure --workload W --seed N --dir D \
        --seconds S --trace 0|1 --out result.json [--spans spans.json]

``run.py`` starts these; run them by hand only to debug one workload.
``measure`` runs one warm-up operation, then operations until ``--seconds``
have passed, checks every output, and writes per-operation timings, the
peak RSS, quality figures and (traced) the per-layer metrics to ``--out``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def import_checkout_package():
    """Import audioinr from this checkout's src/, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "audioinr", "__init__.py")):
        raise SystemExit(f"error: no audioinr sources under {src}")
    sys.path.insert(0, src)
    import audioinr
    if os.path.dirname(os.path.dirname(os.path.abspath(audioinr.__file__))) != src:
        raise SystemExit(f"error: audioinr imported from {audioinr.__file__}, not {src}")


def environment() -> dict:
    """Versions, BLAS build and the thread count actually in use."""
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_name": blas.get("name"),
            "blas_version": blas.get("version"),
            "blas_config": blas.get("openblas configuration"),
            "blas_threads": _blas_threads(), "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu}


def _blas_threads():
    """Ask the loaded OpenBLAS for its thread count; None if there is none."""
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def measure(wl, seed: int, directory: str, seconds: float, trace: bool,
            scratch: str) -> tuple[dict, list[dict]]:
    """Run ``wl`` for ``seconds`` after one warm-up; returns (result, spans).

    In a traced run the timed operations alternate traced and untraced,
    so the run reports the tracing overhead against itself.  A traced
    set-up pass into ``scratch`` gives the set-up spans.
    """
    import spans as sp
    import stats

    tracer = sp.Tracer() if trace else None
    replaced = sp.install(tracer) if trace else []
    try:
        if tracer is not None:
            tracer.start_op("setup")
            wl.setup(seed, os.path.join(scratch, "traced-setup"))
            tracer.end_op()
        inputs = wl.load(directory)
        ops = [_one_op(wl, inputs, scratch, 0, tracer, False)]       # warm-up
        started = time.perf_counter()
        while len(ops) < 2 or time.perf_counter() - started < seconds:
            traced = tracer is not None and len(ops) % 2 == 1
            ops.append(_one_op(wl, inputs, scratch, len(ops), tracer, traced))
    finally:
        sp.uninstall(replaced)

    timed = [o for o in ops if not o["warmup"]]
    result = {
        "ops": ops,
        "samples_per_op": wl.samples_per_op,
        "peak_rss_mb": stats.kib_to_mb(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss),
    }
    quality: dict[str, list[float]] = {}
    for o in ops:
        for k, v in o["quality"].items():
            quality.setdefault(k, []).append(v)
    result["quality"] = {k: stats.median(v) for k, v in quality.items()}
    plain = [o["seconds"] for o in timed if not o["traced"]] or [o["seconds"] for o in timed]
    result["op_s_p50"] = stats.median(plain)
    result["samples_per_s"] = wl.samples_per_op * len(plain) / sum(plain)
    if tracer is None:
        return result, []
    traced_ids = [o["id"] for o in timed if o["traced"]]
    result["layers"] = sp.layer_metrics(tracer.spans, traced_ids)
    with_trace = [o["seconds"] for o in timed if o["traced"]]
    without = [o["seconds"] for o in timed if not o["traced"]]
    result["trace_overhead"] = (stats.median(with_trace) / stats.median(without) - 1.0
                                if with_trace and without else None)
    return result, tracer.spans


def _one_op(wl, inputs, scratch, op_id, tracer, traced) -> dict:
    gc.collect()
    if tracer is not None:
        tracer.start_op(op_id, enabled=traced)
    out, problems = None, []
    t0 = time.perf_counter()
    try:
        out = wl.op(inputs, scratch)
    except Exception as e:            # a failed operation is counted, not fatal
        traceback.print_exc()
        problems = [f"raised {e!r}"]
    seconds = time.perf_counter() - t0 - (tracer.end_op() if tracer is not None else 0.0)
    quality = {}
    if not problems:
        try:
            problems = wl.check(out, inputs)
            quality = wl.quality(out) if not problems else {}
        except Exception as e:
            traceback.print_exc()
            problems = [f"check raised {e!r}"]
    for p in problems:
        print(f"op {op_id} failed: {p}", file=sys.stderr)
    return {"id": op_id, "warmup": op_id == 0, "traced": traced, "seconds": seconds,
            "ok": not problems, "problems": problems, "quality": quality}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "measure"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    import_checkout_package()
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload]()
    if args.mode == "setup":
        wl.setup(args.seed, args.dir)
        return 0
    scratch = os.path.join(args.dir, "scratch")
    os.makedirs(scratch, exist_ok=True)
    result, spans = measure(wl, args.seed, args.dir, args.seconds, bool(args.trace), scratch)
    result["env"] = environment()
    with open(args.out, "w") as f:
        json.dump(result, f)
    if args.spans:
        with open(args.spans, "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed, "spans": spans}, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
