"""audioinr benchmark: run workloads, print every metric, check every output.

    python3 benchmark/run.py --workload fit-kan --seed 1 --seconds 15 --trace 0
    python3 benchmark/run.py --workload all --seed 1

Each workload runs in fresh processes, one at a time, from this
checkout's ``src/``: ``SETUPS`` set-up processes write the seeded inputs
(their median wall time is ``setup_s``), then one measuring process runs
the operations.  BLAS gets at most ``nproc`` threads.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics, or with ``--trace 1``
the per-layer metrics.  Results with their environment, and the spans of
a traced run, are kept under ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")

sys.path.insert(0, HERE)
from spans import LAYER_METRICS  # noqa: E402
from stats import median  # noqa: E402

WORKLOADS = ("fit-kan", "compare-desk", "meta-kan", "reconstruct-long")
SETUPS = 3
# name -> unit; all lower-is-better except samples_per_s.
END_TO_END = {"setup_s": "s", "samples_per_s": "1/s", "op_s_p50": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {m.name: m.unit for m in LAYER_METRICS}
CHILD_TIMEOUT_S = 150


def _child_env() -> dict:
    threads = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads)
    return env


def _child(args: list[str], deadline: float) -> float:
    """Run worker.py to completion; returns its wall time.  Its stdout goes
    to our stderr so that our last stdout line stays the result."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), *args],
                            cwd=ROOT, env=_child_env(), stdout=sys.stderr)
    try:
        rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker {args[0]} timed out")
    if rc != 0:
        raise RuntimeError(f"worker {args[0]} exited with {rc}")
    return time.perf_counter() - t0


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    work = os.path.join(WORK, f"{name}-seed{seed}-{os.getpid()}")
    common = ["--workload", name, "--seed", str(seed)]
    try:
        setup_times = []
        for k in range(SETUPS):
            shutil.rmtree(work, ignore_errors=True)
            os.makedirs(work)
            setup_times.append(_child(["setup", *common, "--dir", work], deadline))
        out = os.path.join(WORK, f"{name}-seed{seed}-trace{int(trace)}.json")
        spans = os.path.join(WORK, f"{name}-seed{seed}-spans.json")
        _child(["measure", *common, "--dir", work, "--seconds", str(seconds),
                "--trace", str(int(trace)), "--out", out,
                *(["--spans", spans] if trace else [])], deadline)
        with open(out) as f:
            result = json.load(f)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["setup_s"] = median(setup_times)
    result["setup_samples"] = setup_times
    result["workload"], result["seed"] = name, seed
    with open(out, "w") as f:
        json.dump(result, f, indent=1)
    return result


def summary(result: dict, trace: bool) -> dict:
    """The contract line for one workload."""
    ops = result["ops"]
    failed = sum(not o["ok"] for o in ops)
    if trace:
        metrics = result["layers"]
        units = LAYER_UNITS
    else:
        metrics = {k: result[k] for k in END_TO_END}
        units = END_TO_END
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def report(result: dict, trace: bool) -> None:
    """Human-readable lines: every metric with its unit, and the environment."""
    ops = result["ops"]
    timed = [o for o in ops if not o["warmup"]]
    failed = sum(not o["ok"] for o in ops)
    kind = "render" if result["workload"] == "reconstruct-long" else "train"
    print(f"# {result['workload']} seed {result['seed']}: {len(timed)} timed ops "
          f"+ 1 warm-up, {failed} failed")
    print(f"setup_s {result['setup_s']:.4f} s (median of {len(result['setup_samples'])})")
    print(f"{kind}_samples_per_s {result['samples_per_s']:.1f} 1/s "
          f"({result['samples_per_op']} samples per op)")
    print(f"op_s_p50 {result['op_s_p50']:.4f} s (n={len(timed)}; too few ops for a tail)")
    print(f"peak_rss_mb {result['peak_rss_mb']:.1f} MB")
    for key, unit in (("final_loss", ""), ("psnr_db", " dB")):
        if key in result["quality"]:
            print(f"{key} {result['quality'][key]:.6g}{unit}")
    print(f"error_rate {failed / len(ops):.4g} ({failed}/{len(ops)})")
    if trace:
        for k, v in result["layers"].items():
            print(f"{k} {v:.6g} {LAYER_UNITS[k]}")
        overhead = result.get("trace_overhead")
        print("trace_overhead " + ("n/a" if overhead is None else f"{100 * overhead:+.1f} %")
              + " (traced vs untraced ops in this run)")
    print("env " + " ".join(f"{k}={v}" for k, v in result["env"].items()))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=("all", *WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "audioinr", "__init__.py")):
        print(f"error: no audioinr sources under {ROOT}/src", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {}
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
            report(result, bool(args.trace))
            lines[name] = summary(result, bool(args.trace))
    except (RuntimeError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if len(names) == 1:
        print(json.dumps(lines[names[0]]))
    else:
        print(json.dumps({
            "correct": all(s["correct"] for s in lines.values()),
            "attempted": sum(s["attempted"] for s in lines.values()),
            "failed": sum(s["failed"] for s in lines.values()),
            "metrics": {f"{n}/{k}": v for n, s in lines.items() for k, v in s["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
