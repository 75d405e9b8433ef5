"""Arithmetic shared by run.py and its worker processes.

Pure functions only: order statistics, unit conversions, and self time
over a list of spans.  MB means 2**20 bytes throughout.
"""

from __future__ import annotations

import statistics

BYTES_PER_MB = 2 ** 20
KIB_PER_MB = 2 ** 10


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def bytes_to_mb(n_bytes: float) -> float:
    return n_bytes / BYTES_PER_MB


def kib_to_mb(n_kib: float) -> float:
    """``resource.getrusage`` reports ru_maxrss in KiB on Linux."""
    return n_kib / KIB_PER_MB


def self_times(spans) -> list[float]:
    """Per span: its duration minus the durations of its direct children.

    ``spans`` is a sequence of mappings with ``start``, ``end``, ``paused``
    and ``parent`` (an index into the same sequence, or -1).  ``paused``
    is time the tracer spent on its own bookkeeping inside the span; it
    counts for neither the span nor its ancestors.
    """
    own = [s["end"] - s["start"] - s["paused"] for s in spans]
    out = list(own)
    for s, d in zip(spans, own):
        if s["parent"] >= 0:
            out[s["parent"]] -= d
    return out
