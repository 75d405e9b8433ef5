"""Traced memory of one call, for the tests that bound what a layer or a
reader holds and what it allocates at its peak."""

import tracemalloc


def traced(fn, *args, **kwargs):
    """(fn's result, bytes it left allocated, its traced peak).

    Both sizes count only allocations made during the call, from the
    traced total at its start: the bytes held are those still allocated
    when it returns (its result included), the peak the most it held at
    any one time.
    """
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args, **kwargs)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held - before, peak - before
