"""Loss-trace smoothing for the tests that ask whether a fit keeps descending."""

import numpy as np

from audioinr.tensor import ContractError


def moving_average(x: np.ndarray, window: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if window < 1 or window > x.size:
        raise ContractError(f"window {window} invalid for trace of {x.size}")
    return np.convolve(x, np.full(window, 1.0 / window), mode="valid")


def fraction_nonincreasing(trace: np.ndarray, window: int = 100) -> float:
    """Share of consecutive moving-average windows that do not increase."""
    ma = moving_average(trace, window)
    if ma.size < 2:
        return 1.0
    d = np.diff(ma)
    return float(np.mean(d <= 0.0))
