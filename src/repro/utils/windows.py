"""Sliding-window statistics over sample streams.

The packet detector and the interference detector of §7.1 both operate on
moving windows of the received per-sample energy: the former thresholds
its windowed mean, the latter the windowed *variance*.  The helpers here
compute those windowed statistics vectorised.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.exceptions import ConfigurationError


def _validate_window(window: int, n: int) -> None:
    if window <= 0:
        raise ConfigurationError("window length must be positive")
    if n == 0:
        raise ConfigurationError("cannot compute windowed statistics of an empty array")


def moving_average(values: np.ndarray, window: int) -> np.ndarray:
    """Trailing moving average with a ramp-up at the start.

    ``result[i]`` is the mean of ``values[max(0, i - window + 1) : i + 1]``,
    so the output has the same length as the input and early entries
    average over fewer samples rather than being dropped.
    """
    arr = np.asarray(values, dtype=float)
    _validate_window(window, arr.size)
    buffer = np.empty(arr.size + 1)
    buffer[0] = 0.0
    buffer[1:] = arr
    return _trailing_means(buffer, window)


def _trailing_means(buffer: np.ndarray, window: int) -> np.ndarray:
    """Trailing window means of ``buffer[..., 1:]``, whose column 0 holds 0.0.

    ``buffer`` is cumsummed in place along its last axis, which adds in
    the same order as ``np.cumsum(np.insert(values, 0, 0.0))``.  Entry
    ``i`` is then ``(c[i + 1] - c[max(i + 1 - window, 0)]) / min(i + 1,
    window)``; the first ``window`` entries skip subtracting ``c[0]``,
    which is +0.0 and so changes no value, and the rest divide by the
    scalar ``window``, the same double as their count.
    """
    np.cumsum(buffer, axis=-1, out=buffer)
    n = buffer.shape[-1] - 1
    sums = buffer[..., 1:].copy()
    if window < n:
        sums[..., window:] -= buffer[..., 1 : n + 1 - window]
    head = min(window, n)
    sums[..., :head] /= _ramp_counts(head)
    sums[..., head:] /= window
    return sums


@functools.lru_cache(maxsize=16)
def _ramp_counts(head: int) -> np.ndarray:
    """``arange(1.0, head + 1.0)``, the ramp-up window counts.

    Shared read-only through a view, so the flag cannot be switched back on.
    """
    counts = np.arange(1.0, head + 1.0)
    counts.setflags(write=False)
    return counts.view()


def moving_variance(values: np.ndarray, window: int) -> np.ndarray:
    """Trailing moving variance (population variance within each window)."""
    arr = np.asarray(values, dtype=float)
    _validate_window(window, arr.size)
    # One buffer, one in-place cumsum: row 0 averages arr, row 1 arr**2.
    buffer = np.empty((2, arr.size + 1))
    buffer[:, 0] = 0.0
    buffer[0, 1:] = arr
    np.square(arr, out=buffer[1, 1:])
    mean, mean_sq = _trailing_means(buffer, window)
    # variance = mean_sq - mean ** 2, computed in place.
    variance = np.subtract(mean_sq, np.square(mean, out=mean), out=mean_sq)
    # Numerical noise can push the variance a hair below zero.
    return np.maximum(variance, 0.0, out=variance)
