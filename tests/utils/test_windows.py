"""Tests for sliding-window statistics."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.utils.windows import moving_average, moving_variance


class TestMovingAverage:
    def test_constant_input(self):
        out = moving_average(np.full(10, 3.0), window=4)
        assert out == pytest.approx(np.full(10, 3.0))

    def test_output_length_matches_input(self):
        assert moving_average(np.arange(17, dtype=float), 5).size == 17

    def test_ramp_up_uses_partial_windows(self):
        out = moving_average(np.array([2.0, 4.0, 6.0]), window=2)
        assert out == pytest.approx([2.0, 3.0, 5.0])

    def test_window_larger_than_input(self):
        out = moving_average(np.array([1.0, 2.0, 3.0]), window=10)
        assert out[-1] == pytest.approx(2.0)

    def test_invalid_window(self):
        with pytest.raises(ConfigurationError):
            moving_average(np.ones(4), 0)

    def test_empty_input_rejected(self):
        with pytest.raises(ConfigurationError):
            moving_average(np.array([]), 3)


class TestMovingVariance:
    def test_constant_input_zero_variance(self):
        out = moving_variance(np.full(30, 5.0), window=6)
        assert np.all(out <= 1e-12)

    def test_alternating_input_positive_variance(self):
        values = np.tile([0.0, 2.0], 20)
        out = moving_variance(values, window=8)
        assert out[-1] == pytest.approx(1.0)

    def test_never_negative(self):
        rng = np.random.default_rng(3)
        out = moving_variance(rng.normal(size=200), window=16)
        assert np.all(out >= 0)


def reference_moving_average(values, window):
    """The ``np.insert`` + ``np.cumsum`` definition the fast path must match bit for bit."""
    arr = np.asarray(values, dtype=float)
    cumulative = np.cumsum(np.insert(arr, 0, 0.0))
    idx = np.arange(1, arr.size + 1)
    start = np.maximum(idx - window, 0)
    counts = idx - start
    return (cumulative[idx] - cumulative[start]) / counts


def reference_moving_variance(values, window):
    arr = np.asarray(values, dtype=float)
    mean = reference_moving_average(arr, window)
    mean_sq = reference_moving_average(arr ** 2, window)
    return np.maximum(mean_sq - mean ** 2, 0.0)


def _window_cases():
    rng = np.random.default_rng(11)
    for n in (1, 2, 7, 64, 1500):
        values = rng.normal(size=n) * 10.0 ** rng.integers(-6, 7)
        values[0] = -0.0
        for window in (1, 2, n - 1, n, n + 1, 5 * n, 32):
            if window > 0:
                yield values, window


class TestBitEqualToReference:
    def test_moving_average(self):
        for values, window in _window_cases():
            expected = reference_moving_average(values, window)
            assert moving_average(values, window).tobytes() == expected.tobytes()

    def test_moving_variance(self):
        for values, window in _window_cases():
            expected = reference_moving_variance(values, window)
            assert moving_variance(values, window).tobytes() == expected.tobytes()

    def test_leading_negative_zero_and_non_finite_values(self):
        values = np.array([-0.0, -0.0, 1.5, np.inf, 2.0, np.nan, -3.0, -0.0])
        with np.errstate(invalid="ignore"):
            for window in (1, 2, 3, 8, 9):
                for fast, reference in (
                    (moving_average, reference_moving_average),
                    (moving_variance, reference_moving_variance),
                ):
                    expected = reference(values, window)
                    assert fast(values, window).tobytes() == expected.tobytes()

    def test_input_is_not_modified(self):
        values = np.array([-0.0, 1.0, 2.0, 3.0])
        before = values.tobytes()
        moving_average(values, 2)
        moving_variance(values, 2)
        assert values.tobytes() == before
