"""Tests for AWGN generation."""

import numpy as np
import pytest

from repro.exceptions import ChannelError
from repro.signal.noise import complex_gaussian_noise


class TestComplexGaussianNoise:
    def test_length(self):
        assert complex_gaussian_noise(100, 0.5, np.random.default_rng(0)).size == 100

    def test_zero_power_is_silent(self):
        noise = complex_gaussian_noise(50, 0.0, np.random.default_rng(0))
        assert np.all(noise == 0)

    def test_power_matches_request(self):
        rng = np.random.default_rng(0)
        noise = complex_gaussian_noise(200_000, 0.25, rng)
        measured = float(np.mean(np.abs(noise) ** 2))
        assert measured == pytest.approx(0.25, rel=0.05)

    def test_circular_symmetry(self):
        rng = np.random.default_rng(1)
        noise = complex_gaussian_noise(100_000, 1.0, rng)
        assert float(np.mean(noise.real ** 2)) == pytest.approx(0.5, rel=0.1)
        assert float(np.mean(noise.imag ** 2)) == pytest.approx(0.5, rel=0.1)

    def test_negative_power_rejected(self):
        with pytest.raises(ChannelError):
            complex_gaussian_noise(10, -1.0, np.random.default_rng(0))

    def test_negative_length_rejected(self):
        with pytest.raises(ChannelError):
            complex_gaussian_noise(-5, 1.0, np.random.default_rng(0))
