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


def _two_draws(length, noise_power, rng):
    """The noise as two ``normal`` draws, real part first, joined as ``a + 1j * b``."""
    sigma = np.sqrt(noise_power / 2.0)
    return rng.normal(0.0, sigma, length) + 1j * rng.normal(0.0, sigma, length)


class TestOneDrawMatchesTwoDraws:
    """One ``(2, n)`` draw gives the bytes and leaves the generator as two draws did."""

    LENGTHS = (1, 2, 3, 63, 64, 65, 1023, 1024, 1999, 2000)

    @pytest.mark.parametrize("seed", range(40))
    def test_bytes_and_generator_state(self, seed):
        lengths = np.random.default_rng(10_000 + seed).integers(1, 2001, size=5)
        for length in (*self.LENGTHS, *lengths.tolist()):
            for noise_power in (1e-3, 0.0064, 0.5, 2.0):
                ours = np.random.default_rng([seed, length])
                reference = np.random.default_rng([seed, length])
                noise = complex_gaussian_noise(length, noise_power, ours)
                expected = _two_draws(length, noise_power, reference)
                assert noise.dtype == np.complex128
                assert noise.tobytes() == expected.tobytes()
                assert ours.bit_generator.state == reference.bit_generator.state
