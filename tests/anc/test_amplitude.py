"""Tests for the A/B amplitude estimator (Eqs. 5-6)."""

import numpy as np
import pytest

from repro.anc.amplitude import (
    AmplitudeEstimate,
    estimate_amplitudes_with_known,
    mean_energy,
    sigma_statistic,
)
from repro.exceptions import DecodingError
from repro.signal.samples import ComplexSignal


def _random_phase_mixture(amplitude_a, amplitude_b, n, seed=0):
    rng = np.random.default_rng(seed)
    theta = rng.uniform(-np.pi, np.pi, n)
    phi = rng.uniform(-np.pi, np.pi, n)
    return amplitude_a * np.exp(1j * theta) + amplitude_b * np.exp(1j * phi)


class TestStatistics:
    def test_mean_energy_equals_sum_of_squares(self):
        """Eq. 5: E[|y|^2] = A^2 + B^2 for random relative phase."""
        y = _random_phase_mixture(1.0, 0.6, 200_000)
        assert mean_energy(y) == pytest.approx(1.0 + 0.36, rel=0.02)

    def test_sigma_statistic_matches_eq6(self):
        """Eq. 6: sigma = A^2 + B^2 + 4AB/pi for random relative phase."""
        amplitude_a, amplitude_b = 1.0, 0.7
        y = _random_phase_mixture(amplitude_a, amplitude_b, 400_000, seed=1)
        expected = amplitude_a ** 2 + amplitude_b ** 2 + 4 * amplitude_a * amplitude_b / np.pi
        assert sigma_statistic(y) == pytest.approx(expected, rel=0.02)

    def test_statistics_accept_complex_signal_container(self):
        y = _random_phase_mixture(1.0, 0.6, 1000, seed=9)
        assert mean_energy(ComplexSignal(y)) == mean_energy(y)
        assert sigma_statistic(ComplexSignal(y)) == sigma_statistic(y)

    def test_sigma_degenerate_constant_energy(self):
        y = np.ones(100, dtype=complex)
        assert sigma_statistic(y) == pytest.approx(1.0)

    def test_empty_input_rejected(self):
        with pytest.raises(DecodingError):
            mean_energy(np.array([], dtype=complex))
        with pytest.raises(DecodingError):
            sigma_statistic(np.array([], dtype=complex))


class TestEstimateAmplitudes:
    def test_recovers_amplitudes(self):
        y = _random_phase_mixture(1.0, 0.6, 100_000, seed=2)
        estimate = estimate_amplitudes_with_known(y, known_amplitude_hint=1.0)
        assert estimate.amplitude_a == pytest.approx(1.0, rel=0.05)
        assert estimate.amplitude_b == pytest.approx(0.6, rel=0.08)

    def test_equal_amplitudes(self):
        y = _random_phase_mixture(0.8, 0.8, 100_000, seed=3)
        estimate = estimate_amplitudes_with_known(y, known_amplitude_hint=0.8)
        assert estimate.amplitude_a == pytest.approx(0.8, rel=0.1)
        assert estimate.amplitude_b == pytest.approx(0.8, rel=0.1)

    def test_silent_block_rejected(self):
        with pytest.raises(DecodingError, match="mean energy must be positive"):
            estimate_amplitudes_with_known(np.zeros(64, dtype=complex), 1.0)


class TestEstimateWithKnown:
    def test_labels_follow_hint(self):
        y = _random_phase_mixture(1.0, 0.5, 50_000, seed=5)
        estimate = estimate_amplitudes_with_known(y, known_amplitude_hint=1.0)
        assert estimate.amplitude_a == pytest.approx(1.0, rel=0.08)
        assert estimate.amplitude_b == pytest.approx(0.5, rel=0.12)

    def test_labels_swap_when_known_is_weaker(self):
        y = _random_phase_mixture(1.0, 0.5, 50_000, seed=6)
        estimate = estimate_amplitudes_with_known(y, known_amplitude_hint=0.5)
        assert estimate.amplitude_a == pytest.approx(0.5, rel=0.12)
        assert estimate.amplitude_b == pytest.approx(1.0, rel=0.08)

    def test_sir_property(self):
        y = _random_phase_mixture(1.0, 0.5, 50_000, seed=7)
        estimate = estimate_amplitudes_with_known(y, known_amplitude_hint=1.0)
        assert estimate.sir_db == pytest.approx(20 * np.log10(0.5), abs=1.5)

    def test_sum_power_consistent_with_mu(self):
        y = _random_phase_mixture(0.9, 0.6, 50_000, seed=8)
        estimate = estimate_amplitudes_with_known(y, known_amplitude_hint=0.9)
        sum_power = estimate.amplitude_a ** 2 + estimate.amplitude_b ** 2
        assert sum_power == pytest.approx(estimate.mu, rel=0.05)

    def test_invalid_hint_rejected(self):
        with pytest.raises(DecodingError):
            estimate_amplitudes_with_known(np.ones(10, dtype=complex), 0.0)

    @pytest.mark.parametrize("amplitude_a, amplitude_b", [(0.0, 1.0), (1.0, 0.0)])
    def test_sir_undefined_for_a_vanished_component(self, amplitude_a, amplitude_b):
        estimate = AmplitudeEstimate(
            amplitude_a=amplitude_a, amplitude_b=amplitude_b, mu=1.0, sigma=1.0
        )
        with pytest.raises(DecodingError, match="SIR undefined"):
            estimate.sir_db
