"""Tests for the energy and interference detectors (§7.1)."""

import numpy as np
import pytest

from repro.channel.interference import superpose
from repro.channel.link import Link
from repro.exceptions import DetectionError
from repro.modulation.msk import MSKModulator
from repro.signal.energy import (
    EnergyDetector,
    InterferenceDetector,
    power_profile,
)
from repro.signal.ops import overlap_add
from repro.signal.samples import ComplexSignal
from repro.utils.bits import random_bits

NOISE = 1e-3


def _msk_burst(n_bits=200, amplitude=1.0, seed=0):
    bits = random_bits(n_bits, np.random.default_rng(seed))
    return MSKModulator(amplitude=amplitude).modulate(bits)


class TestPowerHelpers:
    def test_empty_signal_zero(self):
        assert power_profile(ComplexSignal.silence(0)).size == 0

    def test_helpers_accept_raw_sample_arrays(self):
        samples = np.array([1.0, 1j, -2.0])
        assert power_profile(samples).tolist() == [1.0, 1.0, 4.0]

    def test_power_profile_is_abs_squared(self):
        burst = _msk_burst(amplitude=0.7)
        expected = np.abs(burst.samples) ** 2
        assert power_profile(burst).tobytes() == expected.tobytes()


class TestEnergyDetector:
    def test_detects_packet_in_noise(self):
        rng = np.random.default_rng(1)
        burst = _msk_burst()
        padded = burst.padded(50, 80)
        noisy = superpose([(padded, Link(), 0)], NOISE, rng, 0)
        detection = EnergyDetector(noise_power=NOISE).detect(power_profile(noisy))
        assert detection.detected
        assert abs(detection.start_index - 50) <= 16
        assert detection.end_index >= 50 + len(burst) - 16

    def test_no_packet_in_pure_noise(self):
        rng = np.random.default_rng(2)
        noise_only = superpose([], NOISE, rng, 400)
        detection = EnergyDetector(noise_power=NOISE).detect(power_profile(noise_only))
        assert not detection.detected
        assert detection.length == 0

    def test_detection_length_spans_the_burst(self):
        rng = np.random.default_rng(1)
        burst = _msk_burst()
        noisy = superpose([(burst.padded(50, 80), Link(), 0)], NOISE, rng, 0)
        detection = EnergyDetector(noise_power=NOISE).detect(power_profile(noisy))
        assert detection.length == detection.end_index - detection.start_index
        assert abs(detection.length - len(burst)) <= 32

    def test_empty_signal_raises(self):
        with pytest.raises(DetectionError):
            EnergyDetector(noise_power=NOISE).detect(power_profile(ComplexSignal.silence(0)))

    def test_threshold_power_scales_with_noise(self):
        # 12 dB above the noise floor (PACKET_DETECTION_THRESHOLD_DB).
        assert EnergyDetector(noise_power=0.01).threshold_power == pytest.approx(0.01 * 10 ** 1.2)
        assert EnergyDetector(noise_power=0.1).threshold_power == pytest.approx(0.1 * 10 ** 1.2)


class TestInterferenceDetector:
    def test_clean_msk_not_flagged(self):
        rng = np.random.default_rng(3)
        noisy = superpose([(_msk_burst(), Link(), 0)], NOISE, rng, 0)
        assert not InterferenceDetector(noise_power=NOISE).detect(power_profile(noisy))

    def test_collision_flagged(self):
        rng = np.random.default_rng(4)
        a = _msk_burst(seed=10)
        b = _msk_burst(seed=11, amplitude=0.8)
        collision = overlap_add([(a, 0), (b, 40)])
        noisy = superpose([(collision, Link(), 0)], NOISE, rng, 0)
        assert InterferenceDetector(noise_power=NOISE).detect(power_profile(noisy))

    def test_empty_signal_raises(self):
        with pytest.raises(DetectionError):
            InterferenceDetector(noise_power=NOISE).detect(power_profile(ComplexSignal.silence(0)))
