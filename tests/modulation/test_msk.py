"""Tests for MSK modulation / demodulation (§5 and Fig. 3 of the paper)."""

import numpy as np
import pytest

from repro.channel.link import Link
from repro.modulation.msk import (
    MSKDemodulator,
    MSKModulator,
    _phase_steps,
    msk_phase_trajectory,
)
from repro.signal.samples import ComplexSignal
from repro.utils.bits import random_bits, string_to_bits


class TestPhaseTrajectory:
    def test_fig3_example(self):
        """The paper's Fig. 3 example: bits 1010111000 step the phase ±pi/2."""
        bits = string_to_bits("1010111000")
        trajectory = msk_phase_trajectory(bits)
        steps = np.diff(trajectory)
        expected = np.where(bits == 1, np.pi / 2, -np.pi / 2)
        assert steps == pytest.approx(expected)
        # After 5 ones and 5 zeros the phase returns to the start.
        assert trajectory[-1] == pytest.approx(trajectory[0])

    def test_length(self):
        assert msk_phase_trajectory(np.array([1, 0, 1], dtype=np.uint8)).size == 4


class TestModulator:
    def test_sample_count(self):
        mod = MSKModulator()
        assert len(mod.modulate([1, 0, 1])) == 4  # reference sample + 3

    def test_constant_envelope(self):
        sig = MSKModulator(amplitude=0.7).modulate(random_bits(128, np.random.default_rng(0)))
        assert np.max(np.abs(np.abs(sig.samples) - 0.7)) <= 1e-9

    def test_phase_steps_encode_bits(self):
        bits = string_to_bits("1100")
        sig = MSKModulator().modulate(bits)
        diffs = np.angle(sig.samples[1:] * np.conj(sig.samples[:-1]))
        assert diffs == pytest.approx([np.pi / 2, np.pi / 2, -np.pi / 2, -np.pi / 2])


class TestDemodulator:
    def test_roundtrip_no_channel(self):
        bits = random_bits(256, np.random.default_rng(1))
        signal = MSKModulator().modulate(bits)
        assert np.array_equal(MSKDemodulator().demodulate(signal), bits)

    def test_roundtrip_with_attenuation_and_phase(self):
        """Eq. 1: demodulation is invariant to channel gain and phase offset."""
        bits = random_bits(256, np.random.default_rng(2))
        sig = MSKModulator().modulate(bits)
        received = Link(attenuation=0.3, phase_shift=2.1).distort(sig, np.random.default_rng(0))
        decoded = MSKDemodulator().demodulate(received)
        assert np.array_equal(decoded, bits)

    def test_roundtrip_with_small_cfo(self):
        bits = random_bits(256, np.random.default_rng(3))
        sig = MSKModulator().modulate(bits)
        received = Link(frequency_offset=0.05).distort(sig, np.random.default_rng(0))
        decoded = MSKDemodulator().demodulate(received)
        assert np.array_equal(decoded, bits)

    def test_short_signal_gives_no_bits(self):
        assert MSKDemodulator().demodulate(ComplexSignal([1 + 0j])).size == 0


class TestExpectedPhaseDifferences:
    def test_matches_modulator(self):
        bits = random_bits(100, np.random.default_rng(5))
        expected = _phase_steps(bits)
        samples = MSKModulator().modulate(bits).samples
        actual = np.angle(samples[1:] * np.conj(samples[:-1]))
        assert actual == pytest.approx(expected)
