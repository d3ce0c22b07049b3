"""Tests for MSK modulation / demodulation (§5 and Fig. 3 of the paper)."""

import numpy as np
import pytest

from repro.channel.link import Link
from repro.exceptions import ConfigurationError
from repro.modulation.msk import (
    MSKDemodulator,
    MSKModulator,
    expected_phase_differences,
    msk_phase_trajectory,
    verify_constant_envelope,
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

    def test_initial_phase_offset(self):
        trajectory = msk_phase_trajectory(np.array([1], dtype=np.uint8), initial_phase=0.3)
        assert trajectory[0] == pytest.approx(0.3)
        assert trajectory[1] == pytest.approx(0.3 + np.pi / 2)


class TestModulator:
    def test_sample_count(self):
        mod = MSKModulator()
        assert len(mod.modulate([1, 0, 1])) == 4  # reference sample + 3

    def test_constant_envelope(self):
        sig = MSKModulator(amplitude=0.7).modulate(random_bits(128, np.random.default_rng(0)))
        assert verify_constant_envelope(sig)
        assert sig.amplitude[0] == pytest.approx(0.7)

    def test_phase_steps_encode_bits(self):
        bits = string_to_bits("1100")
        sig = MSKModulator().modulate(bits)
        diffs = sig.phase_differences()
        assert diffs == pytest.approx([np.pi / 2, np.pi / 2, -np.pi / 2, -np.pi / 2])

    def test_oversampling_length(self):
        mod = MSKModulator(samples_per_symbol=4)
        assert len(mod.modulate([1, 0])) == 9  # 2*4 + reference


class TestVectorizedOversampling:
    """The vectorized sps>1 ramp must match the per-symbol linspace loop.

    ``MSKModulator.modulate`` used to build the oversampled phase ramp by
    appending one ``np.linspace`` slice per symbol to a Python list; the
    vectorized outer-add ramp replaced it.  These tests pin the waveform
    to the loop reference to the last ULP, so the fast path can never
    drift the PHY.
    """

    @staticmethod
    def _loop_reference(bits, amplitude, sps, initial_phase):
        """The original list-append/np.linspace implementation."""
        clean = np.asarray(bits, dtype=np.uint8)
        boundary = msk_phase_trajectory(clean, initial_phase)
        phases = [boundary[0]]
        for k in range(clean.size):
            ramp = np.linspace(boundary[k], boundary[k + 1], sps + 1)[1:]
            phases.extend(ramp)
        return amplitude * np.exp(1j * np.asarray(phases))

    @pytest.mark.parametrize("sps", [2, 3, 4, 8])
    @pytest.mark.parametrize("initial_phase", [0.0, 0.7, -2.1])
    def test_waveform_unchanged_to_last_ulp(self, sps, initial_phase):
        bits = random_bits(257, np.random.default_rng(5))
        modulator = MSKModulator(
            amplitude=1.3, samples_per_symbol=sps, initial_phase=initial_phase
        )
        reference = self._loop_reference(bits, 1.3, sps, initial_phase)
        produced = modulator.modulate(bits).samples
        # Exact array equality: not approx, not allclose — the refactor
        # must be invisible at the bit level.
        assert np.array_equal(produced, reference)

    @pytest.mark.parametrize("n_bits", [0, 1, 2])
    def test_degenerate_frame_sizes(self, n_bits):
        bits = np.ones(n_bits, dtype=np.uint8)
        produced = MSKModulator(samples_per_symbol=3).modulate(bits).samples
        reference = self._loop_reference(bits, MSKModulator().amplitude, 3, 0.0)
        assert np.array_equal(produced, reference)

    def test_oversampled_ramp_hits_boundaries_exactly(self):
        bits = string_to_bits("1101")
        sps = 5
        signal = MSKModulator(amplitude=1.0, samples_per_symbol=sps).modulate(bits)
        boundary = msk_phase_trajectory(bits)
        # Sample k*sps carries exactly the k-th boundary phase (linspace
        # pins its endpoint, and the vectorized ramp must too).
        sampled = np.angle(signal.samples[::sps])
        expected = np.angle(np.exp(1j * boundary))
        assert np.array_equal(sampled, expected)


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

    def test_oversampled_roundtrip(self):
        bits = random_bits(64, np.random.default_rng(4))
        signal = MSKModulator(samples_per_symbol=4).modulate(bits)
        assert np.array_equal(MSKDemodulator(samples_per_symbol=4).demodulate(signal), bits)

    def test_short_signal_gives_no_bits(self):
        assert MSKDemodulator().demodulate(ComplexSignal([1 + 0j])).size == 0

    def test_samples_per_symbol_reported(self):
        assert MSKDemodulator(samples_per_symbol=3).samples_per_symbol == 3

    @pytest.mark.parametrize("sps", [0, -2])
    def test_non_positive_oversampling_rejected(self, sps):
        with pytest.raises(ConfigurationError, match="samples_per_symbol"):
            MSKDemodulator(samples_per_symbol=sps)


class TestConstantEnvelopeCheck:
    def test_empty_signal_is_trivially_constant(self):
        assert verify_constant_envelope(ComplexSignal(np.zeros(0, dtype=np.complex128)))

    def test_amplitude_step_detected(self):
        sig = MSKModulator().modulate(random_bits(16, np.random.default_rng(6)))
        stepped = ComplexSignal(sig.samples * np.r_[np.ones(8), 1.5 * np.ones(len(sig) - 8)])
        assert not verify_constant_envelope(stepped)
        assert verify_constant_envelope(stepped, tolerance=0.6)


class TestExpectedPhaseDifferences:
    def test_matches_modulator(self):
        bits = random_bits(100, np.random.default_rng(5))
        expected = expected_phase_differences(bits)
        actual = MSKModulator().modulate(bits).phase_differences()
        assert actual == pytest.approx(expected)
