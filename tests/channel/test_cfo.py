"""Tests of the carrier-frequency-offset channel stage."""

import numpy as np
import pytest

from repro.channel.cfo import CarrierFrequencyOffsetChannel
from repro.channel.model import ChannelChain
from repro.signal.samples import ComplexSignal


def _signal(n=32, seed=0):
    rng = np.random.default_rng(seed)
    return ComplexSignal(rng.standard_normal(n) + 1j * rng.standard_normal(n))


class TestCarrierFrequencyOffsetChannel:
    def test_applies_exact_phase_ramp(self):
        signal = _signal()
        channel = CarrierFrequencyOffsetChannel(0.03, initial_phase=0.5)
        out = channel.apply(signal)
        index = np.arange(len(signal))
        expected = signal.samples * np.exp(1j * (0.5 + 0.03 * index))
        assert np.array_equal(out.samples, expected)

    def test_zero_offset_and_phase_is_identity(self):
        signal = _signal()
        out = CarrierFrequencyOffsetChannel(0.0).apply(signal)
        assert out is signal

    def test_pure_initial_phase_rotates_constantly(self):
        signal = _signal()
        out = CarrierFrequencyOffsetChannel(0.0, initial_phase=np.pi / 4).apply(signal)
        assert np.array_equal(out.samples, signal.samples * np.exp(1j * np.pi / 4))

    def test_negative_offset_rotates_backwards(self):
        signal = _signal()
        forward = CarrierFrequencyOffsetChannel(0.05).apply(signal)
        backward = CarrierFrequencyOffsetChannel(-0.05).apply(signal)
        # Opposite ramps multiply back to |s|^2 up to rounding; check the
        # phases are exact negatives via the ramp itself.
        assert np.array_equal(
            CarrierFrequencyOffsetChannel(0.05).ramp(8),
            np.conj(CarrierFrequencyOffsetChannel(-0.05).ramp(8)),
        )
        assert not np.array_equal(forward.samples, backward.samples)

    def test_empty_signal_passthrough(self):
        empty = ComplexSignal.empty()
        assert CarrierFrequencyOffsetChannel(0.1).apply(empty) is empty

    def test_preserves_amplitude(self):
        signal = _signal()
        out = CarrierFrequencyOffsetChannel(0.2, initial_phase=1.0).apply(signal)
        assert np.allclose(np.abs(out.samples), np.abs(signal.samples))

    def test_composes_in_a_chain(self):
        chain = ChannelChain(
            [CarrierFrequencyOffsetChannel(0.01), CarrierFrequencyOffsetChannel(0.02)]
        )
        out = chain.apply(_signal(8))
        assert len(out.samples) == 8

    def test_advanced_is_phase_continuous(self):
        channel = CarrierFrequencyOffsetChannel(0.07, initial_phase=0.2)
        later = channel.advanced(100)
        assert later.frequency_offset == channel.frequency_offset
        assert later.initial_phase == pytest.approx(0.2 + 0.07 * 100)
        # The ramp of the advanced channel continues where the first ends.
        first = channel.ramp(101)
        assert later.ramp(1)[0] == pytest.approx(first[100])
