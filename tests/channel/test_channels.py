"""Tests for the basic channel stages (flat fading, AWGN, delay, chains)."""

import numpy as np
import pytest

from repro.channel.awgn import AWGNChannel
from repro.channel.delay import DelayChannel
from repro.channel.flat import FlatFadingChannel
from repro.channel.model import ChannelChain
from repro.exceptions import ChannelError
from repro.modulation.msk import MSKModulator
from repro.signal.samples import ComplexSignal
from repro.utils.bits import random_bits


class TestFlatFadingChannel:
    def test_applies_complex_gain(self):
        channel = FlatFadingChannel(attenuation=0.5, phase_shift=np.pi / 2)
        out = channel.apply(ComplexSignal([2 + 0j]))
        assert out.samples[0] == pytest.approx(1j)

    def test_power_gain(self):
        assert FlatFadingChannel(attenuation=0.5).power_gain == pytest.approx(0.25)

    def test_zero_attenuation_rejected(self):
        with pytest.raises(ChannelError):
            FlatFadingChannel(attenuation=0.0)

    def test_empty_signal_passthrough(self):
        channel = FlatFadingChannel(attenuation=0.5)
        assert len(channel.apply(ComplexSignal.empty())) == 0

    def test_cfo_rotates_progressively(self):
        channel = FlatFadingChannel(attenuation=1.0, frequency_offset=0.1)
        out = channel.apply(ComplexSignal(np.ones(5, dtype=complex)))
        phases = np.angle(out.samples)
        assert np.allclose(np.diff(phases), 0.1)

    def test_cfo_preserves_amplitude(self):
        channel = FlatFadingChannel(attenuation=0.7, frequency_offset=0.05)
        out = channel.apply(ComplexSignal(np.ones(50, dtype=complex)))
        assert np.allclose(np.abs(out.samples), 0.7)

    def test_phase_drift_changes_realisation(self):
        sig = ComplexSignal(np.ones(100, dtype=complex))
        a = FlatFadingChannel(1.0, phase_drift=0.05, rng=np.random.default_rng(1)).apply(sig)
        b = FlatFadingChannel(1.0, phase_drift=0.05, rng=np.random.default_rng(2)).apply(sig)
        assert not np.allclose(a.samples, b.samples)

    def test_attenuation_drift_stays_positive(self):
        sig = ComplexSignal(np.ones(500, dtype=complex))
        out = FlatFadingChannel(
            0.1, attenuation_drift=0.05, rng=np.random.default_rng(3)
        ).apply(sig)
        assert np.all(np.abs(out.samples) > 0)


class TestAWGNChannel:
    def test_zero_noise_identity(self):
        sig = ComplexSignal(np.ones(10, dtype=complex))
        assert AWGNChannel(0.0).apply(sig) == sig

    def test_noise_power(self):
        sig = ComplexSignal(np.zeros(100_000, dtype=complex))
        out = AWGNChannel(0.3, rng=np.random.default_rng(0)).apply(sig)
        assert out.average_power == pytest.approx(0.3, rel=0.05)

    def test_negative_noise_rejected(self):
        with pytest.raises(ChannelError):
            AWGNChannel(-0.1)


class TestDelayChannel:
    def test_delay(self):
        out = DelayChannel(3).apply(ComplexSignal([1 + 0j]))
        assert len(out) == 4
        assert out.samples[3] == 1

    def test_zero_delay_identity(self):
        sig = ComplexSignal([1 + 0j])
        assert DelayChannel(0).apply(sig) == sig

    def test_negative_delay_rejected(self):
        with pytest.raises(ChannelError):
            DelayChannel(-1)


class TestChannelChain:
    def test_chain_applies_in_order(self):
        chain = ChannelChain([FlatFadingChannel(0.5), DelayChannel(2)])
        out = chain.apply(ComplexSignal([2 + 0j]))
        assert len(out) == 3
        assert out.samples[2] == pytest.approx(1.0)

    def test_chain_rejects_non_channel(self):
        with pytest.raises(ChannelError):
            ChannelChain([FlatFadingChannel(0.5), "not a channel"])

    def test_calling_a_stage_applies_it(self):
        chain = ChannelChain([FlatFadingChannel(0.5), DelayChannel(2)])
        sig = ComplexSignal([2 + 0j, 1j])
        assert chain(sig) == chain.apply(sig)

    def test_chain_length(self):
        assert len(ChannelChain([DelayChannel(0), DelayChannel(0)])) == 2

    def test_msk_survives_realistic_chain(self):
        bits = random_bits(128, np.random.default_rng(4))
        sig = MSKModulator().modulate(bits)
        chain = ChannelChain(
            [
                FlatFadingChannel(0.6, phase_shift=1.0, frequency_offset=0.02),
                DelayChannel(5),
                AWGNChannel(1e-4, rng=np.random.default_rng(5)),
            ]
        )
        received = chain.apply(sig)
        from repro.modulation.msk import MSKDemodulator

        decoded = MSKDemodulator().demodulate(received.slice(5, len(received)))
        assert np.array_equal(decoded, bits)
