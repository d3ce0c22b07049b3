"""Tests for the Link abstraction."""

import numpy as np
import pytest

from repro.channel.link import Link
from repro.exceptions import ChannelError
from repro.modulation.msk import MSKDemodulator, MSKModulator
from repro.signal.samples import ComplexSignal
from repro.utils.bits import random_bits


class TestLinkValidation:
    def test_defaults(self):
        link = Link()
        assert link.attenuation == 1.0
        assert link.noise_power == 0.0

    def test_invalid_attenuation(self):
        with pytest.raises(ChannelError):
            Link(attenuation=0.0)

    def test_invalid_delay(self):
        with pytest.raises(ChannelError):
            Link(propagation_delay=-1)

    def test_invalid_noise(self):
        with pytest.raises(ChannelError):
            Link(noise_power=-0.5)


class TestLinkDerivedQuantities:
    def test_complex_gain(self):
        link = Link(attenuation=0.5, phase_shift=np.pi)
        assert link.complex_gain == pytest.approx(-0.5)

    def test_power_gain(self):
        assert Link(attenuation=0.3).power_gain == pytest.approx(0.09)

    def test_received_power(self):
        assert Link(attenuation=0.5).received_power(4.0) == pytest.approx(1.0)

    def test_received_power_rejects_negative_transmit_power(self):
        with pytest.raises(ChannelError, match="transmit power must be non-negative"):
            Link(attenuation=0.5).received_power(-1.0)

    def test_snr_db(self):
        link = Link(attenuation=1.0, noise_power=0.01)
        assert link.snr_db(1.0) == pytest.approx(20.0)

    def test_snr_undefined_without_noise(self):
        with pytest.raises(ChannelError):
            Link(attenuation=1.0).snr_db(1.0)


class TestLinkPropagation:
    def test_distort_applies_gain_and_delay(self):
        link = Link(attenuation=0.5, phase_shift=0.0, propagation_delay=2)
        out = link.distort(ComplexSignal([2 + 0j]))
        assert len(out) == 3
        assert out.samples[2] == pytest.approx(1.0)

    def test_propagate_adds_noise(self):
        link = Link(attenuation=1.0, noise_power=0.5)
        out = link.propagate(ComplexSignal(np.zeros(10_000, dtype=complex)), rng=np.random.default_rng(0))
        assert out.average_power == pytest.approx(0.5, rel=0.1)

    def test_distort_never_adds_noise(self):
        link = Link(attenuation=1.0, noise_power=10.0)
        out = link.distort(ComplexSignal(np.zeros(100, dtype=complex)))
        assert out.total_energy == 0.0

    def test_end_to_end_msk(self):
        bits = random_bits(200, np.random.default_rng(1))
        link = Link(attenuation=0.7, phase_shift=-0.9, frequency_offset=0.03, noise_power=1e-4)
        received = link.propagate(MSKModulator().modulate(bits), rng=np.random.default_rng(2))
        assert np.array_equal(MSKDemodulator().demodulate(received), bits)

    def test_to_chain_stage_count(self):
        assert len(Link(noise_power=0.1).to_chain()) == 3
        assert len(Link(noise_power=0.1).to_chain(include_noise=False)) == 2
        assert len(Link().to_chain()) == 2
