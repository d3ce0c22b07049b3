"""Tests for the ComplexSignal container."""

import numpy as np
import pytest

from repro.channel.link import Link
from repro.channel.link import Link
from repro.exceptions import ConfigurationError
from repro.modulation.msk import MSKModulator
from repro.network.medium import Transmission, WirelessMedium
from repro.network.topology import Topology
from repro.signal.ops import overlap_add
from repro.signal.samples import ComplexSignal
from repro.utils.bits import random_bits


class TestConstruction:
    def test_from_list(self):
        sig = ComplexSignal([1 + 1j, 2])
        assert len(sig) == 2

    def test_samples_are_immutable(self):
        sig = ComplexSignal([1 + 0j])
        with pytest.raises(ValueError):
            sig.samples[0] = 0

    def test_empty(self):
        assert len(ComplexSignal(np.zeros(0, dtype=complex))) == 0

    def test_silence(self):
        sig = ComplexSignal.silence(10)
        assert len(sig) == 10
        assert not np.any(sig.samples)

    def test_silence_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            ComplexSignal.silence(-1)

    def test_rejects_2d(self):
        with pytest.raises(ConfigurationError):
            ComplexSignal(np.zeros((2, 2)))


class TestStructuralOps:
    def test_slice(self):
        sig = ComplexSignal(np.arange(5, dtype=complex))
        assert np.array_equal(sig.slice(1, 3).samples, [1, 2])

    def test_reversed(self):
        sig = ComplexSignal([1 + 0j, 2 + 0j])
        assert np.array_equal(sig.reversed().samples, [2, 1])

    def test_padded(self):
        sig = ComplexSignal([1 + 0j]).padded(2, 3)
        assert len(sig) == 6
        assert sig.samples[2] == 1

    def test_padded_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            ComplexSignal([1 + 0j]).padded(-1, 0)

    def test_scaled(self):
        sig = ComplexSignal([1 + 0j]).scaled(2j)
        assert sig.samples[0] == pytest.approx(2j)

    def test_equality(self):
        a = ComplexSignal([1 + 1j])
        b = ComplexSignal([1 + 1j + 1e-12])
        assert a == b
        assert a != ComplexSignal([2 + 0j])

    def test_never_equal_to_raw_samples(self):
        sig = ComplexSignal([1 + 0j, 2 + 0j])
        assert sig != [1 + 0j, 2 + 0j]
        assert not (sig == "signal")


def _assert_frozen(signal):
    assert not signal.samples.flags.writeable
    with pytest.raises(ValueError):
        signal.samples[0] = 0
    with pytest.raises(ValueError):
        signal.samples.setflags(write=True)


class TestLibraryBuiltSignalsAreFrozen:
    """Signals the library builds adopt their arrays, and still cannot be written."""

    def _wave(self):
        return MSKModulator().modulate(random_bits(40, np.random.default_rng(0)))

    def test_modulate(self):
        _assert_frozen(self._wave())

    def test_link_distort(self):
        wave = self._wave()
        for link in (
            Link(0.5, phase_shift=0.3),
            Link(0.5, frequency_offset=0.01, phase_drift=1e-3),
            Link(0.5, sender_cfo=0.02, fading="rician", propagation_delay=3),
        ):
            _assert_frozen(link.distort(wave, np.random.default_rng(1)))

    def test_slice_and_scaled(self):
        wave = self._wave()
        _assert_frozen(wave.slice(3, 17))
        _assert_frozen(wave.scaled(0.5j))

    def test_overlap_add(self):
        wave = self._wave()
        _assert_frozen(overlap_add([(wave, 0), (wave, 5)], total_length=60))

    def test_wireless_medium_deliver(self):
        topology = Topology()
        topology.add_node(1, noise_power=1e-3)
        topology.add_node(2, noise_power=1e-3)
        topology.add_node(3, noise_power=0.0)
        topology.add_symmetric_link(1, 2, Link(attenuation=0.8, phase_shift=0.2))
        medium = WirelessMedium(topology, rng=np.random.default_rng(2))
        heard = medium.deliver([Transmission(sender=1, waveform=self._wave())])
        for receiver in (2, 3):
            _assert_frozen(heard[receiver])

    def test_slice_of_a_slice_keeps_the_values(self):
        wave = self._wave()
        inner = wave.slice(2, 30).slice(4, 9)
        assert inner.samples.tobytes() == wave.samples[6:11].tobytes()


class TestPublicConstructorCopies:
    def test_mutating_the_input_leaves_the_signal_unchanged(self):
        source = np.array([1 + 1j, 2 - 1j, 3 + 0j])
        signal = ComplexSignal(source)
        before = signal.samples.tobytes()
        source[:] = 0
        assert signal.samples.tobytes() == before

    def test_input_array_stays_writable(self):
        source = np.array([1 + 1j, 2 - 1j])
        ComplexSignal(source)
        assert source.flags.writeable
