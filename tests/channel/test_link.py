"""Tests for the Link abstraction: validation and the ``distort`` response."""

import numpy as np
import pytest

from repro.channel.fading import fading_gains
from repro.channel.impairments import ImpairmentConfig
from repro.channel.interference import superpose
from repro.channel.link import Link
from repro.exceptions import ChannelError, ConfigurationError
from repro.modulation.msk import MSKDemodulator, MSKModulator
from repro.signal.ops import delay_signal
from repro.signal.samples import ComplexSignal
from repro.utils.bits import random_bits


def _signal(n=32, seed=0):
    rng = np.random.default_rng(seed)
    return ComplexSignal(rng.standard_normal(n) + 1j * rng.standard_normal(n))


def _ones(n):
    return ComplexSignal(np.ones(n, dtype=complex))


def _rng_state(rng):
    return rng.bit_generator.state


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

    def test_negative_phase_drift_rejected(self):
        with pytest.raises(ChannelError, match="phase_drift"):
            Link(phase_drift=-0.01)

    def test_unknown_fading_kind_rejected(self):
        with pytest.raises(ChannelError, match="unknown fading kind"):
            Link(attenuation=0.8, fading="weibull")

    def test_unknown_fading_mode_rejected(self):
        with pytest.raises(ChannelError, match="unknown fading mode"):
            Link(fading="rayleigh", fading_mode="bogus")

    @pytest.mark.parametrize("doppler", [1.0, 1.5, -0.1])
    def test_doppler_out_of_range_rejected(self, doppler):
        with pytest.raises(ChannelError, match=r"fading_doppler must lie in \[0, 1\)"):
            Link(fading="rayleigh", fading_mode="drift", fading_doppler=doppler)

    def test_doppler_in_block_mode_rejected(self):
        with pytest.raises(ChannelError, match="block fading takes no doppler rate"):
            Link(fading="rician", fading_mode="block", fading_doppler=0.1)

    def test_drift_mode_with_doppler_accepted(self):
        link = Link(fading="rayleigh", fading_mode="drift", fading_doppler=0.02)
        assert link.fading_doppler == 0.02

    @pytest.mark.parametrize(
        "fields",
        [
            {"fading": "weibull"},
            {"fading_mode": "bogus"},
            {"fading_mode": "drift", "fading_doppler": 1.0},
            {"fading_doppler": 0.1},
        ],
    )
    def test_same_rules_as_impairment_config(self, fields):
        """A Link and an ImpairmentConfig reject the same fading fields alike."""
        with pytest.raises(ConfigurationError) as config_error:
            ImpairmentConfig(**fields)
        with pytest.raises(ChannelError) as link_error:
            Link(**fields)
        assert str(link_error.value) == str(config_error.value)


class TestPowerGain:
    def test_power_gain(self):
        assert Link(attenuation=0.3).power_gain == pytest.approx(0.09)


class TestFlatPathGain:
    def test_applies_complex_gain(self, rng):
        out = Link(attenuation=0.5, phase_shift=np.pi / 2).distort(ComplexSignal([2 + 0j]), rng)
        assert out.samples[0] == pytest.approx(1j)

    def test_empty_signal_passthrough(self, rng):
        empty = ComplexSignal.silence(0)
        assert Link(attenuation=0.5, sender_cfo=0.1, fading="rayleigh").distort(empty, rng) is empty

    def test_path_cfo_rotates_progressively(self, rng):
        out = Link(frequency_offset=0.1).distort(_ones(5), rng)
        assert np.allclose(np.diff(np.angle(out.samples)), 0.1)

    def test_path_cfo_preserves_amplitude(self, rng):
        out = Link(attenuation=0.7, frequency_offset=0.05).distort(_ones(50), rng)
        assert np.allclose(np.abs(out.samples), 0.7)

    def test_phase_drift_is_seeded(self):
        link = Link(phase_drift=0.05)
        a = link.distort(_ones(100), np.random.default_rng(1))
        b = link.distort(_ones(100), np.random.default_rng(2))
        again = link.distort(_ones(100), np.random.default_rng(1))
        assert not np.allclose(a.samples, b.samples)
        assert np.array_equal(a.samples, again.samples)

    def test_phase_drift_preserves_amplitude(self, rng):
        out = Link(attenuation=0.4, phase_drift=0.05).distort(_ones(200), rng)
        assert np.allclose(np.abs(out.samples), 0.4)


class TestSenderCfo:
    def test_applies_exact_phase_ramp(self, rng):
        signal = _signal()
        out = Link(sender_cfo=0.03).distort(signal, rng)
        expected = signal.samples * np.exp(1j * (0.03 * np.arange(len(signal))))
        assert np.array_equal(out.samples, expected)

    def test_negative_offset_rotates_backwards(self, rng):
        forward = Link(sender_cfo=0.05).distort(_ones(8), rng)
        backward = Link(sender_cfo=-0.05).distort(_ones(8), rng)
        assert np.array_equal(forward.samples, np.conj(backward.samples))

    def test_preserves_amplitude(self, rng):
        signal = _signal()
        out = Link(sender_cfo=0.2).distort(signal, rng)
        assert np.allclose(np.abs(out.samples), np.abs(signal.samples))

    def test_ramp_precedes_the_path_phase(self, rng):
        signal = _signal()
        out = Link(attenuation=0.5, phase_shift=1.0, sender_cfo=0.02).distort(signal, rng)
        ramp = np.exp(1j * 0.02 * np.arange(len(signal)))
        assert np.allclose(out.samples, signal.samples * ramp * 0.5 * np.exp(1j))


class TestDelay:
    def test_delay(self, rng):
        out = Link(propagation_delay=3).distort(ComplexSignal([1 + 0j]), rng)
        assert len(out) == 4
        assert out.samples[3] == 1

    def test_zero_delay_keeps_length(self, rng):
        signal = ComplexSignal([1 + 0j, 2j])
        assert Link().distort(signal, rng) == signal

    def test_empty_signal_is_delayed(self, rng):
        out = Link(propagation_delay=5).distort(ComplexSignal.silence(0), rng)
        assert np.array_equal(out.samples, np.zeros(5))

    def test_gain_then_delay(self, rng):
        out = Link(attenuation=0.5, propagation_delay=2).distort(ComplexSignal([2 + 0j]), rng)
        assert len(out) == 3
        assert out.samples[2] == pytest.approx(1.0)


class TestFading:
    def test_same_seed_same_fades(self):
        link = Link(fading="rayleigh")
        first = link.distort(_signal(), np.random.default_rng(7))
        second = link.distort(_signal(), np.random.default_rng(7))
        assert np.array_equal(first.samples, second.samples)

    def test_different_seeds_differ(self):
        link = Link(fading="rayleigh")
        first = link.distort(_signal(), np.random.default_rng(7))
        second = link.distort(_signal(), np.random.default_rng(8))
        assert not np.array_equal(first.samples, second.samples)

    def test_block_mode_applies_one_gain(self, rng):
        signal = _signal()
        ratio = Link(fading="rician").distort(signal, rng).samples / signal.samples
        assert np.allclose(ratio, ratio[0])

    def test_drift_mode_varies_within_packet(self, rng):
        signal = _signal(256)
        link = Link(fading="rayleigh", fading_mode="drift", fading_doppler=0.05)
        ratio = link.distort(signal, rng).samples / signal.samples
        assert not np.allclose(ratio, ratio[0])


class TestDistortOrder:
    def test_default_link_draws_nothing(self):
        rng = np.random.default_rng(0)
        before = _rng_state(rng)
        out = Link(attenuation=0.8, phase_shift=0.3, noise_power=0.01).distort(_signal(), rng)
        assert _rng_state(rng) == before
        assert np.array_equal(out.samples, _signal().samples * (0.8 * np.exp(0.3j)))

    def test_impaired_link_applies_steps_as_documented(self):
        """Sender ramp, path gain with drift, fade, then delay; drift draws first."""
        link = Link(
            attenuation=0.8,
            phase_shift=-0.4,
            propagation_delay=4,
            frequency_offset=0.01,
            phase_drift=0.003,
            sender_cfo=0.03,
            fading="rician",
            fading_k_db=5.0,
            fading_mode="drift",
            fading_doppler=0.02,
            fading_los_phase=0.2,
        )
        signal = _signal(64)
        out = link.distort(signal, np.random.default_rng(5))

        rng = np.random.default_rng(5)
        n = np.arange(64)
        drift = np.cumsum(rng.normal(0.0, 0.003, 64))
        fade = fading_gains("rician", 5.0, 0.2, "drift", 0.02, 64, rng)
        expected = (
            signal.samples
            * np.exp(1j * 0.03 * n)
            * 0.8
            * np.exp(1j * (-0.4 + 0.01 * n + drift))
            * fade
        )
        assert np.allclose(out.samples, delay_signal(expected, 4).samples)

    def test_distort_never_adds_noise(self, rng):
        out = Link(noise_power=10.0).distort(ComplexSignal(np.zeros(100, dtype=complex)), rng)
        assert not np.any(out.samples)


class TestReception:
    def test_superpose_adds_the_link_noise(self):
        link = Link(noise_power=0.5)
        silence = ComplexSignal(np.zeros(10_000, dtype=complex))
        out = superpose([(silence, link, 0)], link.noise_power, np.random.default_rng(0), 0)
        assert np.mean(np.abs(out.samples) ** 2) == pytest.approx(0.5, rel=0.1)

    def test_received_snr_matches_the_noise_power(self):
        link = Link(noise_power=0.01)
        rng = np.random.default_rng(3)
        signal = _ones(100_000)
        received = superpose([(signal, link, 0)], link.noise_power, rng, 0)
        error_power = float(np.mean(np.abs(received.samples - signal.samples) ** 2))
        assert 10 * np.log10(1.0 / error_power) == pytest.approx(20.0, abs=0.5)

    def test_end_to_end_msk(self):
        bits = random_bits(200, np.random.default_rng(1))
        link = Link(attenuation=0.7, phase_shift=-0.9, frequency_offset=0.03, noise_power=1e-4)
        rng = np.random.default_rng(2)
        received = superpose([(MSKModulator().modulate(bits), link, 0)], link.noise_power, rng, 0)
        assert np.array_equal(MSKDemodulator().demodulate(received), bits)

    def test_msk_survives_a_delayed_link(self):
        bits = random_bits(128, np.random.default_rng(4))
        link = Link(
            attenuation=0.6,
            phase_shift=1.0,
            frequency_offset=0.02,
            propagation_delay=5,
            noise_power=1e-4,
        )
        rng = np.random.default_rng(5)
        received = superpose([(MSKModulator().modulate(bits), link, 0)], link.noise_power, rng, 0)
        decoded = MSKDemodulator().demodulate(received.slice(5, len(received)))
        assert np.array_equal(decoded, bits)
