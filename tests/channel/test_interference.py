"""Tests for the one superposition primitive and the overlap model."""

import numpy as np
import pytest

from repro.channel.interference import MIN_COLLISION_OFFSET, OverlapModel, superpose
from repro.channel.link import Link
from repro.exceptions import ChannelError
from repro.framing.header import Header
from repro.framing.pilot import PilotSequence
from repro.modulation.msk import MSKModulator
from repro.signal.noise import complex_gaussian_noise
from repro.utils.bits import random_bits


def _burst(seed, n=100, amplitude=1.0):
    return MSKModulator(amplitude=amplitude).modulate(random_bits(n, np.random.default_rng(seed)))


def _rng(seed=0):
    return np.random.default_rng(seed)


class TestOverlapModel:
    def test_offsets_within_packet(self):
        model = OverlapModel(mean_overlap=0.8, rng=np.random.default_rng(0))
        first, second = model.draw_offsets(1000)
        assert first == 0
        assert 0 <= second < 1000

    def test_mean_overlap_statistics(self):
        model = OverlapModel(mean_overlap=0.8, jitter=0.05, rng=np.random.default_rng(1))
        offsets = [model.draw_offsets(1000)[1] for _ in range(500)]
        measured_overlap = 1.0 - np.mean(offsets) / 1000
        assert measured_overlap == pytest.approx(0.8, abs=0.02)

    def test_min_offset_enforced(self):
        model = OverlapModel(mean_overlap=1.0, rng=np.random.default_rng(2))
        offsets = [model.draw_offsets(1000)[1] for _ in range(50)]
        assert min(offsets) == MIN_COLLISION_OFFSET

    def test_min_offset_capped_by_packet_length(self):
        model = OverlapModel(mean_overlap=1.0, rng=np.random.default_rng(3))
        _, offset = model.draw_offsets(100)
        assert offset == 99

    def test_floor_is_pilot_plus_header_plus_margin(self):
        """§7.2: the pilot and header of both packets stay interference-free."""
        assert MIN_COLLISION_OFFSET == PilotSequence().length + Header.ENCODED_LENGTH + 24

    def test_invalid_parameters(self):
        rng = np.random.default_rng(4)
        with pytest.raises(Exception):
            OverlapModel(mean_overlap=1.5, rng=rng)
        with pytest.raises(ChannelError):
            OverlapModel(rng=rng).draw_offsets(0)


class TestSuperpose:
    def test_composite_is_sum_of_distorted_components(self):
        a, b = _burst(0), _burst(1, amplitude=0.7)
        link_a = Link(attenuation=0.9, phase_shift=0.3)
        link_b = Link(attenuation=0.6, phase_shift=-1.0)
        composite = superpose([(a, link_a, 0), (b, link_b, 30)], 0.0, _rng(), 0)
        manual = np.zeros(30 + len(b), dtype=complex)
        manual[: len(a)] += link_a.distort(a, _rng()).samples
        manual[30 : 30 + len(b)] += link_b.distort(b, _rng()).samples
        assert np.allclose(composite.samples, manual)

    def test_single_component_is_its_distorted_signal(self):
        a = _burst(4)
        link = Link(attenuation=0.4, phase_shift=1.1)
        composite = superpose([(a, link, 0)], 0.0, _rng(), 0)
        assert np.allclose(composite.samples, link.distort(a, _rng()).samples)

    def test_component_past_the_requested_length_extends_the_composite(self):
        a = _burst(15, n=20)
        composite = superpose([(a, Link(attenuation=0.5), 50)], 0.0, _rng(), 10)
        assert len(composite) == 50 + len(a)
        assert np.array_equal(composite.samples[:50], np.zeros(50))
        assert np.allclose(composite.samples[50:], 0.5 * a.samples)

    def test_same_seed_gives_the_same_composite(self):
        a, b = _burst(16), _burst(17)
        link_a = Link(fading="rayleigh", frequency_offset=0.01)
        link_b = Link(fading="rician", phase_shift=0.4)
        components = [(a, link_a, 0), (b, link_b, 25)]
        first = superpose(components, 0.02, _rng(3), 0)
        second = superpose(components, 0.02, _rng(3), 0)
        assert np.array_equal(first.samples, second.samples)
        assert not np.array_equal(first.samples, superpose(components, 0.02, _rng(4), 0).samples)

    def test_inputs_are_not_modified(self):
        a, b = _burst(18), _burst(19)
        before = (a.samples.copy(), b.samples.copy())
        superpose([(a, Link(attenuation=0.3), 0), (b, Link(phase_shift=2.0), 10)], 0.1, _rng(), 0)
        assert np.array_equal(a.samples, before[0])
        assert np.array_equal(b.samples, before[1])

    def test_rng_draws_each_distortion_in_order_then_the_noise(self):
        a, b = _burst(2), _burst(3)
        link_a = Link(fading="rayleigh", fading_mode="drift", fading_doppler=0.01)
        link_b = Link(fading="rician", phase_shift=0.4)
        composite = superpose([(a, link_a, 0), (b, link_b, 20)], 0.05, _rng(9), 150)
        rng = _rng(9)
        manual = np.zeros(150, dtype=complex)
        manual[: len(a)] += link_a.distort(a, rng=rng).samples
        manual[20 : 20 + len(b)] += link_b.distort(b, rng=rng).samples
        manual += complex_gaussian_noise(150, 0.05, rng)
        assert np.array_equal(composite.samples, manual)

    @pytest.mark.parametrize("extra, expected_extra", [(-101, 0), (-1, 0), (0, 0), (25, 25)])
    def test_length_is_at_least_the_latest_end(self, extra, expected_extra):
        a = _burst(5)
        end = 10 + len(a)
        composite = superpose([(a, Link(), 10)], 0.0, _rng(), end + extra)
        assert len(composite) == end + expected_extra

    def test_order_of_deterministic_components_does_not_matter(self):
        a, b = _burst(11), _burst(12, n=60)
        link_a, link_b = Link(attenuation=0.9, phase_shift=0.3), Link(attenuation=0.5)
        forward = superpose([(a, link_a, 0), (b, link_b, 33)], 0.0, _rng(), 0)
        backward = superpose([(b, link_b, 33), (a, link_a, 0)], 0.0, _rng(), 0)
        assert np.allclose(forward.samples, backward.samples)

    def test_noiseless_superposition_is_linear(self):
        a, b = _burst(13), _burst(14)
        link_a, link_b = Link(attenuation=0.7, frequency_offset=0.02), Link(phase_shift=-2.0)
        both = superpose([(a, link_a, 0), (b, link_b, 45)], 0.0, _rng(), 200)
        only_a = superpose([(a, link_a, 0)], 0.0, _rng(), 200)
        only_b = superpose([(b, link_b, 45)], 0.0, _rng(), 200)
        assert np.allclose(both.samples, only_a.samples + only_b.samples)

    def test_noise_added(self):
        a = _burst(6)
        noisy = superpose([(a, Link(), 0)], 0.1, _rng(7), 0)
        clean = superpose([(a, Link(), 0)], 0.0, _rng(7), 0)
        assert not np.allclose(noisy.samples, clean.samples)
        assert np.array_equal(clean.samples, a.samples)

    def test_no_component_is_noise_of_the_requested_length(self):
        assert np.array_equal(superpose([], 0.0, _rng(), 12).samples, np.zeros(12))
        noise = superpose([], 0.1, _rng(8), 12)
        assert np.array_equal(noise.samples, complex_gaussian_noise(12, 0.1, _rng(8)))

    def test_negative_offset_rejected(self):
        with pytest.raises(ChannelError):
            superpose([(_burst(10), Link(), -5)], 0.0, _rng(), 0)

    def test_negative_noise_power_rejected(self):
        with pytest.raises(ChannelError, match="noise power must be non-negative"):
            superpose([(_burst(10), Link(), 0)], -0.1, _rng(), 0)
