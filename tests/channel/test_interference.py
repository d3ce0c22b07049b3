"""Tests for the interference combiner and overlap model."""

import numpy as np
import pytest

from repro.channel.interference import InterferenceCombiner, OverlapModel
from repro.channel.link import Link
from repro.exceptions import ChannelError
from repro.modulation.msk import MSKModulator
from repro.utils.bits import random_bits


def _burst(seed, n=100, amplitude=1.0):
    return MSKModulator(amplitude=amplitude).modulate(random_bits(n, np.random.default_rng(seed)))


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
        model = OverlapModel(mean_overlap=1.0, min_offset=150, rng=np.random.default_rng(2))
        for _ in range(50):
            _, offset = model.draw_offsets(1000)
            assert offset >= 150

    def test_min_offset_capped_by_packet_length(self):
        model = OverlapModel(mean_overlap=1.0, min_offset=5000, rng=np.random.default_rng(3))
        _, offset = model.draw_offsets(100)
        assert offset <= 99

    def test_slot_delays_in_range(self):
        model = OverlapModel(rng=np.random.default_rng(4))
        for _ in range(100):
            first, second = model.draw_slot_delays()
            assert 1 <= first <= 32
            assert 1 <= second <= 32

    def test_invalid_parameters(self):
        with pytest.raises(Exception):
            OverlapModel(mean_overlap=1.5)
        with pytest.raises(ChannelError):
            OverlapModel(min_offset=-1)
        with pytest.raises(ChannelError):
            OverlapModel().draw_offsets(0)


class TestInterferenceCombiner:
    def test_composite_is_sum_of_distorted_components(self):
        a, b = _burst(0), _burst(1, amplitude=0.7)
        link_a = Link(attenuation=0.9, phase_shift=0.3)
        link_b = Link(attenuation=0.6, phase_shift=-1.0)
        combiner = InterferenceCombiner(noise_power=0.0)
        result = combiner.combine([(a, link_a, 0), (b, link_b, 30)])
        manual = np.zeros(len(result.signal), dtype=complex)
        manual[: len(a)] += link_a.distort(a).samples
        manual[30 : 30 + len(b)] += link_b.distort(b).samples
        assert np.allclose(result.signal.samples, manual)

    def test_overlap_fraction(self):
        a, b = _burst(2), _burst(3)
        combiner = InterferenceCombiner()
        result = combiner.combine([(a, Link(), 0), (b, Link(), 20)])
        expected = (len(a) - 20) / len(a)
        assert result.overlap_fraction == pytest.approx(expected)

    def test_single_component_full_overlap(self):
        result = InterferenceCombiner().combine([(_burst(4), Link(), 0)])
        assert result.overlap_fraction == 1.0

    def test_tail_padding(self):
        a = _burst(5)
        result = InterferenceCombiner().combine([(a, Link(), 0)], tail_padding=25)
        assert len(result.signal) == len(a) + 25

    def test_noise_added(self):
        a = _burst(6)
        noisy = InterferenceCombiner(noise_power=0.1, rng=np.random.default_rng(7)).combine(
            [(a, Link(), 0)]
        )
        clean = InterferenceCombiner(noise_power=0.0).combine([(a, Link(), 0)])
        assert not np.allclose(noisy.signal.samples, clean.signal.samples)

    def test_offsets_recorded(self):
        result = InterferenceCombiner().combine([(_burst(8), Link(), 0), (_burst(9), Link(), 40)])
        assert result.offsets == (0, 40)

    def test_empty_components_rejected(self):
        with pytest.raises(ChannelError):
            InterferenceCombiner().combine([])

    def test_negative_offset_rejected(self):
        with pytest.raises(ChannelError):
            InterferenceCombiner().combine([(_burst(10), Link(), -5)])

    def test_negative_noise_power_rejected(self):
        with pytest.raises(ChannelError, match="noise power must be non-negative"):
            InterferenceCombiner(noise_power=-0.1)
