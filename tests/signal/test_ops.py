"""Tests for structural signal operations."""

import numpy as np
import pytest

from repro.exceptions import ChannelError
from repro.signal.ops import delay_signal, overlap_add
from repro.signal.samples import ComplexSignal


class TestDelaySignal:
    def test_prepends_zeros(self):
        out = delay_signal(ComplexSignal([1 + 0j]), 3)
        assert len(out) == 4
        assert np.all(out.samples[:3] == 0)
        assert out.samples[3] == 1

    def test_zero_delay(self):
        sig = ComplexSignal([1 + 0j, 2 + 0j])
        assert delay_signal(sig, 0) == sig

    def test_total_length_pads(self):
        out = delay_signal(ComplexSignal([1 + 0j]), 1, total_length=5)
        assert len(out) == 5

    def test_total_length_truncates(self):
        out = delay_signal(ComplexSignal(np.ones(10, dtype=complex)), 0, total_length=4)
        assert len(out) == 4

    def test_negative_delay_rejected(self):
        with pytest.raises(ChannelError):
            delay_signal(ComplexSignal([1 + 0j]), -1)

    def test_negative_total_length_rejected(self):
        with pytest.raises(ChannelError, match="total_length must be non-negative"):
            delay_signal(ComplexSignal([1 + 0j]), 0, total_length=-1)

    def test_accepts_raw_sample_array(self):
        out = delay_signal(np.array([1.0, 2.0]), 2)
        assert isinstance(out, ComplexSignal)
        assert np.array_equal(out.samples, [0, 0, 1, 2])


class TestOverlapAdd:
    def test_offsets_respected(self):
        a = ComplexSignal([1 + 0j, 1 + 0j])
        b = ComplexSignal([2 + 0j, 2 + 0j])
        out = overlap_add([(a, 0), (b, 1)])
        assert np.array_equal(out.samples, [1, 3, 2])

    def test_total_length_padding(self):
        out = overlap_add([(ComplexSignal([1 + 0j]), 0)], total_length=4)
        assert len(out) == 4

    def test_component_beyond_length_ignored(self):
        out = overlap_add([(ComplexSignal([1 + 0j]), 10)], total_length=5)
        assert np.all(out.samples == 0)

    def test_negative_offset_rejected(self):
        with pytest.raises(ChannelError):
            overlap_add([(ComplexSignal([1 + 0j]), -1)])

    def test_no_components_rejected(self):
        with pytest.raises(ChannelError, match="at least one component"):
            overlap_add([])

    def test_negative_total_length_rejected(self):
        with pytest.raises(ChannelError, match="total_length must be non-negative"):
            overlap_add([(ComplexSignal([1 + 0j]), 0)], total_length=-3)

    def test_collision_is_sum_of_delayed_components(self):
        rng = np.random.default_rng(0)
        a = ComplexSignal(rng.normal(size=20) + 1j * rng.normal(size=20))
        b = ComplexSignal(rng.normal(size=20) + 1j * rng.normal(size=20))
        composite = overlap_add([(a, 0), (b, 5)])
        manual = delay_signal(a, 0, total_length=25).samples + delay_signal(
            b, 5, total_length=25
        ).samples
        assert np.allclose(composite.samples, manual)
