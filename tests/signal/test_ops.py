"""Tests for structural signal operations."""

import numpy as np
import pytest

from repro.exceptions import ChannelError
from repro.signal.ops import overlap_add
from repro.signal.samples import ComplexSignal


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
        manual = np.pad(a.samples, (0, 5)) + np.pad(b.samples, (5, 0))
        assert np.allclose(composite.samples, manual)
