"""Tests for pilot sequences and pilot search.

The search runs on bits the receiver demodulated itself, so it is tested
through the private cores the receive chain calls.
"""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.framing.pilot import PilotSequence, _find_all_pilots, _find_pilot
from repro.utils.bits import random_bits


class TestPilotSequence:
    def test_default_length(self):
        assert PilotSequence().bits.size == 64

    def test_deterministic(self):
        assert np.array_equal(PilotSequence().bits, PilotSequence().bits)

    @pytest.mark.parametrize("length", [0, -64])
    def test_non_positive_length_rejected(self, length):
        with pytest.raises(ConfigurationError, match="pilot length must be positive"):
            PilotSequence(length=length)


class TestFindPilot:
    def test_finds_at_offset(self):
        pilot = PilotSequence()
        rng = np.random.default_rng(0)
        stream = np.concatenate([random_bits(37, rng), pilot.bits, random_bits(50, rng)])
        assert _find_pilot(stream, pilot, 4, None) == 37

    def test_finds_at_start(self):
        pilot = PilotSequence()
        stream = np.concatenate([pilot.bits, random_bits(10, np.random.default_rng(1))])
        assert _find_pilot(stream, pilot, 4, None) == 0

    def test_tolerates_bit_errors(self):
        pilot = PilotSequence()
        corrupted = pilot.bits.copy()
        corrupted[[3, 17, 40]] ^= 1
        stream = np.concatenate([random_bits(20, np.random.default_rng(2)), corrupted])
        assert _find_pilot(stream, pilot, 4, None) == 20

    def test_returns_none_when_absent(self):
        pilot = PilotSequence()
        stream = random_bits(200, np.random.default_rng(3))
        assert _find_pilot(stream, pilot, 2, None) is None

    def test_returns_none_for_short_stream(self):
        assert _find_pilot(random_bits(10, np.random.default_rng(4)), PilotSequence(), 4, None) is None

    def test_search_limit(self):
        pilot = PilotSequence()
        stream = np.concatenate([random_bits(100, np.random.default_rng(5)), pilot.bits])
        assert _find_pilot(stream, pilot, 4, 50) is None
        assert _find_pilot(stream, pilot, 4, 150) == 100


class TestFindAllPilots:
    def test_finds_two_pilots(self):
        pilot = PilotSequence()
        rng = np.random.default_rng(6)
        stream = np.concatenate(
            [pilot.bits, random_bits(40, rng), pilot.bits, random_bits(10, rng)]
        )
        found = _find_all_pilots(stream, pilot, 4, None)
        assert set(found) == {0, 104}

    def test_best_match_first(self):
        pilot = PilotSequence()
        corrupted = pilot.bits.copy()
        corrupted[0] ^= 1
        stream = np.concatenate([corrupted, np.zeros(16, dtype=np.uint8), pilot.bits])
        found = _find_all_pilots(stream, pilot, 2, None)
        assert found[0] == 80  # the exact match outranks the 1-error match

    def test_overlapping_matches_suppressed(self):
        pilot = PilotSequence()
        stream = np.concatenate([pilot.bits, pilot.bits])
        found = _find_all_pilots(stream, pilot, 0, None)
        assert found == [0, 64]

    def test_empty_when_absent(self):
        assert _find_all_pilots(random_bits(128, np.random.default_rng(7)), PilotSequence(), 1, None) == []


def reference_window_scores(bits, pilot, search_limit):
    """(errors, start) of every window, one at a time as a receiver would slide."""
    last_start = bits.size - pilot.length
    if search_limit is not None:
        last_start = min(last_start, max(int(search_limit), 0))
    return [
        (int(np.count_nonzero(bits[start : start + pilot.length] != pilot.bits)), start)
        for start in range(last_start + 1)
    ]


class TestVectorisedSearchMatchesWindowLoop:
    def test_ties_and_limits(self):
        pilot = PilotSequence(length=8)
        rng = np.random.default_rng(21)
        for trial in range(300):
            bits = random_bits(int(rng.integers(0, 60)), rng)
            max_errors = int(rng.integers(-1, 6))
            limit = None if trial % 3 else int(rng.integers(-3, 50))
            scored = reference_window_scores(bits, pilot, limit)
            in_range = sorted(s for s in scored if s[0] <= max_errors)
            expected_all = []
            for _, start in in_range:
                if all(abs(start - chosen) >= pilot.length for chosen in expected_all):
                    expected_all.append(start)
            # The first window with the fewest errors wins a tie.
            expected_one = in_range[0][1] if in_range else None
            assert _find_all_pilots(bits, pilot, max_errors, limit) == expected_all
            assert _find_pilot(bits, pilot, max_errors, limit) == expected_one


class TestPilotBitsAreShared:
    def test_bits_cannot_be_written(self):
        bits = PilotSequence().bits
        assert not bits.flags.writeable
        with pytest.raises(ValueError):
            bits[0] ^= 1
        with pytest.raises(ValueError):
            bits.setflags(write=True)

    def test_equal_pilots_share_one_array(self):
        assert PilotSequence().bits is PilotSequence().bits
        assert PilotSequence(length=8).bits is PilotSequence(length=8).bits
