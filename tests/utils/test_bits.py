"""Tests for bit-array helpers."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.utils.bits import (
    _int_from_bits,
    as_bit_array,
    bits_from_int,
    decoded_ber,
    random_bits,
    string_to_bits,
)


class TestConversion:
    def test_string_roundtrip(self):
        assert string_to_bits("101101").tolist() == [1, 0, 1, 1, 0, 1]

    def test_string_rejects_non_binary(self):
        with pytest.raises(ConfigurationError):
            string_to_bits("10201")

    def test_int_roundtrip(self):
        assert _int_from_bits(bits_from_int(173, 8)) == 173

    def test_int_width_is_respected(self):
        assert bits_from_int(5, 8).size == 8

    def test_int_msb_first(self):
        assert bits_from_int(1, 4).tolist() == [0, 0, 0, 1]
        assert bits_from_int(8, 4).tolist() == [1, 0, 0, 0]

    def test_int_too_large_raises(self):
        with pytest.raises(ConfigurationError):
            bits_from_int(16, 4)

    def test_negative_int_raises(self):
        with pytest.raises(ConfigurationError):
            bits_from_int(-1, 4)

    def test_as_bit_array_rejects_twos(self):
        with pytest.raises(ConfigurationError):
            as_bit_array([0, 1, 2])

    def test_as_bit_array_accepts_string(self):
        assert np.array_equal(as_bit_array("0110"), [0, 1, 1, 0])

    def test_as_bit_array_accepts_whole_floats(self):
        out = as_bit_array([0.0, 1.0])
        assert out.dtype == np.uint8
        assert out.tolist() == [0, 1]

    @pytest.mark.parametrize("bad", [256, -1, 0.7, 1.9])
    def test_as_bit_array_checks_values_before_the_cast(self, bad):
        # A cast first would wrap 256 to 0 and truncate 0.7 / 1.9 to bits.
        with pytest.raises(ConfigurationError):
            as_bit_array([0, 1, bad])
        with pytest.raises(ConfigurationError):
            as_bit_array(np.array([1, bad]))

    def test_as_bit_array_rejects_large_uint8(self):
        with pytest.raises(ConfigurationError):
            as_bit_array(np.array([0, 1, 2], dtype=np.uint8))

    def test_as_bit_array_accepts_bool(self):
        out = as_bit_array(np.array([True, False, True]))
        assert out.dtype == np.uint8
        assert out.tolist() == [1, 0, 1]

    def test_as_bit_array_returns_a_copy(self):
        source = np.array([0, 1, 1], dtype=np.uint8)
        as_bit_array(source)[0] = 1
        assert source.tolist() == [0, 1, 1]

    def test_int_roundtrip_wide_and_unaligned(self):
        for width in (1, 7, 9, 33, 64, 65, 100):
            for value in (0, 1, (1 << width) - 1, (1 << width) // 3):
                bits = bits_from_int(value, width)
                assert bits.dtype == np.uint8
                assert bits.size == width
                assert _int_from_bits(bits) == value


class TestRandomBits:
    def test_length(self):
        assert random_bits(100, np.random.default_rng(0)).size == 100

    def test_deterministic_with_seed(self):
        a = random_bits(64, np.random.default_rng(5))
        b = random_bits(64, np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_negative_length_raises(self):
        with pytest.raises(ConfigurationError):
            random_bits(-1, np.random.default_rng(0))

    def test_values_are_binary(self):
        bits = random_bits(500, np.random.default_rng(1))
        assert set(np.unique(bits)) <= {0, 1}


class TestDistance:
    def test_decoded_ber_counts_errors(self):
        truth = np.array([0, 1, 0, 1], dtype=np.uint8)
        flipped = np.array([1, 1, 0, 1], dtype=np.uint8)
        assert decoded_ber(truth, flipped) == pytest.approx(0.25)

    def test_decoded_ber_missing_decode_is_half(self):
        assert decoded_ber(np.array([0, 1, 0, 1], dtype=np.uint8), None) == 0.5

    def test_decoded_ber_mis_sized_decode_is_half(self):
        truth = np.array([0, 1, 0, 1], dtype=np.uint8)
        assert decoded_ber(truth, np.array([0, 1], dtype=np.uint8)) == 0.5
        assert decoded_ber(truth, np.zeros(6, dtype=np.uint8)) == 0.5


class TestIntGuards:
    @pytest.mark.parametrize("width", [0, -4])
    def test_non_positive_width_rejected(self, width):
        with pytest.raises(ConfigurationError, match="bit width must be positive"):
            bits_from_int(0, width)
