"""Tests for the frame header."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.crc import CRC16
from repro.constants import HEADER_DST_BITS, HEADER_SEQ_BITS, HEADER_SRC_BITS
from repro.exceptions import HeaderError
from repro.framing.header import Header
from repro.utils.bits import bits_from_int


def reference_header_bits(source: int, destination: int, sequence: int) -> np.ndarray:
    """The per-bit encoding: each field MSB first, then ``CRC16.append``."""
    fields = np.concatenate(
        [
            bits_from_int(source, HEADER_SRC_BITS),
            bits_from_int(destination, HEADER_DST_BITS),
            bits_from_int(sequence, HEADER_SEQ_BITS),
        ]
    )
    return CRC16.append(fields)


class TestHeader:
    def test_roundtrip(self):
        header = Header(source=5, destination=9, sequence=1234)
        assert Header.from_bits(header.to_bits()) == header

    def test_encoded_length(self):
        assert Header(1, 2, 3).to_bits().size == Header.ENCODED_LENGTH

    def test_crc_detects_corruption(self):
        bits = Header(1, 2, 3).to_bits()
        bits[5] ^= 1
        with pytest.raises(HeaderError):
            Header.from_bits(bits)

    def test_wrong_length_rejected(self):
        with pytest.raises(HeaderError):
            Header.from_bits(np.zeros(10, dtype=np.uint8))

    def test_field_ranges_validated(self):
        with pytest.raises(HeaderError):
            Header(source=256, destination=0, sequence=0)
        with pytest.raises(HeaderError):
            Header(source=0, destination=256, sequence=0)
        with pytest.raises(HeaderError):
            Header(source=0, destination=0, sequence=1 << 16)
        with pytest.raises(HeaderError):
            Header(source=-1, destination=0, sequence=0)

    def test_boundary_values(self):
        header = Header(source=255, destination=255, sequence=(1 << 16) - 1)
        assert Header.from_bits(header.to_bits()) == header

    def test_identity(self):
        assert Header(1, 2, 3).identity == (1, 2, 3)

    def test_distinct_headers_have_distinct_bits(self):
        a = Header(1, 2, 3).to_bits()
        b = Header(1, 2, 4).to_bits()
        assert not np.array_equal(a, b)


class TestBytesCodecMatchesPerBitReference:
    """``to_bits``/``_decode`` work on bytes; the per-bit encoding is the definition."""

    BOUNDARY_IDS = (0, 1, 127, 128, 255)
    BOUNDARY_SEQUENCES = (0, 1, 255, 256, 65534, 65535)

    @pytest.mark.parametrize("sequence", BOUNDARY_SEQUENCES)
    @pytest.mark.parametrize("destination", BOUNDARY_IDS)
    @pytest.mark.parametrize("source", BOUNDARY_IDS)
    def test_boundary_ids(self, source, destination, sequence):
        bits = Header(source, destination, sequence).to_bits()
        assert bits.dtype == np.uint8
        assert np.array_equal(bits, reference_header_bits(source, destination, sequence))
        assert Header._decode(bits) == Header(source, destination, sequence)

    @settings(max_examples=300, deadline=None)
    @given(
        source=st.integers(0, (1 << HEADER_SRC_BITS) - 1),
        destination=st.integers(0, (1 << HEADER_DST_BITS) - 1),
        sequence=st.integers(0, (1 << HEADER_SEQ_BITS) - 1),
    )
    def test_sweep(self, source, destination, sequence):
        reference = reference_header_bits(source, destination, sequence)
        assert np.array_equal(Header(source, destination, sequence).to_bits(), reference)
        assert Header._decode(reference) == Header(source, destination, sequence)

    def test_numpy_integer_fields_encode_like_ints(self):
        header = Header(np.uint8(255), np.int64(7), np.uint16(65535))
        assert np.array_equal(header.to_bits(), reference_header_bits(255, 7, 65535))

    @pytest.mark.parametrize("fields", [(0, 0, 0), (1, 2, 3), (255, 255, 65535), (90, 17, 40000)])
    def test_decode_rejects_a_flip_exactly_when_the_crc_does(self, fields):
        encoded = Header(*fields).to_bits()
        for position in range(Header.ENCODED_LENGTH):
            flipped = encoded.copy()
            flipped[position] ^= 1
            crc_rejects = not CRC16.verify(flipped)
            try:
                Header._decode(flipped)
                decode_rejects = False
            except HeaderError:
                decode_rejects = True
            assert decode_rejects == crc_rejects
            assert decode_rejects
