"""Tests for the CRC implementations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.crc import (
    CRC16,
    CRC32,
    CRCSpec,
    _BitwiseCRC,
    check_and_strip_crc,
)
from repro.exceptions import CRCError, ConfigurationError
from repro.utils.bits import random_bits


def reference_crc(spec: CRCSpec, bits) -> int:
    """Bit-at-a-time MSB-first division, the definition the engine must match."""
    mask = (1 << spec.width) - 1
    register = spec.initial & mask
    for bit in bits:
        incoming = int(bit) ^ ((register >> (spec.width - 1)) & 1)
        register = (register << 1) & mask
        if incoming:
            register ^= spec.polynomial & mask
    return register


#: The two production CRCs plus narrow and odd widths, and a second
#: CCITT-polynomial CRC, which takes the ``binascii.crc_hqx`` path from
#: another initial value.
SPECS = [
    CRC16.spec,
    CRC32.spec,
    CRCSpec(width=16, polynomial=0x1021, initial=0x0000, name="CRC-16/XMODEM"),
    CRCSpec(width=3, polynomial=0x3, initial=0x7, name="CRC-3"),
    CRCSpec(width=5, polynomial=0x25, initial=0x1F, name="CRC-5 (poly wider than width)"),
    CRCSpec(width=8, polynomial=0x07, initial=0x00, name="CRC-8"),
    CRCSpec(width=12, polynomial=0x80F, initial=0x123, name="CRC-12"),
]


class TestCRC16:
    def test_append_and_verify(self):
        data = random_bits(120, np.random.default_rng(0))
        coded = CRC16.append(data)
        assert coded.size == 120 + 16
        assert CRC16.verify(coded)

    def test_detects_single_bit_error(self):
        data = random_bits(120, np.random.default_rng(1))
        coded = CRC16.append(data)
        for position in (0, 50, coded.size - 1):
            corrupted = coded.copy()
            corrupted[position] ^= 1
            assert not CRC16.verify(corrupted)

    def test_detects_burst_errors(self):
        data = random_bits(200, np.random.default_rng(2))
        coded = CRC16.append(data)
        corrupted = coded.copy()
        corrupted[40:52] ^= 1
        assert not CRC16.verify(corrupted)

    def test_strip_returns_payload(self):
        data = random_bits(64, np.random.default_rng(3))
        assert np.array_equal(CRC16.strip(CRC16.append(data)), data)

    def test_strip_raises_on_corruption(self):
        data = random_bits(64, np.random.default_rng(4))
        coded = CRC16.append(data)
        coded[3] ^= 1
        with pytest.raises(CRCError):
            CRC16.strip(coded)

    def test_too_short_fails_verification(self):
        assert not CRC16.verify(random_bits(8, np.random.default_rng(5)))

    def test_deterministic(self):
        data = random_bits(64, np.random.default_rng(6))
        assert CRC16.compute(data) == CRC16.compute(data)

    def test_empty_payload(self):
        coded = CRC16.append(np.array([], dtype=np.uint8))
        assert coded.size == 16
        assert CRC16.verify(coded)


class TestCRC32:
    def test_roundtrip(self):
        data = random_bits(256, np.random.default_rng(7))
        assert CRC32.verify(CRC32.append(data))

    def test_detects_error(self):
        data = random_bits(256, np.random.default_rng(8))
        coded = CRC32.append(data)
        coded[100] ^= 1
        assert not CRC32.verify(coded)


class TestKnownAnswers:
    CHECK = np.unpackbits(np.frombuffer(b"123456789", dtype=np.uint8))

    def test_crc16_ccitt_false_check_value(self):
        assert CRC16.compute(self.CHECK) == 0x29B1

    def test_crc32_mpeg2_check_value(self):
        assert CRC32.compute(self.CHECK) == 0x0376E6E7


class TestByteTableMatchesBitwise:
    @settings(max_examples=300, deadline=None)
    @given(
        spec=st.sampled_from(SPECS),
        bits=st.lists(st.integers(0, 1), min_size=0, max_size=800),
    )
    def test_matches_reference(self, spec, bits):
        data = np.array(bits, dtype=np.uint8)
        assert _BitwiseCRC(spec).compute(data) == reference_crc(spec, data)

    @pytest.mark.parametrize(
        "length", [0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 299, 300, 768, 784, 800]
    )
    def test_byte_boundaries(self, length):
        data = random_bits(length, np.random.default_rng(length))
        for spec in SPECS:
            assert _BitwiseCRC(spec).compute(data) == reference_crc(spec, data)

    def test_appended_bits_encode_the_reference_register(self):
        data = random_bits(123, np.random.default_rng(12))
        coded = CRC32.append(data)
        assert CRC32.verify(coded)
        assert int("".join(map(str, coded[-32:])), 2) == reference_crc(CRC32.spec, data)


class TestHelpers:
    def test_append_crc_default(self):
        data = random_bits(32, np.random.default_rng(9))
        assert CRC16.append(data).size == 48

    def test_check_and_strip_ok(self):
        data = random_bits(32, np.random.default_rng(10))
        payload, ok = check_and_strip_crc(CRC16.append(data))
        assert ok
        assert np.array_equal(payload, data)

    def test_check_and_strip_corrupted_does_not_raise(self):
        data = random_bits(32, np.random.default_rng(11))
        coded = CRC16.append(data)
        coded[0] ^= 1
        payload, ok = check_and_strip_crc(coded)
        assert not ok
        assert payload.size == 32

    def test_check_and_strip_too_short(self):
        payload, ok = check_and_strip_crc(np.array([1, 0, 1], dtype=np.uint8))
        assert not ok


class TestSpecValidation:
    @pytest.mark.parametrize(
        "width, polynomial, match",
        [
            (0, 0x07, "CRC width must be positive"),
            (-8, 0x07, "CRC width must be positive"),
            (8, 0, "CRC polynomial must be positive"),
        ],
    )
    def test_degenerate_spec_rejected(self, width, polynomial, match):
        with pytest.raises(ConfigurationError, match=match):
            CRCSpec(width=width, polynomial=polynomial, initial=0, name="bad")
