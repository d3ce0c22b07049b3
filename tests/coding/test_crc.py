"""Tests for the CRC-16/CCITT-FALSE engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.crc import CRC16, CRC_INITIAL, CRC_POLYNOMIAL, CRC_WIDTH
from repro.utils.bits import random_bits


def reference_crc(bits) -> int:
    """Bit-at-a-time MSB-first division, the definition the engine must match."""
    mask = (1 << CRC_WIDTH) - 1
    register = CRC_INITIAL
    for bit in bits:
        incoming = int(bit) ^ ((register >> (CRC_WIDTH - 1)) & 1)
        register = (register << 1) & mask
        if incoming:
            register ^= CRC_POLYNOMIAL
    return register


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

    def test_too_short_fails_verification(self):
        assert not CRC16.verify(random_bits(8, np.random.default_rng(5)))

    def test_deterministic(self):
        data = random_bits(64, np.random.default_rng(6))
        assert CRC16.compute(data) == CRC16.compute(data)

    def test_empty_payload(self):
        coded = CRC16.append(np.array([], dtype=np.uint8))
        assert coded.size == 16
        assert CRC16.verify(coded)


class TestKnownAnswers:
    CHECK = np.unpackbits(np.frombuffer(b"123456789", dtype=np.uint8))

    def test_crc16_ccitt_false_check_value(self):
        assert CRC16.compute(self.CHECK) == 0x29B1


class TestByteTableMatchesBitwise:
    @settings(max_examples=300, deadline=None)
    @given(bits=st.lists(st.integers(0, 1), min_size=0, max_size=800))
    def test_matches_reference(self, bits):
        data = np.array(bits, dtype=np.uint8)
        assert CRC16.compute(data) == reference_crc(data)

    @pytest.mark.parametrize(
        "length", [0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 299, 300, 768, 784, 800]
    )
    def test_byte_boundaries(self, length):
        data = random_bits(length, np.random.default_rng(length))
        assert CRC16.compute(data) == reference_crc(data)

    def test_appended_bits_encode_the_reference_register(self):
        data = random_bits(123, np.random.default_rng(12))
        coded = CRC16.append(data)
        assert CRC16.verify(coded)
        assert int("".join(map(str, coded[-16:])), 2) == reference_crc(data)


class TestHelpers:
    def test_append_crc_default(self):
        data = random_bits(32, np.random.default_rng(9))
        assert CRC16.append(data).size == 48
