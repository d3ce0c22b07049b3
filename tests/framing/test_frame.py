"""Tests for the framer and deframer (Fig. 6 layout)."""

import numpy as np
import pytest

from repro.exceptions import FramingError
from repro.framing.frame import FrameLayout
from repro.framing.header import Header
from repro.framing.packet import Packet
from repro.framing.pilot import PilotSequence


@pytest.fixture
def packet(rng):
    return Packet.random(source=3, destination=4, sequence=42, payload_bits=256, rng=rng)


class TestFrameLayout:
    def test_total_length(self):
        layout = FrameLayout(pilot_length=64, header_length=48, payload_length=256)
        assert layout.total_length == 64 + 48 + 272 + 48 + 64

    def test_field_offsets_are_contiguous(self):
        layout = FrameLayout(pilot_length=64, header_length=48, payload_length=128)
        assert layout.header_start == 64
        assert layout.payload_start == 112
        assert layout.trailing_header_start == 112 + 144
        assert layout.trailing_header_start + 48 + 64 == layout.total_length


class TestFramer:
    def test_frame_length_matches_layout(self, framer, packet):
        frame = framer.build(packet)
        assert frame.length == framer.layout_for(packet.payload_length).total_length

    def test_frame_bits_are_read_only(self, framer, packet):
        frame = framer.build(packet)
        with pytest.raises(ValueError, match="read-only"):
            frame.bits[0] ^= 1
        with pytest.raises(ValueError):
            frame.bits.setflags(write=True)

    def test_frame_starts_with_pilot(self, framer, packet):
        frame = framer.build(packet)
        assert np.array_equal(frame.bits[:64], PilotSequence().bits)

    def test_frame_ends_with_mirrored_pilot(self, framer, packet):
        frame = framer.build(packet)
        assert np.array_equal(frame.bits[-64:], PilotSequence().bits[::-1])

    def test_header_follows_pilot(self, framer, packet):
        frame = framer.build(packet)
        header_bits = frame.bits[64 : 64 + Header.ENCODED_LENGTH]
        header = Header.from_bits(header_bits)
        assert header.identity == packet.identity

    def test_trailing_header_is_reversed_copy(self, framer, packet):
        frame = framer.build(packet)
        layout = frame.layout
        leading = frame.bits[layout.header_start : layout.payload_start]
        trailing = frame.bits[layout.trailing_header_start : -layout.pilot_length]
        assert np.array_equal(trailing, leading[::-1])

    def test_payload_is_scrambled(self, framer, packet):
        frame = framer.build(packet)
        layout = frame.layout
        payload_region = frame.bits[layout.payload_start : layout.trailing_header_start]
        assert not np.array_equal(payload_region[: packet.payload_length], packet.payload)

    def test_negative_payload_length_rejected(self, framer):
        with pytest.raises(FramingError):
            framer.layout_for(-1)

    def test_frame_header_property(self, framer, packet):
        assert framer.build(packet).header.identity == packet.identity


class TestDeframer:
    def test_forward_roundtrip(self, framer, deframer, packet):
        result = deframer.parse(framer.build(packet).bits)
        assert result.delivered
        assert result.packet.identity == packet.identity
        assert np.array_equal(result.packet.payload, packet.payload)

    def test_backward_roundtrip(self, framer, deframer, packet):
        frame = framer.build(packet)
        result = deframer.parse_backward(frame.bits[::-1])
        assert result.delivered
        assert np.array_equal(result.packet.payload, packet.payload)

    def test_header_parse_from_both_ends(self, framer, deframer, packet):
        frame = framer.build(packet)
        forward = deframer.parse(frame.bits).header
        backward = deframer.parse_backward(frame.bits[::-1]).header
        assert forward == backward == frame.header
        assert (backward.source, backward.destination, backward.sequence) == packet.identity

    def test_corrupted_payload_fails_crc_but_keeps_header(self, framer, deframer, packet):
        frame = framer.build(packet)
        bits = frame.bits.copy()
        bits[frame.layout.payload_start + 10] ^= 1
        result = deframer.parse(bits)
        assert result.packet is not None
        assert not result.payload_crc_ok
        assert not result.delivered

    def test_corrupted_header_yields_no_packet(self, framer, deframer, packet):
        frame = framer.build(packet)
        bits = frame.bits.copy()
        bits[frame.layout.header_start + 2] ^= 1
        result = deframer.parse(bits)
        assert result.packet is None

    def test_too_short_stream(self, deframer):
        result = deframer.parse(np.zeros(50, dtype=np.uint8))
        assert result.packet is None
        assert not result.delivered

    def test_zero_length_payload_roundtrip(self, framer, deframer):
        packet = Packet(1, 2, 0, np.array([], dtype=np.uint8))
        result = deframer.parse(framer.build(packet).bits)
        assert result.delivered
        assert result.packet.payload_length == 0
