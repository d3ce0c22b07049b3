"""Tests for the basic Node abstraction."""

import numpy as np
import pytest

from repro.anc.pipeline import ReceiveOutcome
from repro.channel.interference import superpose
from repro.channel.link import Link
from repro.exceptions import ConfigurationError
from repro.framing.frame import Framer
from repro.node.node import Node, NodeConfig


class TestNodeConfig:
    def test_defaults(self):
        config = NodeConfig()
        assert config.payload_bits == 512
        assert config.noise_power > 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            NodeConfig(payload_bits=0)
        with pytest.raises(ConfigurationError):
            NodeConfig(noise_power=-1)

    @pytest.mark.parametrize("noise_power", [0.0, -0.0, float("nan")])
    def test_non_positive_noise_power_rejected_at_the_config(self, noise_power):
        # The receive detectors need a positive noise floor; the config
        # applies the same rule, so a bad value never reaches Node().
        with pytest.raises(ConfigurationError, match="noise_power must be positive"):
            NodeConfig(noise_power=noise_power)

    def test_tiny_positive_noise_power_builds_a_node(self):
        assert Node(1, NodeConfig(noise_power=1e-12)).pipeline.noise_power == 1e-12


class TestNode:
    def test_invalid_id(self):
        with pytest.raises(ConfigurationError):
            Node(-1)

    def test_sequence_numbers_increment(self):
        node = Node(1)
        assert node.next_sequence() == 0
        assert node.next_sequence() == 1

    def test_make_packet_fields(self, rng):
        node = Node(3, NodeConfig(payload_bits=64))
        packet = node.make_packet(destination=9, rng=rng)
        assert packet.source == 3
        assert packet.destination == 9
        assert packet.payload_length == 64

    def test_transmit_stores_frame(self, rng):
        node = Node(1, NodeConfig(payload_bits=64))
        packet = node.make_packet(2, rng)
        node.transmit(packet)
        assert node.known_frames.lookup(*packet.identity) is not None

    def test_transmit_waveform_length(self, rng):
        node = Node(1, NodeConfig(payload_bits=64))
        packet = node.make_packet(2, rng)
        wave = node.transmit(packet)
        assert len(wave) == node.frame_samples

    def test_remember_packet_stores_its_frame(self, rng):
        node = Node(5, NodeConfig(payload_bits=64))
        packet = Node(1, NodeConfig(payload_bits=64)).make_packet(9, rng)
        frame = node.remember_packet(packet)
        assert node.known_frames.lookup_header(frame.header) is frame
        assert node.known_frames.lookup(*packet.identity) is not None
        assert frame.packet is packet
        assert np.array_equal(frame.bits, Framer().build(packet).bits)

    def test_receive_clean_packet(self, rng):
        sender = Node(1, NodeConfig(payload_bits=64, noise_power=1e-3))
        receiver = Node(2, NodeConfig(payload_bits=64, noise_power=1e-3))
        packet = sender.make_packet(2, rng)
        wave = sender.transmit(packet)
        link = Link(attenuation=0.8, phase_shift=0.3, noise_power=1e-3)
        result = receiver.receive(superpose([(wave, link, 0)], link.noise_power, rng, 0))
        assert result.outcome == ReceiveOutcome.CLEAN_DECODED
        assert result.delivered
        assert result.packet.identity == packet.identity

    def test_receive_decodes_packets_for_others(self, rng):
        """A node decodes what it overhears; the protocol decides what it keeps."""
        sender = Node(1, NodeConfig(payload_bits=64, noise_power=1e-3))
        receiver = Node(7, NodeConfig(payload_bits=64, noise_power=1e-3))
        packet = sender.make_packet(2, rng)
        wave = sender.transmit(packet)
        link = Link(attenuation=0.8, noise_power=1e-3)
        result = receiver.receive(superpose([(wave, link, 0)], link.noise_power, rng, 0))
        assert result.delivered
        assert result.packet.identity == packet.identity
        assert result.packet.destination == 2

    def test_forward_keeps_original_addressing(self, rng):
        origin = Node(1, NodeConfig(payload_bits=64))
        router = Node(2, NodeConfig(payload_bits=64))
        packet = origin.make_packet(4, rng)
        router.transmit(packet)
        stored = router.known_frames.lookup(*packet.identity)
        assert stored is not None
        assert stored.packet.source == 1
