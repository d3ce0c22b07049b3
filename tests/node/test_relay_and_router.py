"""Tests for the relay and router nodes (§7.5)."""

import numpy as np
import pytest

from repro.channel.interference import superpose
from repro.channel.link import Link
from repro.node.node import NodeConfig
from repro.node.relay import RelayNode
from repro.node.router import RouterAction, RouterNode

PAYLOAD = 128
NOISE = 1e-3


def _config():
    return NodeConfig(payload_bits=PAYLOAD, noise_power=NOISE)


def _collision(frame_a_node, frame_b_node, dst_a=2, dst_b=1, offset=140, seed=0):
    rng = np.random.default_rng(seed)
    packet_a = frame_a_node.make_packet(dst_a, rng)
    packet_b = frame_b_node.make_packet(dst_b, rng)
    wave_a = frame_a_node.transmit(packet_a)
    wave_b = frame_b_node.transmit(packet_b)
    link_a = Link(attenuation=0.85, phase_shift=0.5, frequency_offset=0.03)
    link_b = Link(attenuation=0.8, phase_shift=-1.0, frequency_offset=-0.02)
    length = max(len(wave_a), offset + len(wave_b)) + 32
    collision = superpose([(wave_a, link_a, 0), (wave_b, link_b, offset)], NOISE, rng, length)
    return packet_a, packet_b, collision


class TestRelayNode:
    def test_amplify_to_power_budget(self, rng):
        from repro.node.node import Node

        alice = Node(1, _config())
        relay = RelayNode(0, _config())
        wave = alice.transmit(alice.make_packet(2, rng))
        attenuated = Link(attenuation=0.3).distort(wave)
        rebroadcast = relay.amplify_and_forward(attenuated)
        assert rebroadcast.average_power == pytest.approx(1.0, rel=0.05)


class TestRouterNode:
    def test_amplify_forward_when_neither_known_and_crossing(self):
        from repro.node.node import Node

        alice = Node(1, _config())
        bob = Node(2, _config())
        router = RouterNode(0, neighbors=[1, 2], config=_config())
        _, _, collision = _collision(alice, bob)
        decision = router.process(collision)
        assert decision.action == RouterAction.AMPLIFY_FORWARD
        assert decision.broadcast is not None
        # The broadcast is rescaled to the relay's power budget; the average
        # over the whole waveform is a little lower because the partially
        # overlapped head and tail carry only one of the two signals.
        assert 0.6 < decision.broadcast.average_power <= 1.2

    def test_decode_when_one_packet_known(self):
        """The chain case: the router already forwarded the interfering packet."""
        from repro.node.node import Node

        upstream = Node(1, _config())
        downstream = Node(3, _config())
        router = RouterNode(2, neighbors=[1, 3], config=_config())
        # The router knows downstream's packet because it forwarded it earlier.
        rng = np.random.default_rng(1)
        forwarded = upstream.make_packet(4, rng)
        router.remember_packet(forwarded)
        new_packet = upstream.make_packet(4, rng)
        wave_new = upstream.transmit(new_packet)
        wave_fwd = downstream.framer.build(forwarded)
        wave_fwd = downstream.modulator.modulate(wave_fwd.bits)
        collision = superpose(
            [
                (wave_new, Link(attenuation=0.85, frequency_offset=0.03), 0),
                (wave_fwd, Link(attenuation=0.8, frequency_offset=-0.02), 150),
            ],
            NOISE,
            rng,
            max(len(wave_new), 150 + len(wave_fwd)) + 32,
        )
        decision = router.process(collision)
        assert decision.action == RouterAction.DECODE
        assert decision.packet.identity == new_packet.identity

    def test_drop_when_not_crossing(self):
        """Two unknown packets heading to the same destination are dropped."""
        from repro.node.node import Node

        a = Node(1, _config())
        b = Node(3, _config())
        router = RouterNode(0, neighbors=[1, 2, 3], config=_config())
        _, _, collision = _collision(a, b, dst_a=2, dst_b=2, seed=3)
        decision = router.process(collision)
        assert decision.action == RouterAction.DROP

    def test_deliver_clean_packet(self, rng):
        from repro.node.node import Node

        alice = Node(1, _config())
        router = RouterNode(0, neighbors=[1, 2], config=_config())
        wave = alice.transmit(alice.make_packet(2, rng))
        received = Link(attenuation=0.8, noise_power=NOISE).propagate(wave, rng=rng)
        decision = router.process(received)
        assert decision.action == RouterAction.DELIVER

    def test_drop_on_noise(self, rng):
        from repro.signal.noise import awgn
        from repro.signal.samples import ComplexSignal

        router = RouterNode(0, neighbors=[1, 2], config=_config())
        decision = router.process(awgn(ComplexSignal.silence(500), NOISE, rng))
        assert decision.action == RouterAction.DROP

    def test_set_neighbors(self):
        router = RouterNode(0, neighbors=[1], config=_config())
        router.set_neighbors([1, 2, 3])
        assert router.neighbors == {1, 2, 3}
