"""A relay is a plain node plus the amplify-and-forward rebroadcast (§7.5)."""

import numpy as np
import pytest

from repro.anc.pipeline import ReceiveOutcome
from repro.channel.interference import superpose
from repro.channel.link import Link
from repro.channel.relay import amplify_and_forward
from repro.constants import DEFAULT_TX_AMPLITUDE
from repro.framing.frame import Framer
from repro.modulation.msk import MSKModulator
from repro.node.node import Node, NodeConfig

PAYLOAD = 128
NOISE = 1e-3


def _config():
    return NodeConfig(payload_bits=PAYLOAD, noise_power=NOISE)


def _collision(alice, bob, offset=140):
    rng = np.random.default_rng(0)
    wave_a = alice.transmit(alice.make_packet(bob.node_id, rng))
    wave_b = bob.transmit(bob.make_packet(alice.node_id, rng))
    link_a = Link(attenuation=0.85, phase_shift=0.5, frequency_offset=0.03)
    link_b = Link(attenuation=0.8, phase_shift=-1.0, frequency_offset=-0.02)
    length = max(len(wave_a), offset + len(wave_b)) + 32
    return superpose([(wave_a, link_a, 0), (wave_b, link_b, offset)], NOISE, rng, length)


def _rebroadcast(waveform):
    return amplify_and_forward(waveform, DEFAULT_TX_AMPLITUDE ** 2)


class TestPlainNodeRelays:
    def test_amplify_to_power_budget(self, rng):
        alice = Node(1, _config())
        wave = alice.transmit(alice.make_packet(2, rng))
        attenuated = Link(attenuation=0.3).distort(wave, rng)
        rebroadcast = _rebroadcast(attenuated)
        assert np.mean(np.abs(rebroadcast.samples) ** 2) == pytest.approx(1.0, rel=0.05)

    def test_unknown_collision_is_amplified(self):
        """Alice-Bob: the relay knows neither packet, so it rebroadcasts the sum."""
        alice = Node(1, _config())
        bob = Node(2, _config())
        relay = Node(0, _config())
        collision = _collision(alice, bob)
        assert relay.receive(collision).outcome == ReceiveOutcome.NEEDS_RELAY
        broadcast = _rebroadcast(collision)
        # The broadcast is rescaled to the relay's power budget; the average
        # over the whole waveform is a little lower because the partially
        # overlapped head and tail carry only one of the two signals.
        assert 0.6 < np.mean(np.abs(broadcast.samples) ** 2) <= 1.2

    def test_decode_when_one_packet_known(self):
        """The chain case: the relay already forwarded the interfering packet."""
        upstream = Node(1, _config())
        relay = Node(2, _config())
        # The relay knows downstream's packet because it forwarded it earlier.
        rng = np.random.default_rng(1)
        forwarded = upstream.make_packet(4, rng)
        relay.remember_packet(forwarded)
        new_packet = upstream.make_packet(4, rng)
        wave_new = upstream.transmit(new_packet)
        wave_fwd = MSKModulator().modulate(Framer().build(forwarded).bits)
        collision = superpose(
            [
                (wave_new, Link(attenuation=0.85, frequency_offset=0.03), 0),
                (wave_fwd, Link(attenuation=0.8, frequency_offset=-0.02), 150),
            ],
            NOISE,
            rng,
            max(len(wave_new), 150 + len(wave_fwd)) + 32,
        )
        result = relay.receive(collision)
        assert result.outcome == ReceiveOutcome.ANC_DECODED
        assert result.packet.identity == new_packet.identity
