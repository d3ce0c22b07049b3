"""Tests for the process-wide transmit memo behind ``Node.transmit``."""

import sys
import threading

import numpy as np
import pytest

from repro.framing.buffer import SentPacketBuffer
from repro.framing.frame import Framer
from repro.framing.packet import Packet
from repro.modulation.msk import MSKModulator
from repro.network.topologies import ChannelConditions
from repro.node.node import Node, NodeConfig, _on_air
from repro.sim.simulation import SimParams, TrafficSimulation

PAYLOAD = 64


@pytest.fixture(autouse=True)
def fresh_memo():
    """Each test starts from an empty memo."""
    _on_air.cache_clear()
    yield
    _on_air.cache_clear()


@pytest.fixture
def build_calls(monkeypatch):
    """Record the packet of every ``Framer.build`` call."""
    calls = []
    original = Framer.build

    def counting_build(self, packet):
        calls.append((packet.identity, packet.payload.tobytes()))
        return original(self, packet)

    monkeypatch.setattr(Framer, "build", counting_build)
    return calls


def reference_waveform(packet):
    """What a node puts on the air for ``packet``, built without the memo."""
    return MSKModulator().modulate(Framer().build(packet).bits)


def packet_with(payload_seed, sequence=0, source=1, destination=2):
    rng = np.random.default_rng(payload_seed)
    return Packet.random(source, destination, sequence, PAYLOAD, rng)


class TestHitsAndMisses:
    def test_retry_returns_the_identical_waveform(self, build_calls):
        node = Node(1, NodeConfig(payload_bits=PAYLOAD))
        packet = packet_with(0)
        first = node.transmit(packet)
        retry = node.transmit(packet)
        assert len(build_calls) == 1
        assert retry is first
        assert np.array_equal(retry.samples, reference_waveform(packet).samples)

    def test_same_identity_with_another_payload_misses(self):
        node = Node(1, NodeConfig(payload_bits=PAYLOAD))
        packet = packet_with(0)
        twin = Packet(packet.source, packet.destination, packet.sequence, 1 - packet.payload)
        first = node.transmit(packet)
        second = node.transmit(twin)
        assert second is not first
        assert np.array_equal(second.samples, reference_waveform(twin).samples)
        assert not np.array_equal(second.samples, first.samples)
        stored = node.known_frames.lookup(*packet.identity)
        assert stored.packet is twin

    def test_relay_forward_hits_the_senders_frame(self, build_calls):
        sender = Node(1, NodeConfig(payload_bits=PAYLOAD))
        relay = Node(0, NodeConfig(payload_bits=PAYLOAD))
        packet = packet_with(3)
        sent = sender.transmit(packet)
        assert relay.transmit(packet) is sent
        assert len(build_calls) == 1
        assert relay.known_frames.lookup(*packet.identity).packet is packet

    def test_remember_packet_is_served_by_the_memo(self, build_calls):
        sender = Node(1, NodeConfig(payload_bits=PAYLOAD))
        overhearer = Node(3, NodeConfig(payload_bits=PAYLOAD))
        packet = packet_with(4)
        sender.transmit(packet)
        decoded = Packet(packet.source, packet.destination, packet.sequence, packet.payload)
        frame = overhearer.remember_packet(decoded)
        assert len(build_calls) == 1
        assert frame.packet is decoded
        assert np.array_equal(frame.bits, Framer().build(packet).bits)
        assert overhearer.known_frames.lookup(*packet.identity) is frame

    def test_eviction_drops_the_least_recently_used(self, build_calls):
        # A retry skips framing only while its packet is among the 64 most
        # recent entries.
        node = Node(1, NodeConfig(payload_bits=PAYLOAD))
        packets = [packet_with(i, sequence=i) for i in range(_on_air.cache_info().maxsize + 1)]
        for packet in packets[:-1]:
            node.transmit(packet)
        node.transmit(packets[0])  # a hit: now the most recent
        node.transmit(packets[-1])  # evicts packets[1]
        del build_calls[:]
        node.transmit(packets[0])
        assert build_calls == []
        rebuilt = node.transmit(packets[1])
        assert build_calls == [(packets[1].identity, packets[1].payload.tobytes())]
        assert np.array_equal(rebuilt.samples, reference_waveform(packets[1]).samples)

    def test_shared_frame_bits_are_read_only(self):
        node = Node(1, NodeConfig(payload_bits=PAYLOAD))
        packet = packet_with(0)
        node.transmit(packet)
        node.transmit(packet)
        frame = node.known_frames.lookup(*packet.identity)
        with pytest.raises(ValueError):
            frame.bits[0] ^= 1


class TestSideEffects:
    def test_known_frames_recency_matches_an_unmemoized_run(self):
        capacity = SentPacketBuffer.CAPACITY
        packets = [packet_with(i, sequence=i) for i in range(capacity + 2)]
        # Fill the buffer, refresh packet 0 (long gone from the memo) and the
        # last one (a memo hit), then push two more: packets 1 and 2 go.
        order = list(range(capacity)) + [0, capacity - 1, capacity, capacity + 1]
        memoized = Node(1, NodeConfig(payload_bits=PAYLOAD))
        for index in order:
            memoized.transmit(packets[index])
        unmemoized = Node(1, NodeConfig(payload_bits=PAYLOAD))
        for index in order:
            _on_air.cache_clear()
            unmemoized.transmit(packets[index])
        assert len(memoized.known_frames) == len(unmemoized.known_frames) == capacity
        for packet in packets:
            hit = memoized.known_frames.lookup(*packet.identity)
            built = unmemoized.known_frames.lookup(*packet.identity)
            if packet.sequence in (1, 2):
                assert hit is None and built is None
                continue
            assert hit.packet is built.packet is packet
            assert np.array_equal(hit.bits, built.bits)
            assert hit.layout == built.layout

    def test_mac_retry_never_calls_framer_build_again(self, build_calls, monkeypatch):
        sends = []
        original = Node.transmit

        def recording_transmit(self, packet):
            sends.append((self.node_id, packet.identity))
            return original(self, packet)

        monkeypatch.setattr(Node, "transmit", recording_transmit)
        params = SimParams(scheme="traditional", arrival_rate=1.2, sim_duration_frames=24.0)
        TrafficSimulation(
            params, entropy=[7, 600, 0], conditions=ChannelConditions(snr_db=18.0)
        ).run()
        # Some (node, packet) pairs went on the air more than once, yet none
        # was framed twice.
        assert len(sends) > len(set(sends))
        assert 0 < len(build_calls) <= len(set(sends))
        assert len(set(build_calls)) == len(build_calls)


def run_threads(target, count):
    """Run ``target(i)`` on ``count`` threads that switch every microsecond."""
    threads = [threading.Thread(target=target, args=(i,)) for i in range(count)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)


class TestThreads:
    def test_threads_match_an_unmemoized_reference(self):
        # More packets than the memo holds, so the threads evict entries
        # while they hit and miss.
        config = NodeConfig(payload_bits=PAYLOAD)
        packets = [packet_with(i, sequence=i % 3) for i in range(80)]
        expected = [reference_waveform(packet).samples for packet in packets]
        errors = []
        barrier = threading.Barrier(4)

        def worker(seed):
            order = np.random.default_rng(seed)
            node = Node(1, config)
            barrier.wait()
            try:
                for _ in range(400):
                    p = int(order.integers(len(packets)))
                    wave = node.transmit(packets[p])
                    if not np.array_equal(wave.samples, expected[p]):
                        errors.append((seed, p))
            except Exception as error:  # a thread's exception would vanish otherwise
                errors.append((seed, repr(error)))

        run_threads(worker, 4)
        assert errors == []
        assert _on_air.cache_info().currsize == _on_air.cache_info().maxsize
