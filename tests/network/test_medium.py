"""Tests for the wireless medium: delivery, the superposition and the air-time ledger."""

import numpy as np
import pytest

from repro.channel.interference import superpose
from repro.channel.link import Link
from repro.exceptions import SimulationError
from repro.modulation.msk import MSKModulator
from repro.network.medium import Transmission, WirelessMedium
from repro.network.topologies import (
    ChannelConditions,
    alice_bob_topology,
    chain_topology,
    x_topology,
)
from repro.network.topology import Topology
from repro.signal.noise import complex_gaussian_noise
from repro.utils.bits import random_bits


def _simple_topology(noise=1e-4):
    topo = Topology()
    for node in (1, 2, 3):
        topo.add_node(node, noise_power=noise)
    topo.add_symmetric_link(1, 2, Link(attenuation=0.8, phase_shift=0.2))
    topo.add_symmetric_link(2, 3, Link(attenuation=0.7, phase_shift=-0.5))
    return topo


def _burst(seed=0, n=80):
    return MSKModulator().modulate(random_bits(n, np.random.default_rng(seed)))


class TestWirelessMedium:
    def test_receiver_in_range_hears_distorted_signal(self):
        topo = _simple_topology(noise=0.0)
        medium = WirelessMedium(topo, rng=np.random.default_rng(0), tail_padding=0)
        wave = _burst()
        out = medium.deliver([Transmission(sender=1, waveform=wave)])
        received = out[2]
        expected = topo.link(1, 2).distort(wave, np.random.default_rng(0))
        assert np.allclose(received.samples[: len(expected)], expected.samples)

    def test_out_of_range_receiver_hears_only_noise(self):
        topo = _simple_topology(noise=1e-4)
        medium = WirelessMedium(topo, rng=np.random.default_rng(0))
        out = medium.deliver([Transmission(sender=1, waveform=_burst())])
        assert np.mean(np.abs(out[3].samples) ** 2) < 1e-3

    def test_transmitter_does_not_hear_itself(self):
        topo = _simple_topology()
        medium = WirelessMedium(topo, rng=np.random.default_rng(0))
        out = medium.deliver([Transmission(sender=1, waveform=_burst())])
        assert 1 not in out

    def test_concurrent_transmissions_superpose(self):
        topo = _simple_topology(noise=0.0)
        medium = WirelessMedium(topo, rng=np.random.default_rng(0), tail_padding=0)
        wave_a, wave_b = _burst(1), _burst(2)
        out = medium.deliver(
            [
                Transmission(sender=1, waveform=wave_a, start_offset=0),
                Transmission(sender=3, waveform=wave_b, start_offset=10),
            ]
        )
        at_2 = out[2].samples
        manual = np.zeros_like(at_2)
        rng = np.random.default_rng(0)
        manual[: len(wave_a)] += topo.link(1, 2).distort(wave_a, rng).samples
        manual[10 : 10 + len(wave_b)] += topo.link(3, 2).distort(wave_b, rng).samples
        assert np.allclose(at_2, manual)

    def test_receivers_filter(self):
        topo = _simple_topology()
        medium = WirelessMedium(topo, rng=np.random.default_rng(0))
        out = medium.deliver([Transmission(sender=1, waveform=_burst())], receivers=[2])
        assert set(out) == {2}

    def test_receivers_may_be_any_iterable_and_senders_are_skipped(self):
        medium = WirelessMedium(_simple_topology(), rng=np.random.default_rng(0))
        out = medium.deliver(
            [Transmission(sender=1, waveform=_burst())], receivers=iter([3, 1, 2])
        )
        assert list(out) == [3, 2]

    def test_out_of_range_receiver_hears_exactly_one_noise_draw(self):
        topo = _simple_topology(noise=1e-4)
        wave = _burst()
        medium = WirelessMedium(topo, rng=np.random.default_rng(5))
        out = medium.deliver([Transmission(sender=1, waveform=wave)], receivers=[3])
        expected = complex_gaussian_noise(len(wave) + 32, 1e-4, np.random.default_rng(5))
        assert np.array_equal(out[3].samples, expected)

    def test_slot_duration(self):
        medium = WirelessMedium(_simple_topology(), rng=np.random.default_rng(0))
        wave = _burst()
        duration = medium.slot_duration(
            [Transmission(sender=1, waveform=wave, start_offset=25)]
        )
        assert duration == len(wave) + 25

    def test_slot_duration_spans_the_latest_transmission(self):
        medium = WirelessMedium(_simple_topology(), rng=np.random.default_rng(0))
        short, long = _burst(n=40), _burst(seed=1, n=80)
        duration = medium.slot_duration(
            [
                Transmission(sender=1, waveform=long, start_offset=0),
                Transmission(sender=2, waveform=short, start_offset=60),
            ]
        )
        assert duration == max(len(long), len(short) + 60)

    def test_empty_slot_has_no_duration(self):
        medium = WirelessMedium(_simple_topology(), rng=np.random.default_rng(0))
        assert medium.slot_duration([]) == 0

    def test_negative_start_offset_rejected(self):
        with pytest.raises(SimulationError, match="start offsets must be non-negative"):
            Transmission(sender=1, waveform=_burst(), start_offset=-1)

    def test_negative_tail_padding_rejected(self):
        with pytest.raises(SimulationError, match="tail padding must be non-negative"):
            WirelessMedium(_simple_topology(), rng=np.random.default_rng(0), tail_padding=-1)

    def test_duplicate_sender_rejected(self):
        medium = WirelessMedium(_simple_topology(), rng=np.random.default_rng(0))
        wave = _burst()
        with pytest.raises(SimulationError):
            medium.deliver(
                [Transmission(sender=1, waveform=wave), Transmission(sender=1, waveform=wave)]
            )

    def test_unknown_sender_rejected(self):
        medium = WirelessMedium(_simple_topology(), rng=np.random.default_rng(0))
        with pytest.raises(SimulationError):
            medium.deliver([Transmission(sender=9, waveform=_burst())])

    def test_empty_slot_rejected(self):
        with pytest.raises(SimulationError):
            WirelessMedium(_simple_topology(), rng=np.random.default_rng(0)).deliver([])


class TestSuperposition:
    @staticmethod
    def _assert_deliver_equals_superpose(topo, slots, tail_padding):
        medium = WirelessMedium(topo, rng=np.random.default_rng(11), tail_padding=tail_padding)
        delivered = [medium.deliver(slot) for slot in slots]

        rng = np.random.default_rng(11)
        for slot, observed in zip(slots, delivered):
            length = medium.slot_duration(slot) + tail_padding
            senders = {t.sender for t in slot}
            expected = {}
            for receiver in (n for n in topo.nodes if n not in senders):
                components = [
                    (t.waveform, topo.link(t.sender, receiver), t.start_offset)
                    for t in slot
                    if topo.in_range(t.sender, receiver)
                ]
                expected[receiver] = superpose(
                    components, topo.noise_power(receiver), rng, length
                )
            assert list(observed) == list(expected)
            for receiver, composite in expected.items():
                assert np.array_equal(observed[receiver].samples, composite.samples)

    def test_deliver_equals_superpose_called_directly(self):
        topo = _simple_topology(noise=1e-3)
        topo.add_link(1, 3, Link(attenuation=0.3, phase_shift=1.1, fading="rayleigh"))
        wave_a, wave_b = _burst(3), _burst(4, n=60)
        slots = [
            [
                Transmission(sender=1, waveform=wave_a, start_offset=5),
                Transmission(sender=2, waveform=wave_b, start_offset=12),
            ],
            [Transmission(sender=2, waveform=wave_a)],
        ]
        self._assert_deliver_equals_superpose(topo, slots, tail_padding=16)

    @pytest.mark.parametrize(
        "build, senders",
        [(alice_bob_topology, (1, 2)), (chain_topology, (1, 3)), (x_topology, (1, 3))],
        ids=["alice_bob", "chain", "x"],
    )
    def test_deliver_equals_superpose_on_the_paper_topologies(self, build, senders):
        topo = build(ChannelConditions(snr_db=25.0), np.random.default_rng(4))
        first, second = senders
        slots = [
            [
                Transmission(sender=first, waveform=_burst(5), start_offset=0),
                Transmission(sender=second, waveform=_burst(6), start_offset=17),
            ],
            [Transmission(sender=second, waveform=_burst(7))],
        ]
        self._assert_deliver_equals_superpose(topo, slots, tail_padding=32)

    @pytest.mark.parametrize(
        "delay, tail_padding", [(3, 0), (0, 0), (3, 32), (40, 32)]
    )
    def test_propagation_delay_applied_once_and_nothing_truncated(self, delay, tail_padding):
        topo = Topology()
        topo.add_node(1, noise_power=0.0)
        topo.add_node(2, noise_power=0.0)
        topo.add_link(1, 2, Link(attenuation=0.5, propagation_delay=delay))
        wave = _burst(n=9)
        assert len(wave) == 10
        medium = WirelessMedium(topo, rng=np.random.default_rng(0), tail_padding=tail_padding)
        received = medium.deliver([Transmission(sender=1, waveform=wave)])[2].samples
        assert len(received) == max(10 + tail_padding, delay + 10)
        assert np.array_equal(received[:delay], np.zeros(delay))
        assert np.allclose(received[delay : delay + 10], 0.5 * wave.samples)
        assert np.array_equal(received[delay + 10 :], np.zeros(len(received) - delay - 10))
        # The ledger charges the slot as transmitted; the delay is not air time.
        assert medium.air_time == 10


class TestAirTimeLedger:
    def test_air_time_and_slots_accumulate(self):
        medium = WirelessMedium(_simple_topology(), rng=np.random.default_rng(0))
        wave = _burst()
        assert (medium.air_time, medium.slots) == (0, 0)
        medium.deliver([Transmission(sender=1, waveform=wave)])
        medium.deliver([Transmission(sender=2, waveform=wave, start_offset=30)], receivers=[])
        assert medium.slots == 2
        assert medium.air_time == 2 * len(wave) + 30

    def test_ledger_charges_the_slot_duration_not_the_padding(self):
        medium = WirelessMedium(_simple_topology(), rng=np.random.default_rng(0), tail_padding=50)
        slot = [
            Transmission(sender=1, waveform=_burst(n=40)),
            Transmission(sender=3, waveform=_burst(n=80), start_offset=7),
        ]
        observed = medium.deliver(slot)
        assert medium.air_time == medium.slot_duration(slot) == 7 + 81
        assert len(observed[2]) == medium.air_time + 50

    def test_slot_heard_by_every_receiver_is_charged_once(self):
        medium = WirelessMedium(_simple_topology(), rng=np.random.default_rng(0), tail_padding=5)
        wave = _burst(n=60)
        observed = medium.deliver([Transmission(sender=2, waveform=wave, start_offset=4)])
        assert sorted(observed) == [1, 3]
        assert {len(signal) for signal in observed.values()} == {4 + len(wave) + 5}
        assert (medium.air_time, medium.slots) == (4 + len(wave), 1)

    def test_rejected_slot_is_not_charged(self):
        medium = WirelessMedium(_simple_topology(), rng=np.random.default_rng(0))
        with pytest.raises(SimulationError):
            medium.deliver([Transmission(sender=9, waveform=_burst())])
        assert (medium.air_time, medium.slots) == (0, 0)
