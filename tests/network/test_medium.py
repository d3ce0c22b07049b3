"""Tests for the wireless medium and slot simulator."""

import numpy as np
import pytest

from repro.channel.link import Link
from repro.exceptions import SimulationError
from repro.modulation.msk import MSKModulator
from repro.network.medium import Transmission, WirelessMedium
from repro.network.simulator import SlotSimulator
from repro.network.topology import Topology
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
        medium = WirelessMedium(topo, tail_padding=0)
        wave = _burst()
        out = medium.deliver([Transmission(sender=1, waveform=wave)])
        received = out[2]
        expected = topo.link(1, 2).distort(wave)
        assert np.allclose(received.samples[: len(expected)], expected.samples)

    def test_out_of_range_receiver_hears_only_noise(self):
        topo = _simple_topology(noise=1e-4)
        medium = WirelessMedium(topo, rng=np.random.default_rng(0))
        out = medium.deliver([Transmission(sender=1, waveform=_burst())])
        assert out[3].average_power < 1e-3

    def test_transmitter_does_not_hear_itself(self):
        topo = _simple_topology()
        medium = WirelessMedium(topo)
        out = medium.deliver([Transmission(sender=1, waveform=_burst())])
        assert 1 not in out

    def test_concurrent_transmissions_superpose(self):
        topo = _simple_topology(noise=0.0)
        medium = WirelessMedium(topo, tail_padding=0)
        wave_a, wave_b = _burst(1), _burst(2)
        out = medium.deliver(
            [
                Transmission(sender=1, waveform=wave_a, start_offset=0),
                Transmission(sender=3, waveform=wave_b, start_offset=10),
            ]
        )
        at_2 = out[2].samples
        manual = np.zeros_like(at_2)
        manual[: len(wave_a)] += topo.link(1, 2).distort(wave_a).samples
        manual[10 : 10 + len(wave_b)] += topo.link(3, 2).distort(wave_b).samples
        assert np.allclose(at_2, manual)

    def test_receivers_filter(self):
        topo = _simple_topology()
        medium = WirelessMedium(topo)
        out = medium.deliver([Transmission(sender=1, waveform=_burst())], receivers=[2])
        assert set(out) == {2}

    def test_slot_duration(self):
        medium = WirelessMedium(_simple_topology())
        wave = _burst()
        duration = medium.slot_duration(
            [Transmission(sender=1, waveform=wave, start_offset=25)]
        )
        assert duration == len(wave) + 25

    def test_slot_duration_spans_the_latest_transmission(self):
        medium = WirelessMedium(_simple_topology())
        short, long = _burst(n=40), _burst(seed=1, n=80)
        duration = medium.slot_duration(
            [
                Transmission(sender=1, waveform=long, start_offset=0),
                Transmission(sender=2, waveform=short, start_offset=60),
            ]
        )
        assert duration == max(len(long), len(short) + 60)

    def test_empty_slot_has_no_duration(self):
        assert WirelessMedium(_simple_topology()).slot_duration([]) == 0

    def test_negative_start_offset_rejected(self):
        with pytest.raises(SimulationError, match="start offsets must be non-negative"):
            Transmission(sender=1, waveform=_burst(), start_offset=-1)

    def test_negative_tail_padding_rejected(self):
        with pytest.raises(SimulationError, match="tail padding must be non-negative"):
            WirelessMedium(_simple_topology(), tail_padding=-1)

    def test_duplicate_sender_rejected(self):
        medium = WirelessMedium(_simple_topology())
        wave = _burst()
        with pytest.raises(SimulationError):
            medium.deliver(
                [Transmission(sender=1, waveform=wave), Transmission(sender=1, waveform=wave)]
            )

    def test_unknown_sender_rejected(self):
        medium = WirelessMedium(_simple_topology())
        with pytest.raises(SimulationError):
            medium.deliver([Transmission(sender=9, waveform=_burst())])

    def test_empty_slot_rejected(self):
        with pytest.raises(SimulationError):
            WirelessMedium(_simple_topology()).deliver([])


class TestSlotSimulator:
    def test_air_time_accumulates(self):
        topo = _simple_topology()
        simulator = SlotSimulator(topo, rng=np.random.default_rng(0))
        wave = _burst()
        simulator.run_slot([Transmission(sender=1, waveform=wave)])
        simulator.run_slot([Transmission(sender=2, waveform=wave, start_offset=30)])
        assert simulator.slots_run == 2
        assert simulator.total_air_time == 2 * len(wave) + 30

    def test_slot_result_waveforms(self):
        topo = _simple_topology()
        simulator = SlotSimulator(topo, rng=np.random.default_rng(1))
        result = simulator.run_slot([Transmission(sender=1, waveform=_burst())], receivers=[2])
        assert result.waveform_at(2) is not None
        with pytest.raises(SimulationError):
            result.waveform_at(3)

    def test_history_recording(self):
        topo = _simple_topology()
        simulator = SlotSimulator(topo)
        simulator.run_slot([Transmission(sender=1, waveform=_burst())], record=True)
        simulator.run_slot([Transmission(sender=1, waveform=_burst())], record=False)
        assert len(simulator.history) == 1

    def test_reset(self):
        topo = _simple_topology()
        simulator = SlotSimulator(topo)
        simulator.run_slot([Transmission(sender=1, waveform=_burst())])
        simulator.reset()
        assert simulator.slots_run == 0
        assert simulator.total_air_time == 0
