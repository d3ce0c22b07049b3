"""Tests for pilot alignment of the known frame (§7.2)."""

import numpy as np
import pytest

from repro.anc.alignment import PILOT_SEARCH_BITS
from repro.anc.alignment import align_known_frame as align
from repro.channel.interference import superpose
from repro.channel.link import Link
from repro.exceptions import SynchronizationError
from repro.framing.frame import Framer
from repro.framing.packet import Packet
from repro.modulation.msk import MSKDemodulator, MSKModulator


def _frame_waveform(seed=0, payload=128, amplitude=1.0):
    rng = np.random.default_rng(seed)
    framer = Framer()
    packet = Packet.random(1, 2, seed, payload, rng)
    frame = framer.build(packet)
    return frame, MSKModulator(amplitude=amplitude).modulate(frame.bits)


def align_known_frame(received, **kwargs):
    return align(MSKDemodulator().demodulate(received), **kwargs)


class TestAlignKnownFrame:
    def test_finds_frame_start_after_leading_noise(self):
        frame, wave = _frame_waveform()
        rng = np.random.default_rng(1)
        padded = wave.padded(23, 10)
        noisy = superpose([(padded, Link(), 0)], 1e-4, rng, 0)
        assert align_known_frame(noisy) == 23

    def test_frame_at_origin(self):
        frame, wave = _frame_waveform(seed=2)
        noisy = superpose([(wave, Link(), 0)], 1e-4, np.random.default_rng(2), 0)
        assert align_known_frame(noisy) == 0

    def test_raises_when_pilot_missing(self):
        rng = np.random.default_rng(3)
        noise_only = superpose([], 1e-3, rng, 400)
        with pytest.raises(SynchronizationError):
            align_known_frame(noise_only)

    def test_channel_distortion_tolerated(self):
        frame, wave = _frame_waveform(seed=4)
        link = Link(attenuation=0.6, phase_shift=1.9, frequency_offset=0.02, noise_power=1e-4)
        rng = np.random.default_rng(4)
        received = superpose([(wave.padded(15, 0), link, 0)], link.noise_power, rng, 0)
        assert align_known_frame(received) == 15

    def test_searches_only_the_first_pilot_search_bits(self):
        frame, wave = _frame_waveform(seed=5)
        noisy = superpose([(wave.padded(PILOT_SEARCH_BITS - 40, 0), Link(), 0)], 1e-4,
                          np.random.default_rng(5), 0)
        bits = MSKDemodulator().demodulate(noisy)
        with pytest.raises(SynchronizationError):
            align(bits)
        assert align(bits[PILOT_SEARCH_BITS - 60 :]) == 20
