"""Tests for the LFSR pseudo-noise generator."""

import sys
import threading

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.utils.pn import LFSR_REGISTER_BITS, LFSR_TAPS, PNSequence, pn_bits

PERIOD = (1 << LFSR_REGISTER_BITS) - 1


class ReferenceLFSR:
    """Per-bit Fibonacci LFSR, stepped directly: the definition of the stream."""

    def __init__(self, seed):
        self.mask = (1 << LFSR_REGISTER_BITS) - 1
        self.state = seed & self.mask

    def next_bit(self):
        feedback = 0
        for tap in LFSR_TAPS:
            feedback ^= (self.state >> (tap - 1)) & 1
        output = self.state & 1
        self.state = ((self.state >> 1) | (feedback << (LFSR_REGISTER_BITS - 1))) & self.mask
        return output

    def bits(self, length):
        return np.array([self.next_bit() for _ in range(length)], dtype=np.uint8)


class TestPNSequence:
    def test_same_seed_same_bits(self):
        a = PNSequence(seed=0xBEEF).bits(256)
        b = PNSequence(seed=0xBEEF).bits(256)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = PNSequence(seed=0xBEEF).bits(256)
        b = PNSequence(seed=0xCAFE).bits(256)
        assert not np.array_equal(a, b)

    def test_zero_seed_rejected(self):
        with pytest.raises(ConfigurationError):
            PNSequence(seed=0)

    def test_seed_reduced_modulo_register_rejected_if_zero(self):
        with pytest.raises(ConfigurationError):
            PNSequence(seed=1 << LFSR_REGISTER_BITS)

    def test_bits_are_binary(self):
        bits = PNSequence(seed=0x7777).bits(1000)
        assert set(np.unique(bits)) <= {0, 1}

    def test_roughly_balanced(self):
        bits = PNSequence(seed=0x2468).bits(4096)
        ones = int(bits.sum())
        assert 0.45 * 4096 < ones < 0.55 * 4096

    def test_negative_length_rejected(self):
        with pytest.raises(ConfigurationError):
            PNSequence(seed=1).bits(-1)

    def test_maximal_length_period(self):
        # A maximal-length 16-bit LFSR repeats its output after 2^16 - 1
        # bits and after no proper divisor of that: the smallest period
        # divides every period, so the four largest proper divisors of
        # 65535 = 3 * 5 * 17 * 257 cover them all.
        bits = PNSequence(seed=0x0001).bits(2 * PERIOD)
        assert np.array_equal(bits[PERIOD:], bits[:PERIOD])
        for prime in (3, 5, 17, 257):
            shift = PERIOD // prime
            assert not np.array_equal(bits[shift : shift + PERIOD], bits[:PERIOD])


class TestPnBits:
    def test_matches_class(self):
        assert np.array_equal(pn_bits(64, seed=0xABCD), PNSequence(seed=0xABCD).bits(64))


class TestAgainstReference:
    """The cached stream must reproduce the per-bit LFSR exactly."""

    @pytest.mark.parametrize("seed", [0x0001, 0xACE1, 0xBEEF, 0xFFFF])
    def test_consecutive_reads_past_the_period(self, seed):
        gen, ref = PNSequence(seed=seed), ReferenceLFSR(seed)
        rng = np.random.default_rng(seed)
        consumed = 0
        # Long reads carry both generators well past the 65 535-bit period;
        # 0- and 1-bit reads step the generator's position one bit at a time.
        while consumed < 3 * PERIOD:
            length = int(rng.integers(0, 20_000)) if rng.integers(0, 2) else int(rng.integers(0, 2))
            assert np.array_equal(gen.bits(length), ref.bits(length))
            consumed += length

    def test_mutating_a_returned_array_does_not_change_later_output(self):
        first = PNSequence(seed=0x1357).bits(4096)
        expected = first.copy()
        first ^= 1
        assert np.array_equal(PNSequence(seed=0x1357).bits(4096), expected)
        assert np.array_equal(pn_bits(4096, seed=0x1357), expected)

    def test_same_seed_instances_keep_independent_positions(self):
        a, b = PNSequence(seed=0x2468), PNSequence(seed=0x2468)
        ref = ReferenceLFSR(0x2468).bits(300)
        assert np.array_equal(a.bits(100), ref[:100])
        assert np.array_equal(b.bits(50), ref[:50])
        assert np.array_equal(a.bits(100), ref[100:200])
        assert np.array_equal(b.bits(11), ref[50:61])
        assert np.array_equal(PNSequence(seed=0x2468).bits(10), ref[:10])


def test_concurrent_readers_of_a_new_stream_all_see_the_reference():
    # Threads race to grow the same prefix; none may see a short or torn one.
    seed = 0x3C5A
    expected = ReferenceLFSR(seed).bits(40_000)
    lengths = [100, 5_000, 40_000, 1_500, 20_000, 300, 33_333, 7]
    results = {}

    def read(length):
        results[length] = PNSequence(seed=seed).bits(length)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(n,)) for n in lengths]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(previous)
    for length in lengths:
        assert np.array_equal(results[length], expected[:length])
