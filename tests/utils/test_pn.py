"""Tests for the LFSR pseudo-noise generator."""

import sys
import threading

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.utils.pn import DEFAULT_REGISTER_BITS, DEFAULT_TAPS, PNSequence, pn_bits


class ReferenceLFSR:
    """Per-bit Fibonacci LFSR, stepped directly: the definition of the stream."""

    def __init__(self, seed, taps=DEFAULT_TAPS, register_bits=DEFAULT_REGISTER_BITS):
        self.register_bits = register_bits
        self.mask = (1 << register_bits) - 1
        self.taps = taps
        self.initial = seed & self.mask
        self.state = self.initial

    def reset(self):
        self.state = self.initial

    def next_bit(self):
        feedback = 0
        for tap in self.taps:
            feedback ^= (self.state >> (tap - 1)) & 1
        output = self.state & 1
        self.state = ((self.state >> 1) | (feedback << (self.register_bits - 1))) & self.mask
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

    def test_reset_restores_stream(self):
        gen = PNSequence(seed=0x1234)
        first = gen.bits(100)
        gen.reset()
        second = gen.bits(100)
        assert np.array_equal(first, second)

    def test_zero_seed_rejected(self):
        with pytest.raises(ConfigurationError):
            PNSequence(seed=0)

    def test_seed_reduced_modulo_register_rejected_if_zero(self):
        with pytest.raises(ConfigurationError):
            PNSequence(seed=1 << DEFAULT_REGISTER_BITS)

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

    @pytest.mark.parametrize("register_bits", [0, -8])
    def test_non_positive_register_rejected_on_every_call(self, register_bits):
        # The validated stream key is memoised; a rejected one must not be.
        for _ in range(2):
            with pytest.raises(ConfigurationError, match="register_bits must be positive"):
                PNSequence(seed=1, taps=(1,), register_bits=register_bits)

    def test_maximal_length_period(self):
        # A maximal-length 16-bit LFSR revisits its initial state only
        # after 2^16 - 1 steps.
        gen = PNSequence(seed=0x0001)
        initial = gen.state
        period = 0
        while True:
            gen.next_bit()
            period += 1
            if gen.state == initial:
                break
            assert period <= (1 << 16)
        assert period == (1 << 16) - 1

    def test_invalid_taps_rejected(self):
        with pytest.raises(ConfigurationError):
            PNSequence(seed=1, taps=())
        with pytest.raises(ConfigurationError):
            PNSequence(seed=1, taps=(40,), register_bits=16)


class TestPnBits:
    def test_matches_class(self):
        assert np.array_equal(pn_bits(64, seed=0xABCD), PNSequence(seed=0xABCD).bits(64))


class TestAgainstReference:
    """The cached stream must reproduce the per-bit LFSR exactly."""

    @pytest.mark.parametrize("seed", [0x0001, 0xACE1, 0xBEEF, 0xFFFF])
    def test_interleaved_calls_past_the_period(self, seed):
        gen, ref = PNSequence(seed=seed), ReferenceLFSR(seed)
        rng = np.random.default_rng(seed)
        consumed = 0
        # Long reads carry both generators well past the 65 535-bit period.
        while consumed < 3 * 65_535:
            action = int(rng.integers(0, 10))
            if action < 5:
                length = int(rng.integers(0, 20_000))
                assert np.array_equal(gen.bits(length), ref.bits(length))
                consumed += length
            elif action < 8:
                assert gen.next_bit() == ref.next_bit()
                consumed += 1
            elif action < 9:
                assert gen.state == ref.state
            else:
                gen.reset()
                ref.reset()
            assert gen.state == ref.state

    def test_taps_that_never_revisit_the_seed(self):
        # Without tap 1 the register loses its seed state for good, so a
        # generator that searched for a period would never stop.
        gen = PNSequence(seed=0xACE1, taps=(3,))
        ref = ReferenceLFSR(0xACE1, taps=(3,))
        assert np.array_equal(gen.bits(5000), ref.bits(5000))
        assert gen.state == ref.state
        assert gen.next_bit() == ref.next_bit()

    @pytest.mark.parametrize(
        "taps,register_bits", [((2, 5), 7), ((1,), 1), ((1, 40, 64), 70)]
    )
    def test_other_registers(self, taps, register_bits):
        seed = 0x5A5A5A5A5A5A5A5A5 | 1
        gen = PNSequence(seed=seed, taps=taps, register_bits=register_bits)
        ref = ReferenceLFSR(seed, taps=taps, register_bits=register_bits)
        for length in (0, 1, 37, 3000):
            assert gen.state == ref.state
            assert np.array_equal(gen.bits(length), ref.bits(length))

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
        assert b.next_bit() == ref[50]
        a.reset()
        assert np.array_equal(b.bits(10), ref[51:61])
        assert np.array_equal(a.bits(10), ref[:10])


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
