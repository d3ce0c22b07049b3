"""Tests for the PN XOR scrambler (§6.2)."""

import numpy as np

from repro.scrambler.whitening import Scrambler
from repro.utils.bits import random_bits


class TestScrambler:
    def test_involution(self):
        """Scrambling twice restores the original bits."""
        scrambler = Scrambler()
        bits = random_bits(500, np.random.default_rng(0))
        assert np.array_equal(scrambler.descramble(scrambler.scramble(bits)), bits)

    def test_whitens_constant_input(self):
        """An all-zero payload becomes (roughly) balanced after scrambling."""
        scrambler = Scrambler()
        out = scrambler.scramble(np.zeros(4096, dtype=np.uint8))
        ones = int(out.sum())
        assert 0.4 * 4096 < ones < 0.6 * 4096

    def test_stateless_across_calls(self):
        scrambler = Scrambler()
        bits = random_bits(64, np.random.default_rng(2))
        assert np.array_equal(scrambler.scramble(bits), scrambler.scramble(bits))

    def test_empty_input(self):
        assert Scrambler().scramble(np.array([], dtype=np.uint8)).size == 0

    def test_output_is_binary(self):
        out = Scrambler().scramble(random_bits(200, np.random.default_rng(3)))
        assert set(np.unique(out)) <= {0, 1}

    def test_all_nodes_share_default_seed(self):
        bits = random_bits(64, np.random.default_rng(4))
        assert np.array_equal(Scrambler().scramble(bits), Scrambler().scramble(bits))
