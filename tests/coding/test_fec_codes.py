"""Tests for the FEC pipeline and the block-code interface."""

import numpy as np
import pytest

from repro.coding.fec import BlockCode, FECPipeline, IdentityCode
from repro.exceptions import CodingError
from repro.utils.bits import random_bits


class _ParityCode(BlockCode):
    """Systematic (n, k) stub: each k-bit block is followed by n - k parity bits."""

    def __init__(self, k: int, n: int) -> None:
        self.k, self.n = k, n

    @property
    def data_bits_per_block(self) -> int:
        return self.k

    @property
    def coded_bits_per_block(self) -> int:
        return self.n

    def encode(self, bits) -> np.ndarray:
        blocks = np.asarray(bits, dtype=np.uint8).reshape(-1, self.k)
        parity = np.bitwise_xor.reduce(blocks, axis=1, keepdims=True)
        return np.hstack([blocks] + [parity] * (self.n - self.k)).ravel()

    def decode(self, bits) -> np.ndarray:
        return np.asarray(bits, dtype=np.uint8).reshape(-1, self.n)[:, : self.k].ravel()


class TestFECPipeline:
    def test_identity_default(self):
        pipeline = FECPipeline([])
        data = random_bits(16, np.random.default_rng(5))
        assert np.array_equal(pipeline.encode(data), data)

    def test_two_stage_roundtrip(self):
        pipeline = FECPipeline([_ParityCode(2, 3), _ParityCode(1, 3)])
        data = random_bits(32, np.random.default_rng(6))
        coded = pipeline.encode(data)
        assert coded.size == pipeline.expansion(32) == 144
        assert np.array_equal(pipeline.decode(coded), data)

    def test_combined_rate(self):
        pipeline = FECPipeline([_ParityCode(2, 3), _ParityCode(1, 3)])
        assert pipeline.rate == pytest.approx(2 / 9)
        assert pipeline.redundancy_overhead == pytest.approx(3.5)
        assert _ParityCode(1, 3).redundancy_overhead == pytest.approx(2.0)

    def test_expansion(self):
        pipeline = FECPipeline([_ParityCode(4, 7)])
        assert pipeline.expansion(8) == 14

    def test_expansion_validates_length(self):
        with pytest.raises(CodingError):
            FECPipeline([_ParityCode(4, 7)]).expansion(10)

    def test_rejects_non_code_stage(self):
        with pytest.raises(CodingError):
            FECPipeline([_ParityCode(4, 7), "xor"])

    def test_identity_code_properties(self):
        code = IdentityCode()
        assert code.rate == 1.0
        assert code.redundancy_overhead == 0.0

    def test_identity_code_passes_bits_through(self):
        code = IdentityCode()
        bits = random_bits(37, np.random.default_rng(5))
        assert np.array_equal(code.encode(bits), bits)
        assert np.array_equal(code.decode(code.encode(bits)), bits)
