"""Composable forward-error-correction interface.

A code implements :class:`BlockCode`: ``encode(bits)`` expands ``k`` data
bits into ``n`` coded bits and ``decode(bits)`` maps possibly-corrupted
coded bits back to data bits.  :class:`FECPipeline` chains codes and
computes the aggregate redundancy overhead, which is the quantity §11.4
of the paper charges against ANC's throughput.  The reproduction charges
that overhead as a fixed fraction, so the only concrete code shipped is
the rate-1 :class:`IdentityCode`.
"""

from __future__ import annotations

import abc
from typing import Iterable, List

import numpy as np

from repro.exceptions import CodingError
from repro.utils.validation import ensure_bit_array


class BlockCode(abc.ABC):
    """A code that maps ``k`` data bits to ``n`` coded bits per block."""

    @property
    @abc.abstractmethod
    def data_bits_per_block(self) -> int:
        """Number of data bits consumed per block (k)."""

    @property
    @abc.abstractmethod
    def coded_bits_per_block(self) -> int:
        """Number of coded bits produced per block (n)."""

    @abc.abstractmethod
    def encode(self, bits) -> np.ndarray:
        """Encode a bit array whose length is a multiple of ``k``."""

    @abc.abstractmethod
    def decode(self, bits) -> np.ndarray:
        """Decode a bit array whose length is a multiple of ``n``."""

    @property
    def rate(self) -> float:
        """Code rate ``k / n``."""
        return self.data_bits_per_block / self.coded_bits_per_block

    @property
    def redundancy_overhead(self) -> float:
        """Extra transmitted bits per data bit, ``n/k - 1``."""
        return self.coded_bits_per_block / self.data_bits_per_block - 1.0


class IdentityCode(BlockCode):
    """The trivial rate-1 code (no redundancy); useful as a pipeline default."""

    @property
    def data_bits_per_block(self) -> int:
        """One data bit per block."""
        return 1

    @property
    def coded_bits_per_block(self) -> int:
        """One coded bit per block."""
        return 1

    def encode(self, bits) -> np.ndarray:
        """A checked copy of ``bits``, unchanged."""
        return ensure_bit_array(bits, "bits")

    def decode(self, bits) -> np.ndarray:
        """A checked copy of ``bits``, unchanged."""
        return ensure_bit_array(bits, "bits")


class FECPipeline:
    """A chain of block codes applied in order on encode, reversed on decode.

    Parameters
    ----------
    stages:
        Codes applied outermost-first on encode: ``FECPipeline([a, b])``
        encodes the data with ``a`` and then encodes ``a``'s output with
        ``b``; decode runs ``b`` first.
    """

    def __init__(self, stages: Iterable[BlockCode]) -> None:
        """Chain ``stages``; an empty chain is the identity code."""
        self.stages: List[BlockCode] = list(stages)
        if not self.stages:
            self.stages = [IdentityCode()]
        for stage in self.stages:
            if not isinstance(stage, BlockCode):
                raise CodingError(f"not a BlockCode: {stage!r}")

    def encode(self, bits) -> np.ndarray:
        """Encode ``bits`` with every stage, outermost first."""
        out = ensure_bit_array(bits, "bits")
        for stage in self.stages:
            out = stage.encode(out)
        return out

    def decode(self, bits) -> np.ndarray:
        """Decode ``bits`` with every stage, innermost first."""
        out = ensure_bit_array(bits, "bits")
        for stage in reversed(self.stages):
            out = stage.decode(out)
        return out

    @property
    def rate(self) -> float:
        """Overall code rate (product of stage rates)."""
        rate = 1.0
        for stage in self.stages:
            rate *= stage.rate
        return rate

    @property
    def redundancy_overhead(self) -> float:
        """Extra transmitted bits per data bit for the whole pipeline."""
        return 1.0 / self.rate - 1.0

    def expansion(self, n_data_bits: int) -> int:
        """Number of coded bits produced for ``n_data_bits`` data bits."""
        length = n_data_bits
        for stage in self.stages:
            if length % stage.data_bits_per_block != 0:
                raise CodingError(
                    f"data length {length} is not a multiple of k={stage.data_bits_per_block} "
                    f"for stage {type(stage).__name__}"
                )
            length = (length // stage.data_bits_per_block) * stage.coded_bits_per_block
        return length
