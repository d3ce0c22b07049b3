"""Abstract interfaces for modulators and demodulators.

A modulator maps a bit array to a
:class:`~repro.signal.samples.ComplexSignal` and a demodulator maps it
back.  The interface is deliberately narrow — ``modulate(bits) -> signal``
and ``demodulate(signal) -> bits`` — because that is all the framing layer
and the ANC pipeline need.
"""

from __future__ import annotations

import abc
from typing import Union

import numpy as np

from repro.exceptions import ModulationError
from repro.signal.samples import ComplexSignal

BitsLike = Union[np.ndarray, list, tuple, str]


class Modulator(abc.ABC):
    """Maps bit arrays to complex baseband signals."""

    @property
    @abc.abstractmethod
    def bits_per_symbol(self) -> int:
        """Number of data bits carried by each complex symbol."""

    @property
    @abc.abstractmethod
    def samples_per_symbol(self) -> int:
        """Number of complex samples emitted per symbol."""

    @abc.abstractmethod
    def modulate(self, bits: BitsLike) -> ComplexSignal:
        """Convert a bit array into a complex baseband signal."""

    def samples_for_bits(self, n_bits: int) -> int:
        """Number of complex samples produced for ``n_bits`` data bits."""
        if n_bits < 0:
            raise ModulationError("bit count must be non-negative")
        if n_bits % self.bits_per_symbol != 0:
            raise ModulationError(
                f"bit count {n_bits} is not a multiple of bits_per_symbol="
                f"{self.bits_per_symbol}"
            )
        return (n_bits // self.bits_per_symbol) * self.samples_per_symbol + self.overhead_samples

    @property
    def overhead_samples(self) -> int:
        """Extra samples emitted regardless of payload size (e.g. a reference symbol)."""
        return 0


class Demodulator(abc.ABC):
    """Maps complex baseband signals back to bit arrays."""

    @abc.abstractmethod
    def demodulate(self, signal: ComplexSignal) -> np.ndarray:
        """Convert a complex baseband signal into a bit array."""

