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

from repro.signal.samples import ComplexSignal

BitsLike = Union[np.ndarray, list, tuple, str]


class Modulator(abc.ABC):
    """Maps bit arrays to complex baseband signals."""

    @property
    @abc.abstractmethod
    def samples_per_symbol(self) -> int:
        """Number of complex samples emitted per symbol."""

    @abc.abstractmethod
    def modulate(self, bits: BitsLike) -> ComplexSignal:
        """Convert a bit array into a complex baseband signal."""


class Demodulator(abc.ABC):
    """Maps complex baseband signals back to bit arrays."""

    @abc.abstractmethod
    def demodulate(self, signal: ComplexSignal) -> np.ndarray:
        """Convert a complex baseband signal into a bit array."""

