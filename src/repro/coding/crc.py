"""Cyclic redundancy checks over bit arrays.

CRCs are used by the framing layer to validate decoded headers (so the
router and the destinations can trust the SrcID/DstID/SeqNo fields they
read out of an interfered signal, §7.3/§7.5) and to detect residual errors
in decoded payloads when computing packet delivery statistics.
"""

from __future__ import annotations

import binascii
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.exceptions import CRCError, ConfigurationError
from repro.utils.bits import _int_from_bits, as_bit_array, bits_from_int


@dataclass(frozen=True)
class CRCSpec:
    """Parameters of a CRC: width, generator polynomial and initial value."""

    width: int
    polynomial: int
    initial: int
    name: str

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ConfigurationError("CRC width must be positive")
        if self.polynomial <= 0:
            raise ConfigurationError("CRC polynomial must be positive")


class _BitwiseCRC:
    """MSB-first, non-reflected CRC engine.

    The register is the plain bit-at-a-time division.  The CCITT
    polynomial (0x1021, 16 bits) is the one ``binascii.crc_hqx``
    computes, so for it the whole bytes go through that C loop and only
    the ``len % 8`` tail bits through the shift register.
    """

    def __init__(self, spec: CRCSpec) -> None:
        self.spec = spec
        self._mask = (1 << spec.width) - 1
        self._polynomial = spec.polynomial & self._mask
        self._ccitt = spec.width == 16 and self._polynomial == 0x1021

    def compute(self, bits) -> int:
        """CRC register value after shifting in all data bits."""
        return self._register(as_bit_array(bits))

    def _register(self, data: np.ndarray) -> int:
        """:meth:`compute` of an already checked canonical bit array."""
        top = self.spec.width - 1
        mask = self._mask
        register = self.spec.initial & mask
        if self._ccitt:
            whole = data.size - data.size % 8
            register = binascii.crc_hqx(np.packbits(data[:whole]).tobytes(), register)
            data = data[whole:]
        for bit in data.tolist():
            incoming = bit ^ (register >> top)
            register = (register << 1) & mask
            if incoming:
                register ^= self._polynomial
        return register

    def append(self, bits) -> np.ndarray:
        """Return ``bits`` with the CRC appended."""
        return self._append(as_bit_array(bits))

    def _append(self, data: np.ndarray) -> np.ndarray:
        """:meth:`append` of an already checked canonical bit array."""
        return np.concatenate([data, bits_from_int(self._register(data), self.spec.width)])

    def verify(self, bits_with_crc) -> bool:
        """Check a bit array whose last ``width`` bits are the CRC."""
        data = as_bit_array(bits_with_crc)
        if data.size < self.spec.width:
            return False
        received = _int_from_bits(data[-self.spec.width :])
        return self._register(data[: -self.spec.width]) == received

    def strip(self, bits_with_crc) -> np.ndarray:
        """Verify and remove the trailing CRC, raising :class:`CRCError` on failure."""
        data = as_bit_array(bits_with_crc)
        if not self.verify(data):
            raise CRCError(f"{self.spec.name} check failed")
        return data[: -self.spec.width]


#: CRC-16/CCITT-FALSE: polynomial 0x1021, initial value 0xFFFF.
CRC16 = _BitwiseCRC(CRCSpec(width=16, polynomial=0x1021, initial=0xFFFF, name="CRC-16/CCITT"))

#: CRC-32 (IEEE 802.3 polynomial, non-reflected variant used only internally).
CRC32 = _BitwiseCRC(CRCSpec(width=32, polynomial=0x04C11DB7, initial=0xFFFFFFFF, name="CRC-32"))


def check_and_strip_crc(bits, crc: _BitwiseCRC = CRC16) -> Tuple[np.ndarray, bool]:
    """Return ``(payload, ok)`` where ``ok`` indicates whether the CRC matched.

    Unlike :meth:`_BitwiseCRC.strip` this never raises, which is the shape
    the packet-delivery accounting wants: a failed CRC is a lost packet,
    not an exception.
    """
    data = as_bit_array(bits)
    if data.size < crc.spec.width:
        return data, False
    ok = crc.verify(data)
    return data[: -crc.spec.width], ok
