"""The CRC-16 over bit arrays.

CRCs are used by the framing layer to validate decoded headers (so the
router and the destinations can trust the SrcID/DstID/SeqNo fields they
read out of an interfered signal, §7.3/§7.5) and to detect residual errors
in decoded payloads when computing packet delivery statistics.  Both use
one CRC: CRC-16/CCITT-FALSE.
"""

from __future__ import annotations

import binascii

import numpy as np

from repro.utils.bits import _int_from_bits, as_bit_array, bits_from_int

#: CRC-16/CCITT-FALSE: width, generator polynomial and initial register value.
CRC_WIDTH = 16
CRC_POLYNOMIAL = 0x1021
CRC_INITIAL = 0xFFFF
_MASK = (1 << CRC_WIDTH) - 1


class _BitwiseCRC:
    """MSB-first, non-reflected CRC-16/CCITT-FALSE engine.

    ``binascii.crc_hqx`` computes this CRC over whole bytes, so the
    bytes go through that C loop and only the ``len % 8`` tail bits
    through the bit-at-a-time shift register.
    """

    def compute(self, bits) -> int:
        """CRC register value after shifting in all data bits."""
        return self._register(as_bit_array(bits))

    def _register(self, data: np.ndarray) -> int:
        """:meth:`compute` of an already checked canonical bit array."""
        whole = data.size - data.size % 8
        register = binascii.crc_hqx(np.packbits(data[:whole]).tobytes(), CRC_INITIAL)
        for bit in data[whole:].tolist():
            incoming = bit ^ (register >> (CRC_WIDTH - 1))
            register = (register << 1) & _MASK
            if incoming:
                register ^= CRC_POLYNOMIAL
        return register

    def append(self, bits) -> np.ndarray:
        """Return ``bits`` with the CRC appended."""
        return self._append(as_bit_array(bits))

    def _append(self, data: np.ndarray) -> np.ndarray:
        """:meth:`append` of an already checked canonical bit array."""
        return np.concatenate([data, bits_from_int(self._register(data), CRC_WIDTH)])

    def verify(self, bits_with_crc) -> bool:
        """Check a bit array whose last :data:`CRC_WIDTH` bits are the CRC."""
        data = as_bit_array(bits_with_crc)
        if data.size < CRC_WIDTH:
            return False
        received = _int_from_bits(data[-CRC_WIDTH:])
        return self._register(data[:-CRC_WIDTH]) == received


#: The library's one CRC instance.
CRC16 = _BitwiseCRC()
