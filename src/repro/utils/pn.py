"""Pseudo-noise (PN) sequence generation.

Two parts of the paper rely on pseudo-random bit sequences:

* the 64-bit pilot attached to both ends of every frame (§7.2), which all
  nodes must be able to regenerate deterministically, and
* the whitening scrambler (§6.2) that XORs the payload with a PN sequence
  so the "random bit pattern" assumption behind the amplitude estimator
  (``E[cos(theta - phi)] = 0``) holds even for structured payloads.

Both are served by one maximal-length 16-bit LFSR implemented here; only
the seed differs.
"""

from __future__ import annotations

import threading
from typing import Dict, Tuple

import numpy as np

from repro.exceptions import ConfigurationError

#: LFSR feedback taps (1-indexed bit positions from the output end of the
#: right-shifting register).  Positions (1, 3, 4, 6) realise the
#: maximal-length polynomial x^16 + x^14 + x^13 + x^11 + 1 under this shift
#: convention — period 65535 bits.
LFSR_TAPS = (1, 3, 4, 6)
LFSR_REGISTER_BITS = 16


class PNSequence:
    """Fibonacci LFSR pseudo-noise bit generator.

    Parameters
    ----------
    seed:
        Non-zero initial register state (modulo the register width).  Two
        generators constructed with the same seed produce identical
        output, which is what lets a receiver regenerate the transmitter's
        pilot and scrambler sequences without any side channel.

    Output is served from a per-process prefix of the generator's stream
    (see :func:`_stream`), so a generator only keeps its position in that
    stream; the register itself is stepped only to extend the prefix.
    """

    def __init__(self, seed: int) -> None:
        """Start a generator at the beginning of ``seed``'s stream."""
        state = seed & ((1 << LFSR_REGISTER_BITS) - 1)
        if state == 0:
            raise ConfigurationError("LFSR seed must be non-zero modulo the register width")
        self._initial_state = state
        self._position = 0

    def bits(self, length: int) -> np.ndarray:
        """Generate the next ``length`` bits as a canonical bit array."""
        if length < 0:
            raise ConfigurationError("length must be non-negative")
        stop = self._position + length
        out = _stream(self._initial_state, stop)[self._position : stop].copy()
        self._position = stop
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        """The generator's seed, for debugging."""
        return f"PNSequence(seed={self._initial_state:#x})"


#: Smallest number of bits by which a cached stream prefix grows.
_MIN_GROWTH_BITS = 1024

_EMPTY = np.zeros(0, dtype=np.uint8)
_EMPTY.setflags(write=False)

#: Per-process stream prefixes keyed by initial state.  Each value is
#: ``(bits, state)``: the read-only output generated so far and the
#: register state after producing it.  A value is replaced whole, never
#: mutated, so readers need no lock; extensions hold ``_STREAMS_LOCK`` so
#: two threads never race to replace the same prefix.
_STREAMS: Dict[int, Tuple[np.ndarray, int]] = {}
_STREAMS_LOCK = threading.Lock()


def _stream(initial_state: int, stop: int) -> np.ndarray:
    """Read-only output of the LFSR seeded ``initial_state``, at least ``stop`` bits.

    The prefix grows on demand (at least doubling) by stepping the register
    from where it left off.
    """
    bits, _ = _STREAMS.get(initial_state, (_EMPTY, 0))
    if bits.size >= stop:
        return bits
    with _STREAMS_LOCK:
        bits, state = _STREAMS.get(initial_state, (_EMPTY, initial_state))
        if bits.size >= stop:
            return bits
        count = max(stop, 2 * bits.size, _MIN_GROWTH_BITS) - bits.size
        top = LFSR_REGISTER_BITS - 1
        fresh = bytearray(count)
        for i in range(count):
            feedback = 0
            for tap in LFSR_TAPS:
                feedback ^= (state >> (tap - 1)) & 1
            fresh[i] = state & 1
            state = (state >> 1) | (feedback << top)
        bits = np.concatenate([bits, np.frombuffer(fresh, dtype=np.uint8)])
        bits.setflags(write=False)
        _STREAMS[initial_state] = (bits, state)
        return bits


def pn_bits(length: int, seed: int) -> np.ndarray:
    """Convenience wrapper: the first ``length`` bits of a fresh LFSR."""
    return PNSequence(seed=seed).bits(length)
