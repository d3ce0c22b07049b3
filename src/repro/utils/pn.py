"""Pseudo-noise (PN) sequence generation.

Two parts of the paper rely on pseudo-random bit sequences:

* the 64-bit pilot attached to both ends of every frame (§7.2), which all
  nodes must be able to regenerate deterministically, and
* the whitening scrambler (§6.2) that XORs the payload with a PN sequence
  so the "random bit pattern" assumption behind the amplitude estimator
  (``E[cos(theta - phi)] = 0``) holds even for structured payloads.

Both are served by a maximal-length LFSR implemented here.
"""

from __future__ import annotations

import functools
import threading
from typing import Dict, Tuple

import numpy as np

from repro.exceptions import ConfigurationError

#: Default LFSR feedback taps (1-indexed bit positions from the output end
#: of the right-shifting register).  Positions (1, 3, 4, 6) realise the
#: maximal-length polynomial x^16 + x^14 + x^13 + x^11 + 1 under this shift
#: convention — period 65535 bits.
DEFAULT_TAPS = (1, 3, 4, 6)
DEFAULT_REGISTER_BITS = 16


class PNSequence:
    """Fibonacci LFSR pseudo-noise bit generator.

    Parameters
    ----------
    seed:
        Non-zero initial register state.  Two generators constructed with
        the same seed and taps produce identical output, which is what lets
        a receiver regenerate the transmitter's pilot and scrambler
        sequences without any side channel.
    taps:
        Feedback tap positions (1-indexed from the output bit).
    register_bits:
        Width of the shift register.

    Output is served from a per-process prefix of the generator's stream
    (see :func:`_stream`), so a generator only keeps its position in that
    stream; the register itself is stepped only to extend the prefix.
    """

    def __init__(
        self,
        seed: int,
        taps: tuple = DEFAULT_TAPS,
        register_bits: int = DEFAULT_REGISTER_BITS,
    ) -> None:
        self._key = _stream_key(seed, tuple(taps), register_bits)
        self._initial_state, self._taps, self._register_bits = self._key
        self._position = 0

    @property
    def state(self) -> int:
        """Current register contents.

        Bit ``i`` of the right-shifting register is the output ``i`` steps
        ahead, so the state is read off the next ``register_bits`` bits of
        the stream without advancing it.
        """
        stop = self._position + self._register_bits
        upcoming = _stream(self._key, stop)[self._position : stop]
        return int.from_bytes(np.packbits(upcoming, bitorder="little").tobytes(), "little")

    def reset(self) -> None:
        """Restore the register to its seed state."""
        self._position = 0

    def next_bit(self) -> int:
        """Advance the register one step and return the output bit."""
        bit = int(_stream(self._key, self._position + 1)[self._position])
        self._position += 1
        return bit

    def bits(self, length: int) -> np.ndarray:
        """Generate the next ``length`` bits as a canonical bit array."""
        if length < 0:
            raise ConfigurationError("length must be non-negative")
        stop = self._position + length
        out = _stream(self._key, stop)[self._position : stop].copy()
        self._position = stop
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PNSequence(seed={self._initial_state:#x}, taps={self._taps}, "
            f"register_bits={self._register_bits})"
        )


@functools.lru_cache(maxsize=None, typed=True)
def _stream_key(seed: int, taps: tuple, register_bits: int) -> Tuple[int, Tuple[int, ...], int]:
    """Validated ``(initial state, taps, register_bits)`` of a generator.

    Memoised (``typed``, so ``1`` and ``1.0`` stay apart): the same few
    generators are constructed for every packet.  Invalid arguments raise
    on every call, since exceptions are not cached.
    """
    if register_bits <= 0:
        raise ConfigurationError("register_bits must be positive")
    mask = (1 << register_bits) - 1
    state = seed & mask
    if state == 0:
        raise ConfigurationError("LFSR seed must be non-zero modulo the register width")
    if not taps:
        raise ConfigurationError("at least one feedback tap is required")
    if max(taps) > register_bits:
        raise ConfigurationError("tap positions cannot exceed the register width")
    return state, tuple(sorted(set(int(t) for t in taps), reverse=True)), register_bits


#: Smallest number of bits by which a cached stream prefix grows.
_MIN_GROWTH_BITS = 1024

_EMPTY = np.zeros(0, dtype=np.uint8)
_EMPTY.setflags(write=False)

#: Per-process stream prefixes keyed by ``(initial state, taps,
#: register_bits)``.  Each value is ``(bits, state)``: the read-only output
#: generated so far and the register state after producing it.  A value is
#: replaced whole, never mutated, so readers need no lock; extensions hold
#: ``_STREAMS_LOCK`` so two threads never race to replace the same prefix.
_STREAMS: Dict[Tuple[int, Tuple[int, ...], int], Tuple[np.ndarray, int]] = {}
_STREAMS_LOCK = threading.Lock()


def _stream(key: Tuple[int, Tuple[int, ...], int], stop: int) -> np.ndarray:
    """Read-only output of the LFSR ``key`` holding at least ``stop`` bits.

    The prefix grows on demand (at least doubling) by stepping the register
    from where it left off.  No period is assumed: taps without position 1
    never return to the seed state, and a wide register's period is
    astronomically long.
    """
    bits, _ = _STREAMS.get(key, (_EMPTY, 0))
    if bits.size >= stop:
        return bits
    with _STREAMS_LOCK:
        bits, state = _STREAMS.get(key, (_EMPTY, key[0]))
        if bits.size >= stop:
            return bits
        _, taps, register_bits = key
        count = max(stop, 2 * bits.size, _MIN_GROWTH_BITS) - bits.size
        top = register_bits - 1
        fresh = bytearray(count)
        for i in range(count):
            feedback = 0
            for tap in taps:
                feedback ^= (state >> (tap - 1)) & 1
            fresh[i] = state & 1
            state = (state >> 1) | (feedback << top)
        bits = np.concatenate([bits, np.frombuffer(fresh, dtype=np.uint8)])
        bits.setflags(write=False)
        _STREAMS[key] = (bits, state)
        return bits


def pn_bits(length: int, seed: int, taps: tuple = DEFAULT_TAPS) -> np.ndarray:
    """Convenience wrapper: the first ``length`` bits of a fresh LFSR."""
    return PNSequence(seed=seed, taps=taps).bits(length)
