"""PN-sequence XOR scrambler / descrambler.

Scrambling is an involution: applying the same scrambler twice restores the
original bits, which is exactly how the paper describes the operation
(§6.2).  All nodes are configured with the same seed, so any receiver can
descramble any sender's payload.
"""

from __future__ import annotations

import numpy as np

from repro.constants import SCRAMBLER_SEED
from repro.utils.pn import PNSequence
from repro.utils.validation import ensure_bit_array


class Scrambler:
    """XOR a bit stream with a deterministic pseudo-noise sequence.

    Parameters
    ----------
    seed:
        LFSR seed shared by every node in the network.  Every call XORs
        with the PN stream from its start (read from the per-process
        prefix :class:`~repro.utils.pn.PNSequence` serves), so the
        scrambler is stateless across packets and the n-th payload bit is
        always XORed with the n-th PN bit regardless of what was scrambled
        before.
    """

    def __init__(self, seed: int = SCRAMBLER_SEED) -> None:
        self.seed = int(seed)

    def _pn(self, length: int) -> np.ndarray:
        return PNSequence(seed=self.seed).bits(length)

    def scramble(self, bits) -> np.ndarray:
        """Whiten a bit array by XOR with the PN sequence."""
        clean = ensure_bit_array(bits, "bits")
        if clean.size == 0:
            return clean
        # ``clean`` is a fresh copy, so it can take the result in place.
        return np.bitwise_xor(clean, self._pn(clean.size), out=clean)

    def descramble(self, bits) -> np.ndarray:
        """Undo :meth:`scramble`; identical operation because XOR is an involution."""
        return self.scramble(bits)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Scrambler(seed={self.seed:#x})"
