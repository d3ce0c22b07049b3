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

    Every node seeds the LFSR with :data:`~repro.constants.SCRAMBLER_SEED`.
    Every call XORs with the PN stream from its start (read from the
    per-process prefix :class:`~repro.utils.pn.PNSequence` serves), so the
    scrambler is stateless across packets and the n-th payload bit is
    always XORed with the n-th PN bit regardless of what was scrambled
    before.
    """

    def scramble(self, bits) -> np.ndarray:
        """Whiten a bit array by XOR with the PN sequence."""
        clean = ensure_bit_array(bits, "bits")
        if clean.size == 0:
            return clean
        # ``clean`` is a fresh copy, so it can take the result in place.
        return np.bitwise_xor(clean, PNSequence(seed=SCRAMBLER_SEED).bits(clean.size), out=clean)

    def descramble(self, bits) -> np.ndarray:
        """Undo :meth:`scramble`; identical operation because XOR is an involution."""
        return self.scramble(bits)
