"""Alignment of the known signal in a collision (§7.2).

A collision is never perfectly synchronised: the first packet's head and
the second packet's tail are interference-free.  The receiver demodulates
the interference-free head with standard MSK; ``align_known_frame``
searches those bits for the protocol pilot and returns the sample index
at which the first frame starts.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import SynchronizationError
from repro.framing.pilot import PilotSequence, _find_pilot
from repro.utils.bits import as_bit_array

#: How many demodulated bits of the interference-free head (or tail) are
#: searched for the pilot.
PILOT_SEARCH_BITS = 256


def align_known_frame(
    head_bits: np.ndarray,
    pilot: Optional[PilotSequence] = None,
    max_pilot_errors: int = 4,
) -> int:
    """Find where the first frame starts by locating the pilot in the clean head.

    The first :data:`PILOT_SEARCH_BITS` of the demodulated bits are
    searched.  Returns the index of the frame's reference sample within
    the received stream, which is also the bit index at which the pilot
    was found.

    Parameters
    ----------
    head_bits:
        :meth:`~repro.modulation.msk.MSKDemodulator.demodulate` of the
        received sample stream, starting at (or before) the beginning of
        the first packet; bits past :data:`PILOT_SEARCH_BITS` are ignored.
    pilot:
        The protocol pilot sequence (defaults to the standard 64-bit pilot).
    max_pilot_errors:
        Bit-error tolerance of the pilot match.

    Raises
    ------
    SynchronizationError
        If the pilot cannot be found — the paper's receiver drops the
        packet in this case (§7.2).
    """
    pilot_seq = pilot if pilot is not None else PilotSequence()
    head = as_bit_array(head_bits[:PILOT_SEARCH_BITS])
    return _leading_pilot(head, pilot_seq, max_pilot_errors)


def _leading_pilot(head_bits: np.ndarray, pilot: PilotSequence, max_errors: int) -> int:
    """:func:`align_known_frame`'s frame start in already checked canonical bits."""
    index = _find_pilot(head_bits[:PILOT_SEARCH_BITS], pilot, max_errors, None)
    if index is None:
        raise SynchronizationError("pilot sequence not found in the interference-free head")
    # With one sample per symbol, the bit at index k is carried by samples
    # (k, k + 1); the frame's reference sample is therefore at sample k.
    return index
