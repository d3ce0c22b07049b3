"""Pilot sequences and pilot search.

Section 7.2: every frame starts with a known 64-bit pseudo-random pilot
and ends with a mirrored copy of it.  The pilot serves two purposes:

* it lets the receiver find where its *known* signal starts within the
  received waveform (alignment), and
* the interference-free pilot at the start (or end, for the second packet)
  of a partially-overlapped collision is decodable with plain MSK
  demodulation, which anchors the whole ANC decoding procedure.

``_find_pilot`` locates the pilot within a decoded bit stream, tolerating a
given number of bit errors; the receive chain calls it on bits it
demodulated itself.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.constants import PILOT_LENGTH_BITS, PILOT_SEED
from repro.exceptions import ConfigurationError
from repro.utils.pn import pn_bits


@dataclass(frozen=True)
class PilotSequence:
    """The protocol-wide known pilot bit pattern.

    All nodes construct the pilot from the same seed
    (:data:`~repro.constants.PILOT_SEED`), so any receiver can regenerate
    it locally; nothing about the pilot is packet-specific.  Only the
    length varies, in the pilot-length ablation.
    """

    length: int = PILOT_LENGTH_BITS

    def __post_init__(self) -> None:
        """Reject a non-positive length."""
        if self.length <= 0:
            raise ConfigurationError("pilot length must be positive")

    @property
    def bits(self) -> np.ndarray:
        """The pilot bit pattern (most-significant generated bit first).

        Every pilot of this length shares one read-only array.
        """
        return _pilot_bits(self.length)


@functools.lru_cache(maxsize=None, typed=True)
def _pilot_bits(length: int) -> np.ndarray:
    """The shared pilot, read-only through a view so it cannot be unfrozen."""
    bits = pn_bits(length, seed=PILOT_SEED)
    bits.setflags(write=False)
    return bits.view()


def _find_all_pilots(
    bits: np.ndarray, pilot: PilotSequence, max_errors: int, search_limit: Optional[int]
) -> list:
    """Every candidate pilot position in the checked canonical bits ``bits``.

    Returns the start indices of all windows within ``max_errors`` of the
    pilot, best match first (ties broken by earliest position), with
    overlapping matches suppressed — two true pilots are always at least a
    pilot-length apart.  A receiver snooping on a collision can see two
    pilots in its head region (one per colliding frame); trying each
    candidate and keeping the frame that validates is how the overhearing
    path locks onto the decodable one.  Only starts at or below
    ``search_limit`` are considered, when it is given.
    """
    errors = _window_errors(bits, pilot, search_limit)
    candidates = np.flatnonzero(errors <= max_errors)
    ranked = candidates[np.argsort(errors[candidates], kind="stable")]
    selected: list = []
    for start in ranked.tolist():
        if all(abs(start - chosen) >= pilot.length for chosen in selected):
            selected.append(start)
    return selected


def _find_pilot(
    bits: np.ndarray, pilot: PilotSequence, max_errors: int, search_limit: Optional[int]
) -> Optional[int]:
    """Start of the best pilot match in the checked canonical bits ``bits``.

    The window with the fewest bit errors wins (the earliest on a tie);
    ``None`` when it has more than ``max_errors`` errors or the stream is
    shorter than the pilot.  Only starts at or below ``search_limit`` are
    considered, when it is given.
    """
    errors = _window_errors(bits, pilot, search_limit)
    if errors.size == 0:
        return None
    best_index = int(np.argmin(errors))
    if errors[best_index] <= max_errors:
        return best_index
    return None


def _window_errors(
    bits: np.ndarray, pilot: PilotSequence, search_limit: Optional[int]
) -> np.ndarray:
    """Bit errors against the pilot of every window starting at or below the limit.

    ``bits`` is a checked canonical bit array.  Entry ``i`` scores the
    window starting at bit ``i``; the array is empty when the stream is
    shorter than the pilot.  A window ``w`` of 0/1 bits differs from the
    pilot ``p`` in ``sum(w * (1 - 2p)) + sum(p)`` places
    (``w XOR p = w + p - 2wp``), one exact integer correlation.
    """
    length = pilot.length
    last_start = bits.size - length
    if last_start < 0:
        return np.zeros(0, dtype=np.intp)
    if search_limit is not None:
        last_start = min(last_start, max(int(search_limit), 0))
    weights, ones = _pilot_weights(length)
    head = bits[: last_start + length].astype(np.intp)
    return np.correlate(head, weights, mode="valid") + ones


@functools.lru_cache(maxsize=None, typed=True)
def _pilot_weights(length: int):
    """``(1 - 2 * pilot, sum(pilot))`` as machine integers, for the window count."""
    pattern = _pilot_bits(length).astype(np.intp)
    weights = 1 - 2 * pattern
    weights.setflags(write=False)
    return weights, int(pattern.sum())
