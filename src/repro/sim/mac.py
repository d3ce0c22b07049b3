"""MAC policies for the discrete-event traffic core.

Two medium-access policies drive :mod:`repro.sim.simulation`, chosen by
its ``mac_policy`` (:data:`MAC_POLICIES`):

* :class:`CsmaBackoffMac` — carrier sense with binary exponential
  backoff.  A node with traffic waits DIFS plus a uniformly drawn number
  of contention slots, senses the channel, and transmits if idle.  On a
  loss (the genie feedback the simulation provides in place of ACK
  timers) the contention window doubles from 4 up to 64 slots; on
  success it resets to 4, and the fourth failed attempt drops the
  packet.  Because Alice and Bob cannot hear each other in the canonical
  topology, carrier sense does *not* prevent their packets colliding at
  the relay — the hidden-terminal behaviour that makes the offered-load
  sweep interesting.
* :class:`ScheduledMac` — the planner's world view: a fixed TDMA slot
  grid whose slots are owned round-robin by the configured ranks, with
  no contention, no backoff and no retransmissions.  This is the
  "optimal MAC" the paper assumes in §11.1.

The per-node mutable CSMA state is a tiny dataclass owned by the
simulation, so the policies themselves hold only constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = ["CsmaBackoffMac", "CsmaState", "MAC_POLICIES", "ScheduledMac"]

#: The registered MAC policy names, in preference order.
MAC_POLICIES: Tuple[str, ...] = ("csma", "scheduled")


@dataclass
class CsmaState:
    """Per-node mutable CSMA state: contention window and retry count."""

    cw: int
    retries: int = 0


class CsmaBackoffMac:
    """Carrier sense + binary exponential backoff (802.11-style DCF core).

    The contention parameters are fixed: one contention slot is
    :attr:`slot_samples` samples, DIFS is :attr:`difs_samples`, the window
    starts at :attr:`cw_min` slots and doubles on every loss up to
    :attr:`cw_max`, and a packet gets :attr:`max_retries` transmission
    attempts before it is dropped.
    """

    slot_samples = 32
    difs_samples = 64
    cw_min = 4
    cw_max = 64
    max_retries = 4

    def fresh_state(self) -> CsmaState:
        """Initial per-node contention state."""
        return CsmaState(cw=self.cw_min)

    def access_delay(self, state: CsmaState, rng: np.random.Generator) -> float:
        """DIFS plus a backoff drawn uniformly from the current window."""
        slots = int(rng.integers(0, state.cw + 1))
        return float(self.difs_samples + slots * self.slot_samples)

    def on_failure(self, state: CsmaState) -> None:
        """Double the contention window (bounded) and count the retry."""
        state.cw = min(state.cw * 2, self.cw_max)
        state.retries += 1

    def exhausted(self, state: CsmaState) -> bool:
        """True when the packet has used up its transmission attempts."""
        return state.retries >= self.max_retries

    def on_success(self, state: CsmaState) -> None:
        """Reset the window and retry count after a delivered frame."""
        state.cw = self.cw_min
        state.retries = 0


class ScheduledMac:
    """A collision-free TDMA slot grid (the planner's phases as a policy).

    Parameters
    ----------
    slot_samples:
        Duration of one scheduled slot (sized by the simulation to fit a
        frame plus the worst-case ANC overlap offset and a guard).
    n_ranks:
        Number of round-robin slot owners; rank ``r`` owns slots
        ``r, r + n_ranks, r + 2 n_ranks, ...``.
    """

    def __init__(self, slot_samples: int, n_ranks: int) -> None:
        """Validate and store the slot grid geometry."""
        if slot_samples <= 0:
            raise ConfigurationError("slot_samples must be positive")
        if n_ranks <= 0:
            raise ConfigurationError("n_ranks must be positive")
        self.slot_samples = int(slot_samples)
        self.n_ranks = int(n_ranks)

    def slot_owner(self, slot_index: int) -> int:
        """The rank owning a slot."""
        return int(slot_index) % self.n_ranks
