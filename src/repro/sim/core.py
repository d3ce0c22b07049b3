"""Deterministic discrete-event core of the traffic simulator.

The :class:`EventScheduler` is a classic event-heap engine with two
properties the rest of :mod:`repro.sim` leans on hard:

* **Stable tie-breaking.**  Heap keys are ``(time, priority, sequence)``
  tuples, where the sequence number is a monotonically increasing
  insertion counter.  Two events scheduled for the same instant therefore
  always execute in the order they were scheduled (priority first), so a
  run is a pure function of its seeds — never of heap internals or dict
  iteration order.
* **An auditable trace.**  Every executed event is appended to
  :attr:`EventScheduler.trace` and folded into a SHA-256 digest
  (:meth:`EventScheduler.trace_digest`).  Determinism tests compare the
  digest across serial and parallel engine executions; if two runs of the
  same seed ever diverge, the first differing event names the culprit.

Randomness is organised as *named streams* (:class:`RngStreams`): every
key, such as a ``(node, purpose)`` pair, gets its own
:class:`numpy.random.Generator` spawned from one
:class:`numpy.random.SeedSequence`, so adding a draw to one stream never
perturbs any other — the same discipline
:meth:`repro.experiments.config.ExperimentConfig.run_rng` applies between
engine trials, pushed down into the event loop.
"""

from __future__ import annotations

import hashlib
import heapq
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, SimulationError

__all__ = ["Event", "EventScheduler", "RngStreams"]


@dataclass(order=False)
class Event:
    """One scheduled callback, identified by its ``(time, priority, seq)`` key.

    Attributes
    ----------
    time:
        Absolute simulation time (samples) at which the event fires.
    priority:
        Secondary ordering key; lower values fire first at equal times.
    seq:
        Insertion counter — the final tie-breaker, making execution order
        reproducible for events equal in both time and priority.
    kind:
        Free-form label recorded in the execution trace.
    callback:
        Zero-argument callable run when the event fires.
    cancelled:
        Lazily-cancelled events stay in the heap but are skipped (and are
        *not* recorded in the trace).
    """

    time: float
    priority: int
    seq: int
    kind: str
    callback: Callable[[], None] = field(repr=False)
    cancelled: bool = False


class EventScheduler:
    """A monotonic event heap with stable tie-breaking and a trace digest."""

    def __init__(self) -> None:
        """Create an empty scheduler positioned at time zero."""
        self._heap: List[Tuple[float, int, int, Event]] = []
        self._seq = 0
        self._now = 0.0
        #: Executed events as ``(time, priority, seq, kind)`` tuples, in
        #: execution order.  Cancelled events never appear.
        self.trace: List[Tuple[float, int, int, str]] = []

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time (the time of the last executed event)."""
        return self._now

    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        kind: str = "event",
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback`` to fire ``delay`` samples from now.

        Returns the :class:`Event`, whose :attr:`~Event.cancelled` flag
        (or :meth:`cancel`) removes it lazily.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        event = Event(
            time=self._now + float(delay),
            priority=int(priority),
            seq=self._seq,
            kind=str(kind),
            callback=callback,
        )
        self._seq += 1
        heapq.heappush(self._heap, (event.time, event.priority, event.seq, event))
        return event

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], None],
        kind: str = "event",
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback`` at an absolute simulation time."""
        return self.schedule(float(time) - self._now, callback, kind=kind, priority=priority)

    @staticmethod
    def cancel(event: Event) -> None:
        """Cancel a scheduled event (lazy: it is skipped when popped)."""
        event.cancelled = True

    # ------------------------------------------------------------------
    def run_until(self, t_end: float) -> int:
        """Execute events in key order until the heap drains or ``t_end``.

        Events with ``time > t_end`` stay in the heap; the clock advances
        to the last *executed* event.  Returns the number of events run.
        """
        executed = 0
        while self._heap:
            time, _, _, event = self._heap[0]
            if time > t_end:
                break
            heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self._now = event.time
            self.trace.append((event.time, event.priority, event.seq, event.kind))
            event.callback()
            executed += 1
        return executed

    def trace_digest(self) -> str:
        """SHA-256 over the executed-event trace (hex).

        Two runs of the same seeded simulation must produce identical
        digests wherever they execute; the digest is what the
        determinism tests compare across serial and parallel engines.
        """
        hasher = hashlib.sha256()
        for time, priority, seq, kind in self.trace:
            hasher.update(f"{time!r}|{priority}|{seq}|{kind}\n".encode())
        return hasher.hexdigest()


class RngStreams:
    """Named, independent random streams derived from one seed sequence.

    Every ``key`` (any tuple of ints/strings) maps to its own
    :class:`numpy.random.Generator`; generators are cached so repeated
    lookups return the same stream object.  String key parts are folded
    to integers via SHA-256, keeping the whole derivation stable across
    processes and Python hash randomisation.
    """

    def __init__(self, entropy: Sequence[int]) -> None:
        """Derive streams from the given integer entropy material."""
        if not entropy:
            raise ConfigurationError("RngStreams needs at least one entropy integer")
        self._entropy: Tuple[int, ...] = tuple(int(value) for value in entropy)
        self._cache: Dict[Tuple, np.random.Generator] = {}

    @staticmethod
    def key_material(part) -> int:
        """Fold one key part to a stable non-negative 32-bit integer."""
        if isinstance(part, (int, np.integer)):
            return int(part) & 0xFFFFFFFF
        digest = hashlib.sha256(str(part).encode()).digest()
        return int.from_bytes(digest[:4], "big")

    def stream(self, *key) -> np.random.Generator:
        """The (cached) generator for one named stream."""
        cache_key = tuple(key)
        generator = self._cache.get(cache_key)
        if generator is None:
            material = list(self._entropy) + [self.key_material(part) for part in key]
            generator = np.random.default_rng(np.random.SeedSequence(material))
            self._cache[cache_key] = generator
        return generator
