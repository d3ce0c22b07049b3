"""SINR-segment reception sessions and the collision rule.

When the event core resolves a group of overlapping transmissions at one
receiver, this module decides *what the receiver can make of it* before
any waveform is touched:

* a :class:`ReceptionSession` tracks every component the receiver hears
  (power, start, end) and cuts one component's span into
  :class:`SinrSegment` pieces at each interferer boundary — the
  ReceptionSession/segment bookkeeping of the SPE-project exemplar;
* :func:`classify_reception` turns the session into a
  :class:`ReceptionKind`: ``CLEAN`` (one component, decodable) or
  ``COLLIDED`` (nothing decodable at this receiver).  There is no
  capture rule: the only receiver that hears two components is the
  relay (Alice and Bob cannot hear each other), and its two received
  powers differ by at most (0.88/0.72)² ≈ 1.49 (1.74 dB), far under any
  capture margin, so a stronger-frame rule would never fire.

The relay never classifies a paired ANC uplink: it amplifies and
rebroadcasts it (§7.5), and the endpoints decode that broadcast through
the node's full :class:`~repro.anc.pipeline.ReceivePipeline`.  Every
other frame is demodulated by :class:`DecodeService`, which runs the
existing PHY: the :class:`~repro.modulation.msk.MSKDemodulator` followed
by the :class:`~repro.framing.frame.Deframer`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, SimulationError
from repro.framing.frame import Deframer, DeframeResult
from repro.modulation.msk import MSKDemodulator
from repro.signal.samples import ComplexSignal

__all__ = [
    "DecodeService",
    "ReceptionComponent",
    "ReceptionKind",
    "ReceptionSession",
    "SinrSegment",
    "classify_reception",
]

class ReceptionKind(enum.Enum):
    """What the collision rule concluded about a reception."""

    CLEAN = "clean"
    COLLIDED = "collided"


@dataclass(frozen=True)
class ReceptionComponent:
    """One transmission as heard at the receiver.

    Attributes
    ----------
    tx_id:
        Identifier of the transmission (the simulation's counter).
    power:
        Received power of the component (transmit power times the link's
        power gain).
    start, end:
        The component's span at the receiver, in absolute samples.
    """

    tx_id: int
    power: float
    start: float
    end: float

    def __post_init__(self) -> None:
        """Validate the component geometry."""
        if self.power < 0:
            raise ConfigurationError("component power must be non-negative")
        if self.end <= self.start:
            raise ConfigurationError("component must have positive duration")


@dataclass(frozen=True)
class SinrSegment:
    """A maximal span of one component with a constant interferer set."""

    start: float
    end: float
    interferer_count: int
    sinr_db: float


@dataclass
class ReceptionSession:
    """Interferer tracking for one receiver over one collision group.

    Parameters
    ----------
    noise_power:
        The receiver's thermal noise floor (linear power).
    """

    noise_power: float
    components: List[ReceptionComponent] = field(default_factory=list)

    def add(self, tx_id: int, power: float, start: float, end: float) -> None:
        """Register one heard transmission."""
        self.components.append(
            ReceptionComponent(tx_id=int(tx_id), power=float(power), start=float(start), end=float(end))
        )

    # ------------------------------------------------------------------
    def component(self, tx_id: int) -> ReceptionComponent:
        """Look up a component by transmission id."""
        for comp in self.components:
            if comp.tx_id == tx_id:
                return comp
        raise SimulationError(f"transmission {tx_id} not part of this session")

    def segments_for(self, tx_id: int) -> List[SinrSegment]:
        """Cut one component's span at every interferer boundary.

        Each returned segment has a constant set of concurrent
        interferers, so its SINR is a single number — the SPE-project
        ``ReceptionSession`` bookkeeping.
        """
        primary = self.component(tx_id)
        others = [c for c in self.components if c.tx_id != tx_id]
        cuts = {primary.start, primary.end}
        for other in others:
            if other.start < primary.end and other.end > primary.start:
                cuts.add(min(max(other.start, primary.start), primary.end))
                cuts.add(min(max(other.end, primary.start), primary.end))
        edges = sorted(cuts)
        segments: List[SinrSegment] = []
        for left, right in zip(edges[:-1], edges[1:]):
            if right <= left:
                continue
            midpoint = 0.5 * (left + right)
            interference = sum(
                other.power for other in others if other.start < midpoint < other.end
            )
            count = sum(1 for other in others if other.start < midpoint < other.end)
            sinr = primary.power / max(interference + self.noise_power, 1e-30)
            segments.append(
                SinrSegment(
                    start=left,
                    end=right,
                    interferer_count=count,
                    sinr_db=float(10.0 * np.log10(max(sinr, 1e-30))),
                )
            )
        return segments


def classify_reception(session: ReceptionSession) -> Tuple[ReceptionKind, Optional[int]]:
    """Apply the collision rule to one session.

    Returns
    -------
    (kind, primary_tx_id):
        ``CLEAN`` and the only component's id when the receiver heard one
        transmission; ``COLLIDED`` and ``None`` when it heard several.
    """
    if not session.components:
        raise SimulationError("cannot classify an empty session")
    if len(session.components) == 1:
        return ReceptionKind.CLEAN, session.components[0].tx_id
    return ReceptionKind.COLLIDED, None


class DecodeService:
    """Aligned frame decoding through the scalar MSK PHY.

    The event core knows exactly where each frame starts inside the
    composite it built (the MAC scheduled the offsets), so frames are
    decoded from an aligned window — no pilot search — through the MSK
    demodulator and the standard deframer.
    """

    def __init__(self) -> None:
        """Build the demodulator and the deframer."""
        self._deframer = Deframer()
        self._demodulator = MSKDemodulator()

    def decode_windows(
        self, windows: Sequence[Tuple[ComplexSignal, int, int]]
    ) -> List[DeframeResult]:
        """Decode several aligned windows, one at a time, in request order.

        Each request is ``(composite, start_sample, frame_samples)``.
        """
        results: List[DeframeResult] = []
        for composite, start, frame_samples in windows:
            if start < 0 or frame_samples <= 0:
                raise ConfigurationError("decode windows need start >= 0 and length > 0")
            window = composite.slice(int(start), int(start) + int(frame_samples))
            results.append(self._deframer.parse(self._demodulator.demodulate(window)))
        return results
