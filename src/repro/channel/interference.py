"""Interference combiner: concurrent transmissions arriving at one receiver.

When two senders transmit at (roughly) the same time, the receiver observes
the *sum* of the two per-link-distorted waveforms plus its own noise — this
is what a "collision" is at the signal level (§1, §2 of the paper).  The
:class:`InterferenceCombiner` builds that composite waveform; the
:class:`OverlapModel` draws the random start offsets that determine how much
of the two packets actually overlap, which §11.4 identifies as the main gap
between the theoretical 2x gain and the measured ~1.7x.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.channel.link import Link
from repro.constants import DEFAULT_OVERLAP_FRACTION, MAX_RANDOM_DELAY_SLOTS
from repro.exceptions import ChannelError
from repro.signal.noise import complex_gaussian_noise
from repro.signal.ops import overlap_add
from repro.signal.samples import ComplexSignal
from repro.utils.validation import ensure_probability


@dataclass(frozen=True)
class CollisionResult:
    """The composite waveform observed at a receiver during a collision.

    Attributes
    ----------
    signal:
        The received superposition including receiver noise.
    offsets:
        Start offset (in samples) of each component within the composite,
        in the order the components were supplied.
    overlap_fraction:
        Fraction of the *shorter* component that overlaps the other one
        (1.0 means full overlap, 0.0 means no overlap at all).
    """

    signal: ComplexSignal
    offsets: Tuple[int, ...]
    overlap_fraction: float


class OverlapModel:
    """Draws random start offsets for deliberately interfering transmissions.

    The paper's trigger protocol makes both senders start "immediately"
    after the trigger, but each inserts a small random delay of 1..32 slots
    (§7.2) and user-space jitter adds more, so on average only ~80 % of the
    two packets overlap (§11.4).  This model reproduces that: the first
    sender starts at offset 0 and the second sender's offset is drawn so
    the expected overlap matches ``mean_overlap``.

    Parameters
    ----------
    mean_overlap:
        Average fraction of the packets that should overlap (paper: 0.8).
    jitter:
        Half-width of the uniform jitter around the mean offset, expressed
        as a fraction of the packet length.
    min_offset:
        Minimum start offset in samples between the two packets.  The
        paper's protocol *enforces* incomplete overlap so that the pilot
        (and header) at the start and end of the collision stay
        interference-free (§7.2); protocols set this to the pilot + header
        length plus a small margin.
    rng:
        Random generator used to draw offsets.
    """

    def __init__(
        self,
        mean_overlap: float = DEFAULT_OVERLAP_FRACTION,
        jitter: float = 0.1,
        min_offset: int = 0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        """See the class docstring for the parameter semantics."""
        self.mean_overlap = ensure_probability(mean_overlap, "mean_overlap")
        self.jitter = ensure_probability(jitter, "jitter")
        if min_offset < 0:
            raise ChannelError("min_offset must be non-negative")
        self.min_offset = int(min_offset)
        self._rng = rng if rng is not None else np.random.default_rng()

    def draw_offsets(self, packet_length: int) -> Tuple[int, int]:
        """Draw (first, second) start offsets in samples for a 2-packet collision."""
        if packet_length <= 0:
            raise ChannelError("packet length must be positive")
        mean_offset = (1.0 - self.mean_overlap) * packet_length
        low = max(0.0, mean_offset - self.jitter * packet_length)
        high = mean_offset + self.jitter * packet_length
        offset = int(round(self._rng.uniform(low, high)))
        offset = max(offset, min(self.min_offset, packet_length - 1))
        offset = min(max(offset, 0), packet_length - 1)
        return 0, offset

    def draw_slot_delays(self) -> Tuple[int, int]:
        """Draw the 1..32 random slot delays of the §7.2 randomisation scheme."""
        first = int(self._rng.integers(1, MAX_RANDOM_DELAY_SLOTS + 1))
        second = int(self._rng.integers(1, MAX_RANDOM_DELAY_SLOTS + 1))
        return first, second


class InterferenceCombiner:
    """Builds the waveform a receiver observes when several senders collide.

    Parameters
    ----------
    noise_power:
        Receiver noise power added to the composite.
    rng:
        Random generator for the noise realisation.
    """

    def __init__(self, noise_power: float = 0.0, rng: Optional[np.random.Generator] = None) -> None:
        """See the class docstring for the parameter semantics."""
        if noise_power < 0:
            raise ChannelError("noise power must be non-negative")
        self.noise_power = float(noise_power)
        self._rng = rng if rng is not None else np.random.default_rng()

    def combine(
        self,
        components: Sequence[Tuple[ComplexSignal, Link, int]],
        tail_padding: int = 0,
    ) -> CollisionResult:
        """Superpose per-link-distorted transmissions at a receiver.

        Parameters
        ----------
        components:
            Sequence of ``(transmitted_signal, link, start_offset)``
            triples.  Each signal is distorted by its link (attenuation,
            phase, propagation delay — but *not* noise) and placed at its
            start offset; the results are summed.
        tail_padding:
            Extra silence appended after the last component ends, so
            detectors can observe the energy dropping back to the noise
            floor.

        Returns
        -------
        CollisionResult
        """
        if not components:
            raise ChannelError("at least one component is required")
        distorted: List[Tuple[ComplexSignal, int]] = []
        lengths: List[Tuple[int, int]] = []
        for signal, link, offset in components:
            if offset < 0:
                raise ChannelError("start offsets must be non-negative")
            shaped = link.distort(signal, rng=self._rng)
            distorted.append((shaped, int(offset)))
            lengths.append((int(offset), int(offset) + len(shaped)))
        total_length = max(end for _, end in lengths) + max(int(tail_padding), 0)
        composite = overlap_add(distorted, total_length=total_length)
        if self.noise_power > 0:
            noise = complex_gaussian_noise(len(composite), self.noise_power, self._rng)
            composite = ComplexSignal._adopt(composite.samples + noise)
        overlap = self._overlap_fraction(lengths)
        offsets = tuple(offset for _, offset in distorted)
        return CollisionResult(signal=composite, offsets=offsets, overlap_fraction=overlap)

    @staticmethod
    def _overlap_fraction(lengths: Sequence[Tuple[int, int]]) -> float:
        """Overlap of the first two components relative to the shorter one."""
        if len(lengths) < 2:
            return 1.0
        (start_a, end_a), (start_b, end_b) = lengths[0], lengths[1]
        overlap = max(0, min(end_a, end_b) - max(start_a, start_b))
        shorter = max(1, min(end_a - start_a, end_b - start_b))
        return overlap / shorter
