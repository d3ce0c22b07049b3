"""Interference: concurrent transmissions arriving at one receiver.

When several senders transmit at (roughly) the same time, the receiver
observes the *sum* of the per-link-distorted waveforms plus one draw of its
own noise — this is what a "collision" is at the signal level (§1, §2 of
the paper).  :func:`superpose` builds that composite waveform; it is the
one superposition every path uses (the slot protocols through
:meth:`~repro.network.medium.WirelessMedium.deliver`, the traffic
simulator and the SIR sweep directly), and the one place receiver noise
is drawn — a single transmission over one link is
``superpose([(signal, link, 0)], link.noise_power, rng, 0)``.  The
:class:`OverlapModel` draws
the random start offsets that determine how much of the two packets
actually overlap, which §11.4 identifies as the main gap between the
theoretical 2x gain and the measured ~1.7x.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.channel.link import Link
from repro.constants import DEFAULT_OVERLAP_FRACTION
from repro.exceptions import ChannelError
from repro.signal.noise import complex_gaussian_noise
from repro.signal.ops import overlap_add
from repro.signal.samples import ComplexSignal
from repro.utils.validation import ensure_probability


def superpose(
    components: Sequence[Tuple[ComplexSignal, Link, int]],
    noise_power: float,
    rng: np.random.Generator,
    length: int,
) -> ComplexSignal:
    """The waveform a receiver hears when ``components`` are on the air.

    Each ``(transmitted_signal, link, start_offset)`` triple is distorted
    by its link (attenuation, phase, CFO, fading and propagation delay —
    but *not* noise), in order, and placed at its start offset; the sum
    gets one draw of receiver noise of power ``noise_power``.  The link's
    propagation delay is part of its distortion, so an offset is where a
    transmission starts, not where it arrives.  The composite is ``length`` samples long, or up to
    the latest distorted component's end if that is later; with no
    components it is noise (or silence) of ``length`` samples.
    """
    if noise_power < 0:
        raise ChannelError("noise power must be non-negative")
    placed = [(link.distort(signal, rng=rng), offset) for signal, link, offset in components]
    length = max([int(length)] + [offset + len(shaped) for shaped, offset in placed])
    if placed:
        composite = overlap_add(placed, total_length=length)
    else:
        composite = ComplexSignal.silence(length)
    if noise_power > 0:
        noise = complex_gaussian_noise(length, noise_power, rng)
        composite = ComplexSignal._adopt(composite.samples + noise)
    return composite


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
        *,
        rng: np.random.Generator,
    ) -> None:
        """See the class docstring for the parameter semantics."""
        self.mean_overlap = ensure_probability(mean_overlap, "mean_overlap")
        self.jitter = ensure_probability(jitter, "jitter")
        if min_offset < 0:
            raise ChannelError("min_offset must be non-negative")
        self.min_offset = int(min_offset)
        self._rng = rng

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
