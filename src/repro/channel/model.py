"""Base channel interface and composition.

A channel stage is anything that transforms a transmitted
:class:`~repro.signal.samples.ComplexSignal` into a received one.  Stages
are composable with :class:`ChannelChain`, which applies them in order —
e.g. flat fading, then a start delay, then receiver noise.
"""

from __future__ import annotations

import abc
from typing import Iterable, List

from repro.exceptions import ChannelError
from repro.signal.samples import ComplexSignal


class Channel(abc.ABC):
    """A transformation applied to a signal between transmitter and receiver."""

    @abc.abstractmethod
    def apply(self, signal: ComplexSignal) -> ComplexSignal:
        """Return the signal as observed after this channel stage."""

    def __call__(self, signal: ComplexSignal) -> ComplexSignal:
        """Alias of :meth:`apply`."""
        return self.apply(signal)


class ChannelChain(Channel):
    """Apply a sequence of channel stages in order."""

    def __init__(self, stages: Iterable[Channel]) -> None:
        """Validate and store the stages, in application order."""
        self.stages: List[Channel] = list(stages)
        for stage in self.stages:
            if not isinstance(stage, Channel):
                raise ChannelError(f"not a Channel stage: {stage!r}")

    def apply(self, signal: ComplexSignal) -> ComplexSignal:
        """Pipe the signal through every stage, first to last."""
        out = signal
        for stage in self.stages:
            out = stage.apply(out)
        return out

    def __len__(self) -> int:
        """Number of stages in the chain."""
        return len(self.stages)
