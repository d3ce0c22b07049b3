"""Traffic sources: the arrival processes feeding per-node packet queues.

Three classic workload shapes, all parameterised by a *mean interarrival
time in samples* so the offered load is directly comparable across
models:

* :class:`PoissonArrivals` — memoryless exponential interarrivals, the
  UDP-flow workload of the paper's §8 testbed runs;
* :class:`CBRArrivals` — constant bit rate, one packet every
  ``mean_interarrival`` samples exactly (the RTP-style smooth source);
* :class:`BurstyOnOffArrivals` — an on/off source emitting geometric
  bursts (4 packets on average, 4× denser than the long-run rate)
  separated by long idle gaps, with the gap length chosen so the
  *long-run* rate still matches ``mean_interarrival`` (so sweeping the
  load axis moves every model by the same amount, only the variance
  differs).

All draws come from the generator the caller passes in — by convention a
per-node stream from :class:`repro.sim.core.RngStreams` — so arrivals at
one node are independent of the event interleaving at every other node.
"""

from __future__ import annotations

from typing import Dict, Tuple, Type

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = [
    "ArrivalProcess",
    "BurstyOnOffArrivals",
    "CBRArrivals",
    "PoissonArrivals",
    "TRAFFIC_MODELS",
    "make_arrival_process",
]


class ArrivalProcess:
    """Base class: a stream of packet interarrival times.

    Parameters
    ----------
    mean_interarrival:
        Long-run average spacing between packets, in samples.
    """

    def __init__(self, mean_interarrival: float) -> None:
        """Validate and store the long-run mean interarrival time."""
        if mean_interarrival <= 0:
            raise ConfigurationError("mean_interarrival must be positive")
        self.mean_interarrival = float(mean_interarrival)

    def next_interarrival(self, rng: np.random.Generator) -> float:
        """Draw the time (samples) until the next packet arrival."""
        raise NotImplementedError


class PoissonArrivals(ArrivalProcess):
    """Memoryless (exponential-interarrival) packet arrivals."""

    def next_interarrival(self, rng: np.random.Generator) -> float:
        """Exponential draw with the configured mean."""
        return float(rng.exponential(self.mean_interarrival))


class CBRArrivals(ArrivalProcess):
    """Constant-bit-rate arrivals: perfectly periodic packets."""

    def next_interarrival(self, rng: np.random.Generator) -> float:
        """The constant spacing (the generator is unused but kept for the API)."""
        return self.mean_interarrival


class BurstyOnOffArrivals(ArrivalProcess):
    """On/off bursts: geometric trains of closely spaced packets.

    A burst holds :attr:`burst_length` packets on average (geometric, at
    least 1), spaced ``mean_interarrival / peak_factor`` apart.  The
    exponential idle gap after each burst absorbs the remainder, so the
    long-run mean spacing stays ``mean_interarrival``.
    """

    burst_length = 4.0
    peak_factor = 4.0

    def __init__(self, mean_interarrival: float) -> None:
        """Precompute the in-burst spacing and the compensating idle gap."""
        super().__init__(mean_interarrival)
        self._in_burst_gap = self.mean_interarrival / self.peak_factor
        # Per cycle (one burst of mean L packets): L * mean must elapse on
        # average, (L - 1) of it inside the burst -> the rest is the mean
        # of the exponential off period.
        self._mean_off = self.burst_length * self.mean_interarrival - (
            self.burst_length - 1.0
        ) * self._in_burst_gap
        self._remaining_in_burst = 0

    def next_interarrival(self, rng: np.random.Generator) -> float:
        """In-burst spacing while a burst lasts, else a fresh off period."""
        if self._remaining_in_burst > 0:
            self._remaining_in_burst -= 1
            return self._in_burst_gap
        # Start a new burst: geometric length (mean burst_length), the
        # first packet of which arrives after the idle gap.
        self._remaining_in_burst = int(rng.geometric(1.0 / self.burst_length)) - 1
        return float(rng.exponential(self._mean_off))


#: Registered traffic models, keyed by CLI/scenario name.
_MODEL_CLASSES: Dict[str, Type[ArrivalProcess]] = {
    "poisson": PoissonArrivals,
    "cbr": CBRArrivals,
    "bursty": BurstyOnOffArrivals,
}

#: Names of the available traffic models, in registration order.
TRAFFIC_MODELS: Tuple[str, ...] = tuple(_MODEL_CLASSES)


def make_arrival_process(model: str, mean_interarrival: float) -> ArrivalProcess:
    """Instantiate a traffic model by registry name."""
    try:
        cls = _MODEL_CLASSES[model]
    except KeyError:
        raise ConfigurationError(
            f"unknown traffic model {model!r}; choose from {', '.join(TRAFFIC_MODELS)}"
        ) from None
    return cls(mean_interarrival)
