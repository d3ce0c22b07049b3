"""Amplify-and-forward: the router's rebroadcast of a received waveform.

In the Alice–Bob and "X" topologies the router does not decode the
interfered signal; it simply re-amplifies the received waveform (including
the noise it received with it) to its own power budget and rebroadcasts it
(§7.5, §8).  :func:`amplify_and_forward` models exactly that: the
amplification factor is chosen so the *output* power equals the relay's
transmit power, matching the constraint
``A = sqrt(P / (P h_AR^2 + P h_BR^2 + 1))`` used in the capacity analysis.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ChannelError
from repro.signal.samples import ComplexSignal


def amplify_and_forward(signal: ComplexSignal, transmit_power: float) -> ComplexSignal:
    """Rescale a received waveform to the relay's power budget ``transmit_power``.

    The power is measured over the samples whose energy is above 10 % of
    the peak, so long stretches of leading / trailing silence in a
    partially-overlapped collision do not inflate the amplification.
    """
    if transmit_power <= 0:
        raise ChannelError("relay transmit power must be positive")
    samples = signal.samples
    if samples.size == 0:
        raise ChannelError("cannot amplify an empty signal")
    energy = np.abs(samples) ** 2
    peak = float(np.max(energy))
    if peak == 0.0:
        raise ChannelError("cannot amplify an all-zero signal")
    measured_power = float(np.mean(energy[energy > 0.1 * peak]))
    return signal.scaled(float(np.sqrt(transmit_power / measured_power)))
