"""Flat (frequency-non-selective) fading: attenuation plus phase rotation.

This is the channel model of §5.3: a transmitted sample ``A_s e^{i theta}``
is received as ``h A_s e^{i (theta + gamma)}`` where ``h`` is the link
attenuation and ``gamma`` a constant phase offset determined by the path
length.  The model can optionally jitter both parameters slowly over the
packet to emulate the real-world drift that makes naive signal subtraction
fragile (§6: "Though we tend to think of those parameters as constant,
they do vary with time").
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.channel.model import Channel
from repro.exceptions import ChannelError
from repro.signal.samples import ComplexSignal
from repro.utils.validation import ensure_non_negative


class FlatFadingChannel(Channel):
    """Apply a (possibly slowly drifting) complex gain ``h * exp(i gamma)``.

    Parameters
    ----------
    attenuation:
        Amplitude gain ``h`` (0 < h typically <= 1).
    phase_shift:
        Constant phase offset ``gamma`` in radians.
    frequency_offset:
        Residual carrier frequency offset between the transmitter's and the
        receiver's oscillators, expressed in radians per sample.  Two
        independent radios always have a small CFO; it is what makes the
        relative phase of two interfering signals sweep over time, which in
        turn is why the paper's random-phase energy statistics (Eqs. 5-6)
        hold in practice.
    attenuation_drift:
        Standard deviation of a random-walk drift applied to the
        attenuation per sample (0 disables drift).
    phase_drift:
        Standard deviation (radians) of a random-walk drift applied to the
        phase per sample (0 disables drift).
    rng:
        Random generator for the drift processes.
    """

    def __init__(
        self,
        attenuation: float,
        phase_shift: float = 0.0,
        frequency_offset: float = 0.0,
        attenuation_drift: float = 0.0,
        phase_drift: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        """See the class docstring for the parameter semantics."""
        if attenuation <= 0:
            raise ChannelError("attenuation must be positive")
        self.attenuation = float(attenuation)
        self.phase_shift = float(phase_shift)
        self.frequency_offset = float(frequency_offset)
        self.attenuation_drift = ensure_non_negative(attenuation_drift, "attenuation_drift")
        self.phase_drift = ensure_non_negative(phase_drift, "phase_drift")
        self._rng = rng if rng is not None else np.random.default_rng()

    @property
    def complex_gain(self) -> complex:
        """The nominal complex channel coefficient ``h * exp(i gamma)``."""
        return self.attenuation * np.exp(1j * self.phase_shift)

    @property
    def power_gain(self) -> float:
        """Power attenuation ``h^2`` of the link."""
        return self.attenuation ** 2

    def apply(self, signal: ComplexSignal) -> ComplexSignal:
        """Apply the (possibly drifting) complex gain to every sample."""
        samples = signal.samples
        if samples.size == 0:
            return signal
        if (
            self.attenuation_drift == 0.0
            and self.phase_drift == 0.0
            and self.frequency_offset == 0.0
        ):
            return signal.scaled(self.complex_gain)
        index = np.arange(samples.size)
        phase = self.phase_shift + self.frequency_offset * index
        attenuation: Union[float, np.ndarray] = self.attenuation
        if self.attenuation_drift > 0.0:
            attenuation = attenuation + np.cumsum(
                self._rng.normal(0.0, self.attenuation_drift, samples.size)
            )
            attenuation = np.maximum(attenuation, 1e-6)
        if self.phase_drift > 0.0:
            phase = phase + np.cumsum(self._rng.normal(0.0, self.phase_drift, samples.size))
        gains = attenuation * np.exp(1j * phase)
        return ComplexSignal._adopt(samples * gains)
