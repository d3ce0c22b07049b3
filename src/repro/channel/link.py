"""A directed wireless link between two nodes: the whole channel model.

A :class:`Link` holds the per-hop channel parameters — attenuation, phase,
frequency offsets, drift, fading and the receiver's noise power — and
:meth:`Link.distort` applies them to a waveform.  That is the one channel
response in the library: the paper's attenuation and phase (§5.3) with
the slow variation §6 warns about.  Receiver noise is
not part of it; :func:`~repro.channel.interference.superpose` adds one
draw per receiver to the sum of everything on the air.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.channel.fading import check_fading, fading_gains
from repro.exceptions import ChannelError
from repro.signal.samples import ComplexSignal


@dataclass
class Link:
    """Directed link parameters from one node to another.

    Parameters
    ----------
    attenuation:
        Amplitude gain ``h`` of the link.
    phase_shift:
        Phase offset ``gamma`` (radians) introduced by the path.
    noise_power:
        Noise power added at the *receiver* of this link.
    frequency_offset:
        Residual carrier frequency offset (radians per sample) between the
        transmitter's and the receiver's oscillators.  It makes the
        relative phase of two interfering signals sweep over time, which
        is why the paper's random-phase energy statistics (Eqs. 5-6) hold
        in practice.
    phase_drift:
        Standard deviation (radians) of a per-sample random walk on the
        path phase (0 disables drift).
    sender_cfo:
        Oscillator offset of the *transmitting* radio (radians per
        sample), a linear phase ramp applied ahead of the path response.
        The impairment subsystem (:mod:`repro.channel.impairments`) sets
        the same value on every outgoing link of a sender — one
        oscillator per radio.
    fading, fading_k_db, fading_mode, fading_doppler, fading_los_phase:
        Stochastic small-scale fading of this path (see
        :mod:`repro.channel.fading`): the family (``"none"`` disables
        it), the Rician K-factor in dB, the block/drift time structure,
        the drift rate, and the Rician LOS phase.
    """

    attenuation: float = 1.0
    phase_shift: float = 0.0
    noise_power: float = 0.0
    frequency_offset: float = 0.0
    phase_drift: float = 0.0
    sender_cfo: float = 0.0
    fading: str = "none"
    fading_k_db: float = 6.0
    fading_mode: str = "block"
    fading_doppler: float = 0.0
    fading_los_phase: float = 0.0

    def __post_init__(self) -> None:
        """Validate the link parameters."""
        if self.attenuation <= 0:
            raise ChannelError("link attenuation must be positive")
        if self.noise_power < 0:
            raise ChannelError("noise power must be non-negative")
        if self.phase_drift < 0:
            raise ChannelError("phase_drift must be non-negative")
        check_fading(self.fading, self.fading_mode, self.fading_doppler, ChannelError)

    @property
    def power_gain(self) -> float:
        """Power attenuation ``h^2``."""
        return self.attenuation ** 2

    def distort(self, signal: ComplexSignal, rng: np.random.Generator) -> ComplexSignal:
        """The waveform as it arrives over this link, before receiver noise.

        Three steps, in order (``docs/CHANNELS.md``):

        1. the sender's oscillator ramp ``exp(i·sender_cfo·n)``;
        2. the flat path gain: one scalar ``h·exp(iγ)`` when the link has
           no frequency offset and no drift, else the per-sample
           ``h·exp(i(γ + frequency_offset·n + drift[n]))``, where the
           drift is the cumulative sum of one ``normal(0, phase_drift)``
           draw per sample;
        3. the fade (:func:`~repro.channel.fading.fading_gains`).

        A step that is off draws nothing from ``rng``, and an empty signal
        draws nothing at all.
        """
        samples = signal.samples
        if samples.size:
            # The phase is built and exponentiated in place; every complex
            # product allocates, as the formulas above are written.
            per_sample = self.phase_drift != 0.0 or self.frequency_offset != 0.0
            if self.sender_cfo != 0.0 or per_sample:
                index = np.arange(samples.size)
            if self.sender_cfo != 0.0:
                ramp = 1j * (self.sender_cfo * index)
                samples = samples * np.exp(ramp, out=ramp)
            if per_sample:
                phase = self.frequency_offset * index
                phase += self.phase_shift
                if self.phase_drift > 0.0:
                    drift = rng.normal(0.0, self.phase_drift, samples.size)
                    phase += np.cumsum(drift, out=drift)
                rotation = 1j * phase
                samples = samples * (self.attenuation * np.exp(rotation, out=rotation))
            else:
                samples = samples * (self.attenuation * np.exp(1j * self.phase_shift))
            if self.fading != "none":
                samples = samples * fading_gains(
                    self.fading,
                    self.fading_k_db,
                    self.fading_los_phase,
                    self.fading_mode,
                    self.fading_doppler,
                    samples.size,
                    rng,
                )
            signal = ComplexSignal._adopt(samples)
        return signal
