"""Minimum Shift Keying (MSK) modulation and differential demodulation.

This is the modulation the paper's prototype uses (§5).  A bit of "1" is
encoded as a phase *increase* of ``pi/2`` over one symbol interval and a
bit of "0" as a phase *decrease* of ``pi/2`` (Fig. 3).  The signal has
constant amplitude; all information lives in the phase trajectory.

Demodulation is differential (Eq. 1): the receiver computes the ratio of
consecutive complex samples, whose angle is exactly the transmitted phase
difference, independent of the (unknown) channel attenuation ``h`` and
phase shift ``gamma``.  A positive angle decodes to "1", negative to "0".
"""

from __future__ import annotations

import numpy as np

from repro.constants import DEFAULT_TX_AMPLITUDE, MSK_PHASE_STEP
from repro.signal.samples import ComplexSignal
from repro.utils.bits import BitsLike
from repro.utils.validation import ensure_bit_array, ensure_positive


def msk_phase_trajectory(bits: np.ndarray) -> np.ndarray:
    """Cumulative MSK phase trajectory, one entry per sample.

    ``trajectory[0]`` is the reference phase 0 and ``trajectory[k]`` the
    phase after the first ``k`` bits, i.e. the trajectory Fig. 3 of the
    paper plots.  Length is ``len(bits) + 1``.
    """
    return np.concatenate([[0.0], np.cumsum(_phase_steps(np.asarray(bits, dtype=np.uint8)))])


def _phase_steps(bits: np.ndarray) -> np.ndarray:
    """The ±pi/2 phase step of each bit of an already checked canonical bit array."""
    return np.where(bits == 1, MSK_PHASE_STEP, -MSK_PHASE_STEP)


class MSKModulator:
    """Encode bits as ±pi/2 phase steps of a constant-envelope signal.

    One complex sample per symbol, as in the paper's exposition (§5.1).

    Parameters
    ----------
    amplitude:
        Constant transmit amplitude ``A_s``.
    """

    def __init__(self, amplitude: float = DEFAULT_TX_AMPLITUDE) -> None:
        """A modulator emitting at the positive ``amplitude``."""
        self.amplitude = ensure_positive(amplitude, "amplitude")

    def modulate(self, bits: BitsLike) -> ComplexSignal:
        """Produce the MSK waveform for ``bits``.

        The output has ``len(bits) + 1`` samples: a leading reference
        sample at phase 0 followed by one sample per data bit.  The
        differential demodulator consumes the reference sample to recover
        the first bit.
        """
        phases = msk_phase_trajectory(ensure_bit_array(bits, "bits"))
        return ComplexSignal._adopt(self.amplitude * np.exp(1j * phases))


class MSKDemodulator:
    """Differential MSK demodulation (Eq. 1 of the paper).

    The demodulator computes the angle of ``y[n+1] * conj(y[n])`` and
    thresholds it at zero: positive phase difference means "1", negative
    means "0".  Because the channel's attenuation and phase offset cancel
    in the ratio, no channel estimation is required.
    """

    def demodulate(self, signal: ComplexSignal) -> np.ndarray:
        """Decode bits from the received signal.

        A signal with fewer than two samples carries no bits.
        """
        samples = signal.samples
        if samples.size < 2:
            return np.zeros(0, dtype=np.uint8)
        return (np.angle(samples[1:] * np.conj(samples[:-1])) >= 0).astype(np.uint8)
