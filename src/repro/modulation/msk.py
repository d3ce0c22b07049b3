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
from repro.modulation.base import BitsLike, Demodulator, Modulator
from repro.signal.samples import ComplexSignal
from repro.utils.validation import ensure_bit_array, ensure_positive, ensure_positive_int


def interpolate_phase_ramp(boundary_phases: np.ndarray, samples_per_symbol: int) -> np.ndarray:
    """Expand symbol-boundary phases into per-sample phases, vectorized.

    ``boundary_phases`` has shape ``(n_bits + 1,)`` (the function works
    along the last axis).  The output holds the leading reference
    phase followed by ``samples_per_symbol`` linearly interpolated samples
    per symbol and is bit-identical to ``np.linspace`` over each symbol:
    interior samples are computed as ``j * step + start`` (the same
    multiply-then-add ``np.linspace`` uses) and each symbol's final sample
    is pinned to the exact boundary phase, mirroring ``linspace``'s
    endpoint handling.
    """
    sps = int(samples_per_symbol)
    start = boundary_phases[..., :-1]
    stop = boundary_phases[..., 1:]
    step = (stop - start) / sps
    fractions = np.arange(1, sps + 1, dtype=float)
    ramp = fractions * step[..., None]
    ramp += start[..., None]
    ramp[..., -1] = stop
    flat = ramp.reshape(*boundary_phases.shape[:-1], -1)
    return np.concatenate([boundary_phases[..., :1], flat], axis=-1)


def msk_phase_trajectory(bits: np.ndarray, initial_phase: float = 0.0) -> np.ndarray:
    """Cumulative MSK phase trajectory, one entry per sample boundary.

    ``trajectory[0]`` is the initial phase and ``trajectory[k]`` the phase
    after the first ``k`` bits, i.e. the trajectory Fig. 3 of the paper
    plots.  Length is ``len(bits) + 1``.
    """
    steps = np.where(np.asarray(bits, dtype=np.uint8) == 1, MSK_PHASE_STEP, -MSK_PHASE_STEP)
    return initial_phase + np.concatenate([[0.0], np.cumsum(steps)])


class MSKModulator(Modulator):
    """Encode bits as ±pi/2 phase steps of a constant-envelope signal.

    Parameters
    ----------
    amplitude:
        Constant transmit amplitude ``A_s``.
    samples_per_symbol:
        Oversampling factor.  The default of 1 matches the paper's
        one-complex-sample-per-symbol exposition; larger values linearly
        interpolate the phase ramp within each symbol.
    initial_phase:
        Phase of the reference sample that precedes the first data bit.
    """

    def __init__(
        self,
        amplitude: float = DEFAULT_TX_AMPLITUDE,
        samples_per_symbol: int = 1,
        initial_phase: float = 0.0,
    ) -> None:
        self.amplitude = ensure_positive(amplitude, "amplitude")
        self._samples_per_symbol = ensure_positive_int(samples_per_symbol, "samples_per_symbol")
        self.initial_phase = float(initial_phase)

    @property
    def samples_per_symbol(self) -> int:
        return self._samples_per_symbol

    def modulate(self, bits: BitsLike) -> ComplexSignal:
        """Produce the MSK waveform for ``bits``.

        The output has ``len(bits) * samples_per_symbol + 1`` samples: a
        leading reference sample at ``initial_phase`` followed by the
        phase-ramped data samples.  The differential demodulator consumes
        the reference sample to recover the first bit.
        """
        clean = ensure_bit_array(bits, "bits")
        boundary_phases = msk_phase_trajectory(clean, self.initial_phase)
        if self._samples_per_symbol == 1:
            phases = boundary_phases
        else:
            # Linearly interpolate the phase ramp inside each symbol.
            phases = interpolate_phase_ramp(boundary_phases, self._samples_per_symbol)
        return ComplexSignal._adopt(self.amplitude * np.exp(1j * phases))


class MSKDemodulator(Demodulator):
    """Differential MSK demodulation (Eq. 1 of the paper).

    The demodulator computes the angle of ``y[n+1] * conj(y[n])`` at symbol
    spacing and thresholds it at zero: positive phase difference means "1",
    negative means "0".  Because the channel's attenuation and phase offset
    cancel in the ratio, no channel estimation is required.
    """

    def __init__(self, samples_per_symbol: int = 1) -> None:
        self._samples_per_symbol = ensure_positive_int(samples_per_symbol, "samples_per_symbol")

    @property
    def samples_per_symbol(self) -> int:
        return self._samples_per_symbol

    def phase_differences(self, signal: ComplexSignal) -> np.ndarray:
        """Per-symbol wrapped phase differences of the received signal."""
        samples = signal.samples[:: self._samples_per_symbol]
        if samples.size < 2:
            return np.zeros(0, dtype=float)
        ratio = samples[1:] * np.conj(samples[:-1])
        return np.angle(ratio)

    def demodulate(self, signal: ComplexSignal) -> np.ndarray:
        """Decode bits from the received signal.

        A signal with fewer than two symbol-spaced samples carries no bits.
        """
        diffs = self.phase_differences(signal)
        return (diffs >= 0).astype(np.uint8)

def expected_phase_differences(bits: BitsLike) -> np.ndarray:
    """The ±pi/2 phase-difference sequence a given bit pattern produces.

    This is the "known phase difference" sequence ``delta theta_s[n]`` that
    Alice feeds into the ANC matcher (§6.3): she regenerates it from the
    packet she previously transmitted.
    """
    clean = ensure_bit_array(bits, "bits")
    return np.where(clean == 1, MSK_PHASE_STEP, -MSK_PHASE_STEP).astype(float)


def verify_constant_envelope(signal: ComplexSignal, tolerance: float = 1e-9) -> bool:
    """Check the defining MSK property that the amplitude never varies."""
    amplitude = signal.amplitude
    if amplitude.size == 0:
        return True
    return bool(np.max(np.abs(amplitude - amplitude[0])) <= tolerance)
