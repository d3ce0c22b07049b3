"""The ANC interference decoder (§6, §7.4).

Given the composite waveform of a two-packet collision and the bits of the
packet it already knows (its own earlier transmission, or an overheard
one), the decoder recovers the bits of the *other* packet:

1. estimate the two received amplitudes ``A`` (known) and ``B`` (unknown)
   from the energy statistics of the overlap region (Eqs. 5-6), using the
   interference-free head as a labelling hint;
2. for the interfered sample intervals, compute both Lemma 6.1 phase
   solutions, form the four candidate phase-difference pairs, pick the one
   whose known-signal difference best matches the regenerated
   ``delta theta_s`` (Eqs. 7-8), and slice the paired ``delta phi``;
3. for the sample intervals where only the unknown signal is present
   (before the known packet started or after it ended), fall back to
   standard differential MSK demodulation.

The decoder works "forward" when the known packet starts first (Alice's
case).  When the known packet starts *second* (Bob's case, §7.4) the same
procedure is run backwards: the received samples and the known bit
sequence are reversed — which negates every phase difference and therefore
inverts the slicing rule — and the decoded bits are un-reversed at the end.

A naive :class:`SubtractionDecoder` is also provided.  It estimates the
known signal's complex channel coefficient, reconstructs the interfering
waveform, subtracts it and runs plain MSK demodulation — the fragile
strawman the paper argues against in §6; the ablation benchmark compares
the two under channel-estimation error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.anc.amplitude import (
    AmplitudeEstimate,
    estimate_amplitudes_with_known,
    mean_energy,
    sigma_statistic,
)
from repro.anc.lemma import phase_solutions
from repro.anc.matching import match_phase_differences
from repro.exceptions import DecodingError
from repro.modulation.msk import _phase_steps
from repro.signal.samples import ComplexSignal
from repro.utils.validation import ensure_bit_array

#: Fewest interference-free edge samples (the head before the second
#: frame starts, or the tail after the first ends) that both decoders
#: trust as a direct measurement of one signal's channel.
MIN_EDGE_SAMPLES = 8


@dataclass(frozen=True)
class DecoderConfig:
    """How the interference decoder obtains the two received amplitudes.

    The amplitude ablation sets both fields; every other caller uses the
    defaults.

    Attributes
    ----------
    amplitude_method:
        How the two received amplitudes are obtained:

        * ``"hybrid"`` (default) — measure the known signal's amplitude
          ``A`` directly from the interference-free head (or tail) and
          derive ``B`` from the mean-energy relation ``mu = A^2 + B^2``
          (Eq. 5).  This uses the partial-overlap structure the protocol
          already enforces and is robust even when the two signals'
          relative phase barely rotates over the packet.
        * ``"sigma"`` — the paper's two-statistic estimator (Eqs. 5-6)
          applied to the overlap region, with the clean head used only to
          resolve which amplitude belongs to the known signal.
        * ``"oracle"`` — bypass estimation and use ``amplitude_oracle``;
          for the ablation that isolates estimation error.
    amplitude_oracle:
        The ``(A, B)`` pair used when ``amplitude_method == "oracle"``.
    """

    amplitude_method: str = "hybrid"
    amplitude_oracle: Optional[Tuple[float, float]] = None

    def __post_init__(self) -> None:
        """Reject an unknown method, or an oracle without amplitudes."""
        if self.amplitude_method not in {"hybrid", "sigma", "oracle"}:
            raise DecodingError(
                f"unknown amplitude_method {self.amplitude_method!r}; "
                "expected 'hybrid', 'sigma' or 'oracle'"
            )
        if self.amplitude_method == "oracle" and self.amplitude_oracle is None:
            raise DecodingError("amplitude_method='oracle' requires amplitude_oracle")


@dataclass
class DecodeDiagnostics:
    """Per-decode diagnostics useful for experiments and debugging."""

    amplitude_estimate: Optional[AmplitudeEstimate] = None
    overlap_samples: int = 0
    interfered_bits: int = 0
    clean_bits: int = 0
    mean_match_error: float = 0.0
    reversed_decode: bool = False


class InterferenceDecoder:
    """Decode the unknown half of a two-packet collision.

    Parameters
    ----------
    config:
        Decoder tunables (:class:`DecoderConfig`); defaults apply when
        omitted.
    """

    def __init__(self, config: Optional[DecoderConfig] = None) -> None:
        """A decoder using ``config`` (the default hybrid estimator when omitted)."""
        self.config = config if config is not None else DecoderConfig()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def decode(
        self,
        received: ComplexSignal,
        known_bits,
        known_offset: int,
        unknown_offset: int,
        unknown_n_bits: int,
    ) -> Tuple[np.ndarray, DecodeDiagnostics]:
        """Decode the unknown packet's bits out of the composite waveform.

        Parameters
        ----------
        received:
            The composite received waveform (forward time order).
        known_bits:
            The full frame bits of the packet the receiver already knows.
        known_offset:
            Sample index (within ``received``) of the known frame's
            reference sample.
        unknown_offset:
            Sample index of the unknown frame's reference sample.
        unknown_n_bits:
            Number of bits to decode for the unknown frame.

        Returns
        -------
        (bits, diagnostics)
            The decoded unknown frame bits, in forward order, plus
            diagnostics.  The decoder automatically runs backwards when the
            known frame starts after the unknown one.
        """
        known = ensure_bit_array(known_bits, "known_bits")
        if unknown_n_bits <= 0:
            raise DecodingError("unknown_n_bits must be positive")
        if known_offset < 0 or unknown_offset < 0:
            raise DecodingError("frame offsets must be non-negative")
        if known_offset <= unknown_offset:
            return self._decode_forward(
                received, known, known_offset, unknown_offset, unknown_n_bits
            )
        return self._decode_backward(
            received, known, known_offset, unknown_offset, unknown_n_bits
        )

    # ------------------------------------------------------------------
    # Forward decoding (known packet starts first)
    # ------------------------------------------------------------------
    def _decode_forward(
        self,
        received: ComplexSignal,
        known_bits: np.ndarray,
        known_offset: int,
        unknown_offset: int,
        unknown_n_bits: int,
        reversed_decode: bool = False,
    ) -> Tuple[np.ndarray, DecodeDiagnostics]:
        samples = received.samples
        known_n_samples = known_bits.size + 1
        known_end = known_offset + known_n_samples
        unknown_end = unknown_offset + unknown_n_bits + 1
        if unknown_end > samples.size:
            raise DecodingError(
                "received waveform is too short for the requested unknown frame"
            )

        diagnostics = DecodeDiagnostics(reversed_decode=reversed_decode)
        amplitude_a, amplitude_b = self._estimate_amplitudes(
            received, known_offset, known_end, unknown_offset, unknown_end, diagnostics
        )

        bits = np.zeros(unknown_n_bits, dtype=np.uint8)
        match_errors = []

        # Bit i of the unknown frame is "interfered" when both samples of
        # its interval, unknown_offset + i and + i + 1, lie in the known
        # frame [known_offset, known_end).  The known frame is contiguous,
        # so those bits form one run [lo, hi), with clean runs around it,
        # and each run is decoded in one shot.
        lo = min(max(known_offset - unknown_offset, 0), unknown_n_bits)
        hi = max(min(known_end - 1 - unknown_offset, unknown_n_bits), lo)
        for i, j, interfered in ((0, lo, False), (lo, hi, True), (hi, unknown_n_bits, False)):
            if i == j:
                continue
            first_sample = unknown_offset + i
            last_sample = unknown_offset + j  # inclusive end sample of the run
            block = received.slice(first_sample, last_sample + 1)
            if interfered:
                # The ±pi/2 differences of the checked known bits (§6.3).
                known_diffs = _phase_steps(
                    known_bits[first_sample - known_offset : last_sample - known_offset]
                )
                solutions = phase_solutions(block, amplitude_a, amplitude_b)
                result = match_phase_differences(solutions, known_diffs)
                bits[i:j] = result.bits
                match_errors.append(result.match_errors)
                diagnostics.interfered_bits += j - i
            else:
                block = block.samples
                ratio = block[1:] * np.conj(block[:-1])
                bits[i:j] = (np.angle(ratio) >= 0).astype(np.uint8)
                diagnostics.clean_bits += j - i

        if match_errors:
            diagnostics.mean_match_error = float(np.mean(np.concatenate(match_errors)))
        return bits, diagnostics

    # ------------------------------------------------------------------
    # Backward decoding (known packet starts second, §7.4)
    # ------------------------------------------------------------------
    def _decode_backward(
        self,
        received: ComplexSignal,
        known_bits: np.ndarray,
        known_offset: int,
        unknown_offset: int,
        unknown_n_bits: int,
    ) -> Tuple[np.ndarray, DecodeDiagnostics]:
        samples = received.samples
        total = samples.size
        reversed_signal = received.reversed()
        known_n_samples = known_bits.size + 1
        unknown_n_samples = unknown_n_bits + 1
        # In the reversed stream, a frame that occupied samples
        # [offset, offset + n) now occupies [total - offset - n, total - offset).
        rev_known_offset = total - known_offset - known_n_samples
        rev_unknown_offset = total - unknown_offset - unknown_n_samples
        if rev_known_offset < 0 or rev_unknown_offset < 0:
            raise DecodingError("frame extends beyond the received waveform")
        # Reversing time reverses the bit order and negates every phase
        # difference; for MSK that is exactly a bit flip.
        rev_known_bits = (1 - known_bits[::-1]).astype(np.uint8)
        rev_bits, diagnostics = self._decode_forward(
            reversed_signal,
            rev_known_bits,
            rev_known_offset,
            rev_unknown_offset,
            unknown_n_bits,
            reversed_decode=True,
        )
        forward_bits = (1 - rev_bits[::-1]).astype(np.uint8)
        return forward_bits, diagnostics

    # ------------------------------------------------------------------
    # Amplitude estimation
    # ------------------------------------------------------------------
    def _estimate_amplitudes(
        self,
        received: ComplexSignal,
        known_offset: int,
        known_end: int,
        unknown_offset: int,
        unknown_end: int,
        diagnostics: DecodeDiagnostics,
    ) -> Tuple[float, float]:
        overlap_start = max(known_offset, unknown_offset)
        overlap_end = min(known_end, unknown_end)
        diagnostics.overlap_samples = max(0, overlap_end - overlap_start)
        if diagnostics.overlap_samples < 4:
            raise DecodingError(
                "packets overlap by fewer than 4 samples; nothing to decode with ANC"
            )
        if self.config.amplitude_method == "oracle":
            return self.config.amplitude_oracle

        samples = received.samples
        overlap = received.slice(overlap_start, overlap_end)
        head = samples[known_offset:unknown_offset]
        tail = samples[known_end:unknown_end]
        head_amplitude = (
            float(np.mean(np.abs(head))) if head.size >= MIN_EDGE_SAMPLES else None
        )
        tail_amplitude = (
            float(np.mean(np.abs(tail))) if tail.size >= MIN_EDGE_SAMPLES else None
        )

        if self.config.amplitude_method == "hybrid":
            return self._estimate_hybrid(overlap, head_amplitude, tail_amplitude, diagnostics)
        return self._estimate_sigma(overlap, head_amplitude, tail_amplitude, diagnostics)

    def _estimate_hybrid(
        self,
        overlap: ComplexSignal,
        head_amplitude: Optional[float],
        tail_amplitude: Optional[float],
        diagnostics: DecodeDiagnostics,
    ) -> Tuple[float, float]:
        """Edge measurement for A, Eq. 5 mean energy for B.

        The interference-free head contains only the known signal, so its
        mean magnitude is a direct measurement of ``A``; the unknown
        amplitude follows from ``mu = A^2 + B^2``.  When only the tail
        (unknown-only) region exists the roles are swapped; with neither,
        the method degrades to the paper's two-statistic estimator.
        """
        mu = mean_energy(overlap)
        if head_amplitude is not None:
            amplitude_a = head_amplitude
            amplitude_b = float(np.sqrt(max(mu - amplitude_a ** 2, 1e-12)))
        elif tail_amplitude is not None:
            amplitude_b = tail_amplitude
            amplitude_a = float(np.sqrt(max(mu - amplitude_b ** 2, 1e-12)))
        else:
            return self._estimate_sigma(overlap, None, None, diagnostics)
        estimate = AmplitudeEstimate(
            amplitude_a=amplitude_a,
            amplitude_b=amplitude_b,
            mu=mu,
            sigma=sigma_statistic(overlap, mu),
        )
        diagnostics.amplitude_estimate = estimate
        return amplitude_a, amplitude_b

    def _estimate_sigma(
        self,
        overlap: ComplexSignal,
        head_amplitude: Optional[float],
        tail_amplitude: Optional[float],
        diagnostics: DecodeDiagnostics,
    ) -> Tuple[float, float]:
        """The paper's Eq. 5-6 estimator, with edge hints only for labelling."""
        if head_amplitude is not None:
            estimate = estimate_amplitudes_with_known(overlap, head_amplitude)
        elif tail_amplitude is not None:
            raw = estimate_amplitudes_with_known(overlap, tail_amplitude)
            # The hint matched the unknown signal, so swap the labels.
            estimate = AmplitudeEstimate(
                amplitude_a=raw.amplitude_b,
                amplitude_b=raw.amplitude_a,
                mu=raw.mu,
                sigma=raw.sigma,
            )
        else:
            hint = float(np.sqrt(mean_energy(overlap) / 2.0))
            estimate = estimate_amplitudes_with_known(overlap, hint)
        diagnostics.amplitude_estimate = estimate
        return estimate.amplitude_a, estimate.amplitude_b


class SubtractionDecoder:
    """Naive decode-by-subtraction baseline (the §6 strawman).

    The decoder estimates the known signal's complex channel coefficient
    from the interference-free head (least-squares fit of the received head
    against the re-modulated known head), reconstructs the known signal's
    contribution over the whole packet, subtracts it, and runs standard
    differential MSK demodulation on the residue.  With a perfect, constant
    channel this works; any channel drift or estimation error leaves a
    residual that corrupts the weaker signal — which is exactly why the
    paper rejects it in favour of the phase-difference method.
    """

    def decode(
        self,
        received: ComplexSignal,
        known_bits,
        known_offset: int,
        unknown_offset: int,
        unknown_n_bits: int,
    ) -> np.ndarray:
        """Decode the unknown packet's bits by subtracting the known signal."""
        known = ensure_bit_array(known_bits, "known_bits")
        if known_offset > unknown_offset:
            raise DecodingError(
                "SubtractionDecoder only implements the forward (known-first) case"
            )
        samples = received.samples
        unknown_end = unknown_offset + unknown_n_bits + 1
        if unknown_end > samples.size:
            raise DecodingError("received waveform too short for the unknown frame")

        # Re-modulate the known frame at unit amplitude and zero phase.
        from repro.modulation.msk import MSKModulator

        reference = MSKModulator(amplitude=1.0).modulate(known).samples
        known_end = known_offset + reference.size

        head_length = min(unknown_offset - known_offset, reference.size)
        if head_length < MIN_EDGE_SAMPLES:
            raise DecodingError("interference-free head too short to estimate the channel")
        head_rx = samples[known_offset : known_offset + head_length]
        head_ref = reference[:head_length]
        # Least-squares complex gain: h = <rx, ref> / <ref, ref>.
        gain = np.vdot(head_ref, head_rx) / np.vdot(head_ref, head_ref)

        residual = samples.copy()
        residual[known_offset:known_end] -= gain * reference
        block = residual[unknown_offset:unknown_end]
        ratio = block[1:] * np.conj(block[:-1])
        return (np.angle(ratio) >= 0).astype(np.uint8)
