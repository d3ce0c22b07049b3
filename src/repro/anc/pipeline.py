"""The complete ANC receive chain (Fig. 8 / Algorithm 1).

``ReceivePipeline.receive`` takes the raw received waveform and a buffer of
frames the node already knows (its own earlier transmissions and anything
it overheard) and produces a :class:`ReceiveResult`:

1. the energy detector decides whether a packet is present at all;
2. the variance detector classifies it as clean or interfered (§7.1);
3. a clean packet is demodulated with standard MSK, aligned on its pilot
   and deframed;
4. an interfered packet is processed by decoding the leading header out of
   the interference-free head and the trailing header out of the
   interference-free tail (§7.2-§7.4), looking the headers up in the
   known-frame buffer, and running the interference decoder forwards or
   backwards depending on which of the two colliding frames is known;
5. if neither header names a known frame the pipeline reports
   ``NEEDS_RELAY`` so a router can decide to amplify-and-forward instead
   (§7.5).

The pipeline assumes all frames in the network carry payloads of a fixed,
configured size (``expected_payload_bits``) — the usual fixed-MTU
assumption, which is also how the paper's testbed operates (1000 fixed-size
packets per run).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.anc.alignment import PILOT_SEARCH_BITS, _leading_pilot
from repro.anc.decoder import DecodeDiagnostics, InterferenceDecoder
from repro.constants import DETECTOR_WINDOW
from repro.exceptions import DecodingError, HeaderError, SynchronizationError
from repro.framing.buffer import SentPacketBuffer
from repro.framing.frame import Deframer, Framer
from repro.framing.header import Header
from repro.framing.packet import Packet
from repro.framing.pilot import PilotSequence, _find_all_pilots, _find_pilot
from repro.modulation.msk import MSKDemodulator
from repro.signal.energy import EnergyDetector, InterferenceDetector, power_profile
from repro.signal.samples import ComplexSignal


#: ``ReceiveResult.failure_reason`` of a packet whose header validated but
#: whose payload failed its CRC.
PAYLOAD_CRC_FAILURE = "payload crc"


class ReceiveOutcome(enum.Enum):
    """What the receive pipeline concluded about a waveform."""

    NO_SIGNAL = "no_signal"
    CLEAN_DECODED = "clean_decoded"
    ANC_DECODED = "anc_decoded"
    NEEDS_RELAY = "needs_relay"
    FAILED = "failed"


@dataclass
class ReceiveResult:
    """Everything the pipeline learned from one received waveform."""

    outcome: ReceiveOutcome
    packet: Optional[Packet] = None
    crc_ok: bool = False
    interfered: bool = False
    first_header: Optional[Header] = None
    second_header: Optional[Header] = None
    decoded_bits: Optional[np.ndarray] = None
    diagnostics: Optional[DecodeDiagnostics] = None
    failure_reason: str = ""

    @property
    def delivered(self) -> bool:
        """True when a packet was decoded and passed its payload CRC."""
        return self.packet is not None and self.crc_ok


class ReceivePipeline:
    """Algorithm 1 of the paper, for one receiver.

    The detectors run at the thresholds of :mod:`repro.constants`, the
    frames carry the protocol pilot and scrambler, and the interference
    decoder runs at its default :class:`~repro.anc.decoder.DecoderConfig`.

    Parameters
    ----------
    noise_power:
        The receiver's noise floor, used by the energy and variance
        detectors.
    expected_payload_bits:
        Fixed payload size used throughout the network; determines the
        frame length the parser expects.
    known_frames:
        Buffer of frames this node can use to cancel interference (its own
        sent frames plus overheard ones).  May be shared with the node's
        transmit path.
    """

    def __init__(
        self,
        noise_power: float,
        expected_payload_bits: int,
        known_frames: Optional[SentPacketBuffer] = None,
    ) -> None:
        """A receive chain for one network's noise floor and payload size."""
        self.noise_power = float(noise_power)
        self.expected_payload_bits = int(expected_payload_bits)
        self.known_frames = known_frames if known_frames is not None else SentPacketBuffer()
        self.pilot = PilotSequence()
        self._layout = Framer().layout_for(self.expected_payload_bits)
        self.deframer = Deframer()
        self.decoder = InterferenceDecoder()
        self.energy_detector = EnergyDetector(self.noise_power)
        self.interference_detector = InterferenceDetector(self.noise_power)
        self._demodulator = MSKDemodulator()
        #: Number of bits in every frame of this network.
        self.frame_bits = self._layout.total_length
        #: Number of complex samples each transmitted frame occupies.
        self.frame_samples = self.frame_bits + 1
        self._header_region_bits = self.pilot.length + Header.ENCODED_LENGTH
        # Samples of the clean head (or tail) of a collision demodulated
        # once for both the pilot search and the header behind the pilot:
        # a pilot found in the first PILOT_SEARCH_BITS bits ends by then.
        self._edge_samples = PILOT_SEARCH_BITS + Header.ENCODED_LENGTH + 1

    # ------------------------------------------------------------------
    # Public entry point (Algorithm 1)
    # ------------------------------------------------------------------
    def receive(self, waveform: ComplexSignal) -> ReceiveResult:
        """Run the full receive chain on a raw waveform."""
        if len(waveform) == 0:
            return ReceiveResult(outcome=ReceiveOutcome.NO_SIGNAL, failure_reason="empty waveform")
        power = power_profile(waveform)
        detection = self.energy_detector.detect(power)
        if not detection.detected:
            return ReceiveResult(outcome=ReceiveOutcome.NO_SIGNAL, failure_reason="no energy")
        start, end = detection.start_index, detection.end_index
        region = waveform.slice(start, end)
        if not self._interfered(power[start:end]):
            return self._receive_clean(region)
        return self._receive_interfered(region)

    def _interfered(self, region_power: np.ndarray) -> bool:
        """Run the variance detector on the interior of the detected region.

        ``region_power`` is the region's slice of the waveform's power
        profile.  The first and last detector windows are excluded so
        that the energy ramp at the packet edges (silence -> signal) is
        not mistaken for a collision; only genuine superposition inside
        the packet raises the interior energy variance.
        """
        if region_power.size > 4 * DETECTOR_WINDOW:
            region_power = region_power[DETECTOR_WINDOW:-DETECTOR_WINDOW]
        return self.interference_detector.detect(region_power)

    # ------------------------------------------------------------------
    # Clean (non-interfered) path
    # ------------------------------------------------------------------
    def _receive_clean(self, region: ComplexSignal) -> ReceiveResult:
        # One demodulation of the whole region: bit k is carried by samples
        # (k, k + 1), so the pilot search and every candidate frame slice it.
        region_bits = self._demodulator.demodulate(region)
        candidates = self._clean_frame_candidates(len(region), region_bits)
        if not candidates:
            return ReceiveResult(
                outcome=ReceiveOutcome.FAILED,
                interfered=False,
                failure_reason="pilot sequence not found",
            )
        fallback: Optional[ReceiveResult] = None
        for start in candidates:
            if start + self.frame_samples > len(region):
                continue
            bits = region_bits[start : start + self.frame_bits]
            parsed = self.deframer.parse(bits)
            if parsed.packet is None:
                if fallback is None:
                    fallback = ReceiveResult(
                        outcome=ReceiveOutcome.FAILED,
                        interfered=False,
                        decoded_bits=bits,
                        failure_reason="header did not validate",
                    )
                continue
            result = ReceiveResult(
                outcome=ReceiveOutcome.CLEAN_DECODED,
                packet=parsed.packet,
                crc_ok=parsed.payload_crc_ok,
                interfered=False,
                first_header=parsed.header,
                decoded_bits=bits,
                failure_reason="" if parsed.payload_crc_ok else PAYLOAD_CRC_FAILURE,
            )
            if parsed.payload_crc_ok:
                return result
            if fallback is None or fallback.packet is None:
                fallback = result
        if fallback is not None:
            return fallback
        return ReceiveResult(
            outcome=ReceiveOutcome.FAILED,
            interfered=False,
            failure_reason="received region shorter than one frame",
        )

    def _clean_frame_candidates(self, region_samples: int, region_bits: np.ndarray) -> list:
        """Candidate frame-start offsets for the clean (non-interfered) path.

        A snooping receiver can see more than one pilot in its head region
        when a weak second transmission happens to start first (the "X"
        topology's overhearing case); every candidate is tried and the one
        whose frame validates wins.
        """
        # A frame starting later than this cannot fit inside the region.
        last_possible_start = max(0, region_samples - self.frame_samples)
        head_samples = min(region_samples, last_possible_start + self.pilot.length + 1)
        return _find_all_pilots(
            region_bits[: head_samples - 1], self.pilot, 4, last_possible_start
        )

    # ------------------------------------------------------------------
    # Interfered path
    # ------------------------------------------------------------------
    def _receive_interfered(self, region: ComplexSignal) -> ReceiveResult:
        # Locate both frames and decode whichever headers sit in the
        # interference-free head / tail.  Either header may fail to
        # validate when the overlap is deep; the frame *positions* only
        # need the pilots, which are shorter and therefore more robust.
        try:
            first_start, first_header = self._decode_leading_header(region)
        except SynchronizationError as exc:
            return self._with_best_effort(
                region,
                ReceiveResult(
                    outcome=ReceiveOutcome.FAILED,
                    interfered=True,
                    failure_reason=f"leading pilot: {exc}",
                ),
            )
        try:
            second_start, second_header = self._decode_trailing_header(region)
        except SynchronizationError as exc:
            return self._with_best_effort(
                region,
                ReceiveResult(
                    outcome=ReceiveOutcome.FAILED,
                    interfered=True,
                    first_header=first_header,
                    failure_reason=f"trailing pilot: {exc}",
                ),
            )

        first_known = (
            self.known_frames.lookup_header(first_header) if first_header is not None else None
        )
        second_known = (
            self.known_frames.lookup_header(second_header) if second_header is not None else None
        )

        if first_known is None and second_known is None:
            if first_header is not None and second_header is not None:
                outcome = ReceiveOutcome.NEEDS_RELAY
                reason = "neither colliding packet is known"
            else:
                outcome = ReceiveOutcome.FAILED
                reason = "could not validate either colliding header"
            return self._with_best_effort(
                region,
                ReceiveResult(
                    outcome=outcome,
                    interfered=True,
                    first_header=first_header,
                    second_header=second_header,
                    failure_reason=reason,
                ),
            )

        if first_known is not None:
            known_frame, known_offset = first_known, first_start
            unknown_offset, unknown_header = second_start, second_header
        else:
            known_frame, known_offset = second_known, second_start
            unknown_offset, unknown_header = first_start, first_header

        try:
            bits, diagnostics = self.decoder.decode(
                region,
                known_frame.bits,
                known_offset=known_offset,
                unknown_offset=unknown_offset,
                unknown_n_bits=self.frame_bits,
            )
        except DecodingError as exc:
            return ReceiveResult(
                outcome=ReceiveOutcome.FAILED,
                interfered=True,
                first_header=first_header,
                second_header=second_header,
                failure_reason=f"interference decoding failed: {exc}",
            )

        parsed = self.deframer.parse(bits)
        if parsed.packet is None and unknown_header is not None:
            # The payload region was recovered but the embedded header copy
            # was corrupted; rebuild the packet from the header we already
            # decoded out of the clean region so the payload is not lost.
            parsed = self.deframer._read_payload(bits, self._layout, unknown_header)
        elif parsed.packet is None:
            return ReceiveResult(
                outcome=ReceiveOutcome.FAILED,
                interfered=True,
                first_header=first_header,
                second_header=second_header,
                decoded_bits=bits,
                diagnostics=diagnostics,
                failure_reason="decoded frame failed header validation",
            )

        return ReceiveResult(
            outcome=ReceiveOutcome.ANC_DECODED,
            packet=parsed.packet,
            crc_ok=parsed.payload_crc_ok,
            interfered=True,
            first_header=first_header,
            second_header=second_header,
            decoded_bits=bits,
            diagnostics=diagnostics,
            failure_reason="" if parsed.payload_crc_ok else PAYLOAD_CRC_FAILURE,
        )

    def _with_best_effort(self, region: ComplexSignal, result: ReceiveResult) -> ReceiveResult:
        """Attach a best-effort standard decode to a non-decodable collision.

        A receiver that cannot cancel either colliding packet still tries
        ordinary demodulation — if one component strongly dominates (the
        overhearing situation in the "X" topology) the dominant frame often
        comes out intact.  The pipeline outcome (NEEDS_RELAY / FAILED) is
        preserved so routers still amplify-and-forward; the snooped packet
        rides along in ``packet`` / ``crc_ok`` for callers that can use it.
        """
        best_effort = self._receive_clean(region)
        if best_effort.packet is not None:
            result.packet = best_effort.packet
            result.crc_ok = best_effort.crc_ok
            if result.decoded_bits is None:
                result.decoded_bits = best_effort.decoded_bits
        return result

    # ------------------------------------------------------------------
    # Header extraction from the clean head / tail
    # ------------------------------------------------------------------
    def _decode_leading_header(self, region: ComplexSignal):
        """Align on the leading pilot and decode the first frame's header.

        One demodulation of the clean head serves the pilot search and the
        header behind it.  Returns ``(frame_start_sample, header_or_None)``.
        Alignment failure (no pilot) raises; a header that does not
        validate — e.g. because the overlap reaches into it — yields
        ``None`` so the caller can still proceed if the *other* frame is
        the known one.
        """
        head = region.slice(0, min(len(region), self._edge_samples))
        bits = self._demodulator.demodulate(head)
        start = _leading_pilot(bits, self.pilot, 4)
        return start, self._header_after_pilot(bits, start, len(region))

    def _decode_trailing_header(self, region: ComplexSignal):
        """Align on the trailing pilot and decode the second frame's header.

        The tail of the composite is interference-free and contains the
        second frame's mirrored pilot and header.  Demodulating the
        time-reversed tail and flipping the bits yields the second frame's
        bits in back-to-front reading order, i.e. pilot first — exactly
        the same structure the leading-header decoder sees.  Returns
        ``(forward_frame_start_sample, header_or_None)``.
        """
        samples = region.samples
        tail = ComplexSignal(samples[max(0, len(samples) - self._edge_samples) :][::-1])
        bits = (1 - self._demodulator.demodulate(tail)).astype(np.uint8)
        rev_start = _find_pilot(bits[:PILOT_SEARCH_BITS], self.pilot, 4, None)
        if rev_start is None:
            raise SynchronizationError("pilot not found in the interference-free tail")
        forward_start = len(region) - rev_start - self.frame_samples
        if forward_start < 0:
            raise SynchronizationError("trailing frame extends beyond the received region")
        return forward_start, self._header_after_pilot(bits, rev_start, len(region))

    def _header_after_pilot(self, bits: np.ndarray, start: int, region_samples: int):
        """The header behind the pilot at bit ``start``, or ``None``.

        ``None`` when the header runs past the region or does not validate.
        """
        header_end = start + self._header_region_bits
        if header_end + 1 > region_samples:
            return None
        try:
            return Header._decode(bits[start + self.pilot.length : header_end])
        except HeaderError:
            return None
