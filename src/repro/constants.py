"""Library-wide constants.

These mirror the concrete values used in the paper's implementation
(Sections 5-7 and 11) so that the default configuration of every component
reproduces the published system.
"""

from __future__ import annotations

import math

#: MSK phase increment for a "1" bit (radians per symbol), see Fig. 3 / §5.2.
MSK_PHASE_STEP: float = math.pi / 2.0

#: Length of the pseudo-random pilot sequence attached to both ends of a
#: frame (§7.2: "The pilot is a 64-bit pseudo-random sequence").
PILOT_LENGTH_BITS: int = 64

#: Default seed for the pilot PN generator.  All nodes must agree on the
#: pilot sequence, so it is a protocol constant rather than per-node state.
PILOT_SEED: int = 0x5EED

#: Default seed for the data-whitening scrambler (§6.2).
SCRAMBLER_SEED: int = 0xACE1

#: Energy threshold (dB above the noise floor) used to declare that a
#: packet is present.  §7.1 quotes 20 dB for a testbed operating at 25-40
#: dB SNR; the simulated operating range reaches down to ~20 dB, where a
#: 20 dB threshold would miss packets, so the receiver uses 12 dB.
PACKET_DETECTION_THRESHOLD_DB: float = 12.0

#: Energy-variance threshold (dB above the noise power) used to declare
#: interference (§7.1 quotes 20 dB).  14 dB sits above the energy variance
#: of a clean packet at the low end of the operating range and far below
#: the variance of a collision, which is the ordering that matters.
INTERFERENCE_VARIANCE_THRESHOLD_DB: float = 14.0

#: Moving-window length (samples) of both §7.1 detectors.
DETECTOR_WINDOW: int = 16

#: Average fraction of two interfering packets that overlap in the paper's
#: testbed (§11.4: "the average overlap ... is 80%").
DEFAULT_OVERLAP_FRACTION: float = 0.80

#: Extra error-correction redundancy charged against ANC throughput
#: (§11.4: "we have to add 8% of extra redundancy").
DEFAULT_ANC_REDUNDANCY_OVERHEAD: float = 0.08

#: Typical operating SNR (dB) of practical WLAN deployments (§8, citing
#: [11]): "WLANs operate at SNR around 25-40dB".
TYPICAL_OPERATING_SNR_DB: float = 30.0

#: Number of testbed repetitions per experiment in the paper (§11.4:
#: "We repeat the experiment 40 times").
PAPER_NUM_RUNS: int = 40

#: Number of packets transferred per direction per run in the paper.
PAPER_PACKETS_PER_RUN: int = 1000

#: Number of header bits used for each of SrcID, DstID and SeqNo in the
#: Fig. 6 frame layout.  The paper does not give exact field widths; we use
#: 8/8/16 which is sufficient for every topology in the evaluation.
HEADER_SRC_BITS: int = 8
HEADER_DST_BITS: int = 8
HEADER_SEQ_BITS: int = 16

#: Default transmit amplitude of every node (arbitrary linear units).  All
#: nodes transmit at the same power in the paper's analysis (§8).
DEFAULT_TX_AMPLITUDE: float = 1.0
