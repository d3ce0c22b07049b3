"""Capacity analysis of the two-way relay channel (§8, Theorem 8.1, Fig. 7).

The paper bounds the Alice–Bob network's capacity under half-duplex
radios: an upper bound for traditional routing and an achievable lower
bound for analog network coding, both as functions of SNR.  The ratio
approaches 2 as SNR grows; below roughly 8 dB the amplified noise makes
ANC worse than routing.  :mod:`repro.capacity.bounds` holds the bounds
Fig. 7 plots; :mod:`repro.capacity.relay` derives the receiver SNR of the
amplify-and-forward link that the ANC bound rests on.
"""

from repro.capacity.bounds import (
    anc_capacity_lower_bound,
    capacity_gain,
    crossover_snr_db,
    traditional_capacity_upper_bound,
)
from repro.capacity.relay import (
    amplification_factor,
    anc_receiver_snr,
    relay_received_snr,
)

__all__ = [
    "amplification_factor",
    "anc_capacity_lower_bound",
    "anc_receiver_snr",
    "capacity_gain",
    "crossover_snr_db",
    "relay_received_snr",
    "traditional_capacity_upper_bound",
]
