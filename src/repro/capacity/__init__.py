"""Capacity analysis of the two-way relay channel (§8, Theorem 8.1, Fig. 7).

The paper bounds the Alice–Bob network's capacity under half-duplex
radios: an upper bound for traditional routing and an achievable lower
bound for analog network coding, both as functions of SNR.  The ratio
approaches 2 as SNR grows; below roughly 8 dB the amplified noise makes
ANC worse than routing.  :mod:`repro.capacity.bounds` holds the bounds
Fig. 7 plots.
"""

from repro.capacity.bounds import (
    anc_capacity_lower_bound,
    capacity_gain,
    crossover_snr_db,
    traditional_capacity_upper_bound,
)

__all__ = [
    "anc_capacity_lower_bound",
    "capacity_gain",
    "crossover_snr_db",
    "traditional_capacity_upper_bound",
]
