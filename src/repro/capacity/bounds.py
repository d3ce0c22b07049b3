"""Theorem 8.1: capacity bounds for the half-duplex two-way relay channel.

With all nodes transmitting at the same power over symmetric channels with
additive white Gaussian noise, the paper states:

* an upper bound on the total capacity of the traditional (routing)
  approach::

      C_traditional = alpha * (log(1 + 2 SNR) + log(1 + SNR))

* an achievable lower bound for analog network coding::

      C_anc = 4 alpha * log(1 + SNR^2 / (3 SNR + 1))

where ``alpha`` is the time-sharing constant :data:`ALPHA` = 1/4 (each
of the four traditional transmissions gets a quarter of the time); the
theorem fixes it, so the bounds take the SNR alone.  The ratio of the two
tends to 2 as SNR grows, and drops below 1 in the low-SNR regime (roughly
below 8 dB) where the relay's amplified noise dominates.

Logarithms are base 2, so capacities are in bits/s/Hz.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.exceptions import CapacityError
from repro.utils.db import db_to_power_ratio

ArrayLike = Union[float, np.ndarray]

#: Time-sharing constant of Theorem 8.1 (four transmissions share the medium).
ALPHA = 0.25

#: Step (dB) of the grid :func:`crossover_snr_db` searches.
CROSSOVER_RESOLUTION_DB = 0.01


def _validate_snr(snr_linear: ArrayLike) -> np.ndarray:
    arr = np.asarray(snr_linear, dtype=float)
    if np.any(arr < 0):
        raise CapacityError("SNR must be non-negative")
    return arr


def traditional_capacity_upper_bound(snr_db: ArrayLike) -> ArrayLike:
    """Upper bound on the routing capacity of the Alice–Bob network (b/s/Hz)."""
    snr = _validate_snr(db_to_power_ratio(np.asarray(snr_db, dtype=float)))
    capacity = ALPHA * (np.log2(1.0 + 2.0 * snr) + np.log2(1.0 + snr))
    if np.isscalar(snr_db) or np.ndim(snr_db) == 0:
        return float(capacity)
    return capacity


def anc_capacity_lower_bound(snr_db: ArrayLike) -> ArrayLike:
    """Achievable lower bound on the ANC capacity of the Alice–Bob network (b/s/Hz)."""
    snr = _validate_snr(db_to_power_ratio(np.asarray(snr_db, dtype=float)))
    effective = (snr ** 2) / (3.0 * snr + 1.0)
    capacity = 4.0 * ALPHA * np.log2(1.0 + effective)
    if np.isscalar(snr_db) or np.ndim(snr_db) == 0:
        return float(capacity)
    return capacity


def capacity_gain(snr_db: ArrayLike) -> ArrayLike:
    """Ratio of the ANC lower bound to the traditional upper bound.

    Asymptotically approaches 2 as the SNR grows (Theorem 8.1); values
    below 1 indicate the low-SNR regime where amplify-and-forward hurts.
    """
    anc = np.asarray(anc_capacity_lower_bound(snr_db), dtype=float)
    traditional = np.asarray(traditional_capacity_upper_bound(snr_db), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = np.where(traditional > 0, anc / traditional, 0.0)
    if np.isscalar(snr_db) or np.ndim(snr_db) == 0:
        return float(gain)
    return gain


def crossover_snr_db(low_db: float = 0.0, high_db: float = 30.0) -> float:
    """SNR (dB) above which the ANC lower bound beats the routing upper bound.

    The paper's Fig. 7 places this crossover at roughly 8 dB; this helper
    locates it numerically on the stated bounds, searching ``[low_db,
    high_db]`` in steps of :data:`CROSSOVER_RESOLUTION_DB`.
    """
    if high_db <= low_db:
        raise CapacityError("high_db must exceed low_db")
    grid = np.arange(low_db, high_db + CROSSOVER_RESOLUTION_DB, CROSSOVER_RESOLUTION_DB)
    gains = capacity_gain(grid)
    above = np.nonzero(gains >= 1.0)[0]
    if above.size == 0:
        raise CapacityError("ANC never overtakes routing in the requested SNR range")
    return float(grid[above[0]])
