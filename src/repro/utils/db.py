"""Decibel conversions.

The paper quotes every threshold and operating point in dB (20 dB packet
detection, 25-40 dB WLAN SNR, -3 dB SIR ...).  These helpers convert
between dB and linear power/amplitude ratios with explicit names so call
sites read unambiguously.
"""

from __future__ import annotations

from typing import Union

import numpy as np

ArrayLike = Union[float, np.ndarray]


def db_to_power_ratio(db: ArrayLike) -> ArrayLike:
    """Convert a dB value to a linear *power* ratio (``10^(dB/10)``)."""
    result = np.power(10.0, np.asarray(db, dtype=float) / 10.0)
    if np.isscalar(db) or np.ndim(db) == 0:
        return float(result)
    return result


def db_to_linear(db: ArrayLike) -> ArrayLike:
    """Convert a dB value to a linear *amplitude* ratio (``10^(dB/20)``)."""
    result = np.power(10.0, np.asarray(db, dtype=float) / 20.0)
    if np.isscalar(db) or np.ndim(db) == 0:
        return float(result)
    return result
