"""Decibel conversions.

The paper quotes every threshold and operating point in dB (20 dB packet
detection, 25-40 dB WLAN SNR, -3 dB SIR ...).  These helpers convert
between dB and linear power/amplitude ratios with explicit names so call
sites read unambiguously.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.exceptions import ConfigurationError

ArrayLike = Union[float, np.ndarray]


def db_to_power_ratio(db: ArrayLike) -> ArrayLike:
    """Convert a dB value to a linear *power* ratio (``10^(dB/10)``)."""
    result = np.power(10.0, np.asarray(db, dtype=float) / 10.0)
    if np.isscalar(db) or np.ndim(db) == 0:
        return float(result)
    return result


def power_ratio_to_db(ratio: ArrayLike) -> ArrayLike:
    """Convert a linear power ratio to dB (``10 * log10(ratio)``)."""
    arr = np.asarray(ratio, dtype=float)
    if np.any(arr <= 0):
        raise ConfigurationError("power ratio must be strictly positive to convert to dB")
    result = 10.0 * np.log10(arr)
    if np.isscalar(ratio) or np.ndim(ratio) == 0:
        return float(result)
    return result


def db_to_linear(db: ArrayLike) -> ArrayLike:
    """Convert a dB value to a linear *amplitude* ratio (``10^(dB/20)``)."""
    result = np.power(10.0, np.asarray(db, dtype=float) / 20.0)
    if np.isscalar(db) or np.ndim(db) == 0:
        return float(result)
    return result


def linear_to_db(ratio: ArrayLike) -> ArrayLike:
    """Convert a linear amplitude ratio to dB (``20 * log10(ratio)``)."""
    arr = np.asarray(ratio, dtype=float)
    if np.any(arr <= 0):
        raise ConfigurationError("amplitude ratio must be strictly positive to convert to dB")
    result = 20.0 * np.log10(arr)
    if np.isscalar(ratio) or np.ndim(ratio) == 0:
        return float(result)
    return result


def snr_db_from_powers(signal_power: float, noise_power: float) -> float:
    """Signal-to-noise ratio in dB from linear signal and noise powers."""
    if signal_power <= 0:
        raise ConfigurationError("signal power must be positive")
    if noise_power <= 0:
        raise ConfigurationError("noise power must be positive")
    return float(10.0 * np.log10(signal_power / noise_power))
