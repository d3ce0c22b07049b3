"""Input validation helpers.

These keep the argument checking in library entry points short and the
resulting error messages consistent.  All of them raise
:class:`repro.exceptions.ConfigurationError` on invalid input.
"""

from __future__ import annotations

from numbers import Real
from typing import Iterable, Union

import numpy as np

from repro.exceptions import ConfigurationError
from repro.utils.bits import checked_bit_array


def ensure_positive(value: Real, name: str) -> float:
    """Require ``value > 0`` and return it as a float."""
    if not isinstance(value, Real) or isinstance(value, bool):
        raise ConfigurationError(f"{name} must be a real number, got {value!r}")
    if value <= 0:
        raise ConfigurationError(f"{name} must be positive, got {value}")
    return float(value)


def ensure_non_negative(value: Real, name: str) -> float:
    """Require ``value >= 0`` and return it as a float."""
    if not isinstance(value, Real) or isinstance(value, bool):
        raise ConfigurationError(f"{name} must be a real number, got {value!r}")
    if value < 0:
        raise ConfigurationError(f"{name} must be non-negative, got {value}")
    return float(value)


def ensure_probability(value: Real, name: str) -> float:
    """Require ``0 <= value <= 1`` and return it as a float."""
    val = ensure_non_negative(value, name)
    if val > 1.0:
        raise ConfigurationError(f"{name} must lie in [0, 1], got {value}")
    return val


def ensure_bit_array(bits: Union[Iterable[int], np.ndarray], name: str = "bits") -> np.ndarray:
    """Require an iterable of 0/1 values and return the canonical bit array."""
    return checked_bit_array(bits, name)


def ensure_complex_array(samples, name: str = "samples") -> np.ndarray:
    """Require a one-dimensional array convertible to complex128."""
    arr = np.asarray(samples)
    if arr.ndim != 1:
        raise ConfigurationError(f"{name} must be one-dimensional")
    try:
        return arr.astype(np.complex128)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{name} must be convertible to complex values") from exc
