"""Angle and phase arithmetic for complex baseband processing.

MSK encodes information purely in the *difference* between the phases of
consecutive complex samples (§5.2 of the paper), so almost every algorithm
in :mod:`repro.anc` manipulates wrapped angles.  The helpers here keep that
arithmetic in one place and make the wrapping conventions explicit.
"""

from __future__ import annotations

from typing import Union

import numpy as np

ArrayLike = Union[float, np.ndarray]

TWO_PI = 2.0 * np.pi

#: ``np.isclose``'s default ``atol + rtol * |-pi|``.
_NEAR_MINUS_PI = 1e-8 + 1e-5 * np.pi


def wrap_angle(angle: ArrayLike) -> ArrayLike:
    """Wrap an angle (radians) into the interval ``(-pi, pi]``.

    Parameters
    ----------
    angle:
        Scalar or array of angles in radians.

    Returns
    -------
    float or numpy.ndarray
        The same angles mapped to the principal interval.
    """
    wrapped = np.mod(np.asarray(angle, dtype=float) + np.pi, TWO_PI) - np.pi
    # np.mod maps exact multiples of 2*pi to -pi; keep +pi as the principal
    # representative so that wrap_angle(pi) == pi.  The test is exactly
    # np.isclose(wrapped, -pi) with its default tolerances, minus its
    # per-call set-up.
    wrapped = np.where(np.abs(wrapped + np.pi) <= _NEAR_MINUS_PI, np.pi, wrapped)
    if np.isscalar(angle) or np.ndim(angle) == 0:
        return float(wrapped)
    return wrapped


def principal_angle(value: ArrayLike) -> ArrayLike:
    """Return the principal argument of a complex value in ``(-pi, pi]``."""
    ang = np.angle(np.asarray(value))
    if np.isscalar(value) or np.ndim(value) == 0:
        return float(ang)
    return ang


def phase_difference(later: ArrayLike, earlier: ArrayLike) -> ArrayLike:
    """Wrapped phase difference ``later - earlier`` in ``(-pi, pi]``.

    This is the quantity MSK demodulation thresholds on: a positive
    difference decodes to a "1" bit and a negative difference to "0".
    """
    return wrap_angle(np.asarray(later, dtype=float) - np.asarray(earlier, dtype=float))


def unwrap_phase(phases: np.ndarray) -> np.ndarray:
    """Unwrap a sequence of wrapped phases into a continuous trajectory.

    Thin wrapper around :func:`numpy.unwrap` kept here so that callers in
    the library never import numpy's signal helpers directly.
    """
    return np.unwrap(np.asarray(phases, dtype=float))
