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
    values = np.asarray(angle, dtype=float)
    shifted = values + np.pi
    if values.size and -TWO_PI <= shifted.min() and shifted.max() < 2.0 * TWO_PI:
        # np.mod(y, 2pi) for y in [-2pi, 4pi), operation for operation:
        # fmod(y, 2pi) is y - 2pi from 2pi up (exact by Sterbenz's lemma)
        # and y below, and a negative remainder gets 2pi added.
        shifted = np.where(shifted >= TWO_PI, shifted - TWO_PI, shifted)
        shifted = np.where(shifted < 0.0, shifted + TWO_PI, shifted)
    else:
        shifted = np.mod(shifted, TWO_PI)
    wrapped = shifted - np.pi
    # np.mod maps exact multiples of 2*pi to -pi; keep +pi as the principal
    # representative so that wrap_angle(pi) == pi.  The test is exactly
    # np.isclose(wrapped, -pi) with its default tolerances, minus its
    # per-call set-up.
    near_minus_pi = np.abs(wrapped + np.pi) <= _NEAR_MINUS_PI
    if values.ndim == 0:
        return float(np.pi if near_minus_pi else wrapped)
    np.copyto(wrapped, np.pi, where=near_minus_pi)
    return wrapped
