"""Additive white Gaussian noise generation.

The capacity analysis (§8) and the simulator both model the receiver noise
as circularly-symmetric complex Gaussian noise.  ``noise_power`` throughout
the library refers to the *total* complex noise power ``E[|z|^2]``, i.e.
each of the real and imaginary components has variance ``noise_power / 2``.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ChannelError


def complex_gaussian_noise(
    length: int,
    noise_power: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Generate ``length`` samples of complex AWGN with total power ``noise_power``."""
    if length < 0:
        raise ChannelError("noise length must be non-negative")
    if noise_power < 0:
        raise ChannelError("noise power must be non-negative")
    if noise_power == 0 or length == 0:
        return np.zeros(length, dtype=np.complex128)
    sigma = np.sqrt(noise_power / 2.0)
    return rng.normal(0.0, sigma, length) + 1j * rng.normal(0.0, sigma, length)
