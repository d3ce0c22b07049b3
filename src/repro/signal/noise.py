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
    # One draw fills the real parts, then the imaginary parts: the values
    # and the generator state of two consecutive ``normal(0, sigma, n)``
    # draws, without the temporaries of ``a + 1j * b``.
    parts = rng.normal(0.0, np.sqrt(noise_power / 2.0), (2, length))
    noise = np.empty(length, dtype=np.complex128)
    noise.real = parts[0]
    noise.imag = parts[1]
    return noise
