"""Complex-baseband signal substrate.

This package provides the sample-level building blocks the rest of the
library runs on: a :class:`ComplexSignal` container, energy / variance
detectors (the §7.1 packet and interference detectors), additive noise
generation, and sample-delay / superposition operations that model what
the wireless channel does to concurrent transmissions.
"""

from repro.signal.samples import ComplexSignal
from repro.signal.energy import (
    EnergyDetector,
    InterferenceDetector,
    power_profile,
)
from repro.signal.noise import complex_gaussian_noise
from repro.signal.ops import delay_signal, overlap_add

__all__ = [
    "ComplexSignal",
    "EnergyDetector",
    "InterferenceDetector",
    "complex_gaussian_noise",
    "delay_signal",
    "overlap_add",
    "power_profile",
]
