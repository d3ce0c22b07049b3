"""General-purpose helpers shared across the ANC reproduction library.

The utilities are deliberately small and dependency-light: phase / angle
arithmetic for complex baseband samples, dB conversions, bit packing,
pseudo-noise sequence generation, sliding-window statistics, and empirical
CDFs used by the evaluation harness.
"""

from repro.utils.angles import wrap_angle
from repro.utils.bits import (
    bits_from_int,
    random_bits,
    string_to_bits,
)
from repro.utils.cdf import EmpiricalCDF
from repro.utils.db import (
    db_to_linear,
    db_to_power_ratio,
)
from repro.utils.pn import PNSequence, pn_bits
from repro.utils.validation import (
    ensure_bit_array,
    ensure_complex_array,
    ensure_positive,
    ensure_probability,
)
from repro.utils.windows import moving_average, moving_variance

__all__ = [
    "EmpiricalCDF",
    "PNSequence",
    "bits_from_int",
    "db_to_linear",
    "db_to_power_ratio",
    "ensure_bit_array",
    "ensure_complex_array",
    "ensure_positive",
    "ensure_probability",
    "moving_average",
    "moving_variance",
    "pn_bits",
    "random_bits",
    "string_to_bits",
    "wrap_angle",
]
