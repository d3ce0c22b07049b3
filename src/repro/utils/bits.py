"""Bit-array helpers.

The library represents bit streams as ``numpy.ndarray`` of dtype ``uint8``
containing only 0s and 1s.  These helpers convert between that canonical
representation and integers and strings, and provide the small amount of
bit arithmetic (random generation, decoded BER) that the framing, coding
and evaluation layers need.
"""

from __future__ import annotations

from typing import Iterable, Optional, Union

import numpy as np

from repro.exceptions import ConfigurationError

BitsLike = Union[Iterable[int], np.ndarray, str]


def as_bit_array(bits: BitsLike) -> np.ndarray:
    """Coerce an iterable / string of 0s and 1s into the canonical bit array."""
    if isinstance(bits, str):
        return string_to_bits(bits)
    return checked_bit_array(bits, "bit arrays")


def checked_bit_array(bits: Union[Iterable[int], np.ndarray], name: str) -> np.ndarray:
    """A fresh canonical copy of ``bits``, whose values must all be 0 or 1.

    The values are checked before the cast to ``uint8``, so 256, -1 or 0.7
    are rejected rather than wrapped or truncated into a bit.  ``uint8`` and
    ``bool`` input only needs a range check; other dtypes are compared with
    0 and 1 elementwise.  ``name`` starts the error messages.
    """
    arr = bits if isinstance(bits, np.ndarray) else np.asarray(list(bits))
    if arr.ndim != 1:
        raise ConfigurationError(f"{name} must be one-dimensional")
    if arr.dtype == np.bool_:
        return arr.astype(np.uint8)
    if arr.dtype == np.uint8:
        valid = arr.size == 0 or int(np.maximum.reduce(arr)) <= 1
    else:
        valid = bool(np.all((arr == 0) | (arr == 1)))
    if not valid:
        raise ConfigurationError(f"{name} may only contain 0s and 1s")
    return arr.astype(np.uint8)


def string_to_bits(text: str) -> np.ndarray:
    """Parse a string such as ``"1010"`` into a bit array."""
    stripped = text.strip()
    if stripped and not set(stripped) <= {"0", "1"}:
        raise ConfigurationError(f"not a binary string: {text!r}")
    return np.array([int(c) for c in stripped], dtype=np.uint8)


def bits_from_int(value: int, width: int) -> np.ndarray:
    """Encode an unsigned integer as ``width`` bits, most-significant first."""
    if width <= 0:
        raise ConfigurationError("bit width must be positive")
    if value < 0:
        raise ConfigurationError("only unsigned integers can be encoded")
    if value >= (1 << width):
        raise ConfigurationError(f"value {value} does not fit in {width} bits")
    packed = np.frombuffer(int(value).to_bytes((width + 7) // 8, "big"), dtype=np.uint8)
    return np.unpackbits(packed)[-width:]


def _int_from_bits(arr: np.ndarray) -> int:
    """:func:`bits_to_int` of an already checked canonical bit array."""
    return int.from_bytes(np.packbits(arr).tobytes(), "big") >> (-arr.size % 8)


def random_bits(length: int, rng: np.random.Generator) -> np.ndarray:
    """Generate ``length`` uniformly random bits using ``rng``."""
    if length < 0:
        raise ConfigurationError("length must be non-negative")
    return rng.integers(0, 2, size=length, dtype=np.uint8)


def decoded_ber(reference: np.ndarray, decoded: Optional[np.ndarray]) -> float:
    """BER of a decode against the truth; a missing or mis-sized decode counts as 0.5.

    0.5 is what guessing every bit would score, so a lost packet weighs in
    a BER average as a useless one.  Both arrays are canonical bits the
    library built, so the mismatches are counted without a check.
    """
    if decoded is None or decoded.size != reference.size:
        return 0.5
    if reference.size == 0:
        return 0.0
    return int(np.count_nonzero(reference != decoded)) / float(reference.size)
