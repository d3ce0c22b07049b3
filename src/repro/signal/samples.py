"""The :class:`ComplexSignal` container.

A wireless signal in this library is a finite stream of complex baseband
samples, exactly as the paper describes (§5.1: "we will talk about complex
samples, of the form ``A_s[n] e^{i theta_s[n]}``").  The container wraps a
``numpy`` array and offers the handful of derived quantities (amplitude,
phase, phase differences, energy) that the modulation and ANC layers keep
recomputing, plus simple slicing and concatenation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

from repro.exceptions import ConfigurationError
from repro.utils.validation import ensure_complex_array


def _frozen(samples: np.ndarray) -> np.ndarray:
    """``samples`` made read-only, seen through a view so the flag stays off.

    numpy lets an array that owns its memory be made writable again; a
    view of a read-only array refuses.
    """
    samples.setflags(write=False)
    return samples.view()


@dataclass(frozen=True)
class ComplexSignal:
    """An immutable sequence of complex baseband samples.

    Parameters
    ----------
    samples:
        One-dimensional array (or iterable) of complex values.  The array
        is copied and frozen, so a ``ComplexSignal`` can be shared freely
        between nodes without aliasing surprises.  Signals the library
        builds itself adopt their fresh arrays instead (``_adopt``); they
        are frozen the same way.
    """

    samples: np.ndarray

    def __init__(self, samples: Union[np.ndarray, Iterable[complex]]) -> None:
        # ensure_complex_array casts with astype, which always allocates, so
        # the signal never aliases the caller's array.
        object.__setattr__(self, "samples", _frozen(ensure_complex_array(samples, "samples")))

    @classmethod
    def _adopt(cls, samples: np.ndarray) -> "ComplexSignal":
        """A signal that takes ownership of ``samples`` without a copy.

        Only for a one-dimensional complex128 array, or a view of one, that
        the library has just built and nobody else writes to.  It is frozen
        in place, skipping the public constructor's validation and copy.
        """
        signal = object.__new__(cls)
        object.__setattr__(signal, "samples", _frozen(samples))
        return signal

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls) -> "ComplexSignal":
        """A signal with no samples."""
        return cls(np.zeros(0, dtype=np.complex128))

    @classmethod
    def silence(cls, length: int) -> "ComplexSignal":
        """A signal of ``length`` zero samples (idle channel)."""
        if length < 0:
            raise ConfigurationError("silence length must be non-negative")
        return cls(np.zeros(length, dtype=np.complex128))

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.samples.size)

    @property
    def amplitude(self) -> np.ndarray:
        """Per-sample magnitude ``|s[n]|``."""
        return np.abs(self.samples)

    @property
    def phase(self) -> np.ndarray:
        """Per-sample phase ``arg(s[n])`` in ``(-pi, pi]``."""
        return np.angle(self.samples)

    @property
    def energy(self) -> np.ndarray:
        """Per-sample energy ``|s[n]|^2``."""
        return np.abs(self.samples) ** 2

    @property
    def average_power(self) -> float:
        """Mean per-sample energy (zero for an empty signal)."""
        if len(self) == 0:
            return 0.0
        return float(np.mean(self.energy))

    # ------------------------------------------------------------------
    # Structural operations
    # ------------------------------------------------------------------
    def slice(self, start: int, stop: int) -> "ComplexSignal":
        """Return the sub-signal ``samples[start:stop]`` (a read-only view)."""
        return ComplexSignal._adopt(self.samples[start:stop])

    def concatenate(self, other: "ComplexSignal") -> "ComplexSignal":
        """Append ``other`` after this signal."""
        return ComplexSignal(np.concatenate([self.samples, other.samples]))

    def reversed(self) -> "ComplexSignal":
        """Time-reversed copy (used by Bob's backward decoding, §7.4)."""
        return ComplexSignal(self.samples[::-1])

    def padded(self, before: int, after: int) -> "ComplexSignal":
        """Return a copy with zero samples prepended and appended."""
        if before < 0 or after < 0:
            raise ConfigurationError("padding lengths must be non-negative")
        return ComplexSignal(
            np.concatenate(
                [
                    np.zeros(before, dtype=np.complex128),
                    self.samples,
                    np.zeros(after, dtype=np.complex128),
                ]
            )
        )

    def scaled(self, factor: complex) -> "ComplexSignal":
        """Multiply every sample by ``factor`` (attenuation and/or phase shift)."""
        return ComplexSignal._adopt(self.samples * factor)

    def __add__(self, other: "ComplexSignal") -> "ComplexSignal":
        """Superpose two signals of identical length (what the channel does)."""
        if not isinstance(other, ComplexSignal):
            return NotImplemented
        if len(self) != len(other):
            raise ConfigurationError(
                "signals must have equal length to superpose; use overlap_add for offsets"
            )
        return ComplexSignal(self.samples + other.samples)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ComplexSignal):
            return NotImplemented
        return len(self) == len(other) and bool(np.allclose(self.samples, other.samples))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ComplexSignal(n={len(self)}, power={self.average_power:.4g})"
