"""The :class:`ComplexSignal` container.

A wireless signal in this library is a finite stream of complex baseband
samples, exactly as the paper describes (§5.1: "we will talk about complex
samples, of the form ``A_s[n] e^{i theta_s[n]}``").  The container wraps a
``numpy`` array, freezes it, and offers the few structural operations
(slicing, reversal, padding, scaling) the channel and ANC layers use.
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
        """A frozen copy of ``samples`` as a one-dimensional complex array."""
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
    def silence(cls, length: int) -> "ComplexSignal":
        """A signal of ``length`` zero samples (idle channel)."""
        if length < 0:
            raise ConfigurationError("silence length must be non-negative")
        return cls(np.zeros(length, dtype=np.complex128))

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of samples."""
        return int(self.samples.size)

    # ------------------------------------------------------------------
    # Structural operations
    # ------------------------------------------------------------------
    def slice(self, start: int, stop: int) -> "ComplexSignal":
        """Return the sub-signal ``samples[start:stop]`` (a read-only view)."""
        return ComplexSignal._adopt(self.samples[start:stop])

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

    def __eq__(self, other: object) -> bool:
        """Equal length and samples equal within ``np.allclose``."""
        if not isinstance(other, ComplexSignal):
            return NotImplemented
        return len(self) == len(other) and bool(np.allclose(self.samples, other.samples))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        """The sample count, for debugging."""
        return f"ComplexSignal(n={len(self)})"
