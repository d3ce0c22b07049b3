"""Energy-based packet detection and variance-based interference detection.

Section 7.1 of the paper:

* a packet is detected when the received energy rises well above the
  noise floor (§7.1 quotes 20 dB; see
  :data:`~repro.constants.PACKET_DETECTION_THRESHOLD_DB`), and
* interference is detected when the *variance* of the windowed energy is
  large — a clean MSK signal has (nearly) constant energy because all the
  information lives in the phase, while the sum of two MSK signals swings
  between ``(A+B)^2`` and ``(A-B)^2``.

Both detectors operate over moving windows of the per-sample energy
``|s|^2`` (:func:`power_profile`); a receiver computes that profile once
per waveform and hands the energy detector all of it and the variance
detector the slice it judges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.constants import (
    DETECTOR_WINDOW,
    INTERFERENCE_VARIANCE_THRESHOLD_DB,
    PACKET_DETECTION_THRESHOLD_DB,
)
from repro.exceptions import DetectionError
from repro.signal.samples import ComplexSignal
from repro.utils.db import db_to_power_ratio
from repro.utils.validation import ensure_positive
from repro.utils.windows import moving_average, moving_variance

SignalLike = Union[ComplexSignal, np.ndarray]


def _as_samples(signal: SignalLike) -> np.ndarray:
    if isinstance(signal, ComplexSignal):
        return signal.samples
    return np.asarray(signal, dtype=np.complex128)


def power_profile(signal: SignalLike) -> np.ndarray:
    """Per-sample energy ``|s|^2``, the array both detectors read."""
    return np.abs(_as_samples(signal)) ** 2


@dataclass(frozen=True)
class PacketDetection:
    """Result of running the energy detector over a received stream."""

    detected: bool
    start_index: Optional[int]
    end_index: Optional[int]

    @property
    def length(self) -> int:
        """Number of samples between start and end (0 if nothing detected)."""
        if not self.detected or self.start_index is None or self.end_index is None:
            return 0
        return self.end_index - self.start_index


class EnergyDetector:
    """Detects the presence and extent of a packet in a sample stream.

    A packet is declared where the energy over a
    :data:`~repro.constants.DETECTOR_WINDOW`-sample window rises
    :data:`~repro.constants.PACKET_DETECTION_THRESHOLD_DB` above the noise
    floor.

    Parameters
    ----------
    noise_power:
        Estimated noise floor (linear power).  In a real radio this comes
        from calibration during idle periods; the simulator knows it
        exactly and nodes are configured with it.
    """

    def __init__(self, noise_power: float) -> None:
        """A detector for the positive linear ``noise_power``."""
        self.noise_power = ensure_positive(noise_power, "noise_power")
        #: Linear energy level above which a packet is declared.
        self.threshold_power = self.noise_power * db_to_power_ratio(
            PACKET_DETECTION_THRESHOLD_DB
        )

    def detect(self, power: np.ndarray) -> PacketDetection:
        """Find the first contiguous region whose windowed energy exceeds the threshold.

        ``power`` is the waveform's :func:`power_profile`.
        """
        if power.size == 0:
            raise DetectionError("cannot run packet detection on an empty signal")
        indices = (moving_average(power, DETECTOR_WINDOW) > self.threshold_power).nonzero()[0]
        if indices.size == 0:
            return PacketDetection(detected=False, start_index=None, end_index=None)
        # End of the packet: the last index of the first contiguous run of
        # "above" samples, extended through short dips (the window already
        # smooths most dips out).
        gaps = (indices[1:] - indices[:-1] > DETECTOR_WINDOW).nonzero()[0]
        end = int(indices[gaps[0] if gaps.size else -1]) + 1
        # Compensate for the trailing-window ramp-up: the packet actually
        # starts up to (window - 1) samples before the detection index.
        start = max(0, int(indices[0]) - (DETECTOR_WINDOW - 1))
        return PacketDetection(detected=True, start_index=start, end_index=end)


class InterferenceDetector:
    """Detects whether a received packet contains a collision (§7.1).

    The detector measures the variance of the windowed energy relative to
    the mean energy.  A clean MSK packet has an almost flat energy profile,
    so its normalised variance is tiny; two superposed MSK packets beat
    against each other and produce a variance comparable to the signal
    energy itself.  The paper states the variance threshold in dB; we
    interpret it as "the windowed energy variance exceeds the noise power
    by :data:`~repro.constants.INTERFERENCE_VARIANCE_THRESHOLD_DB`", which
    reproduces the intended behaviour of triggering only on genuine
    collisions.
    """

    def __init__(self, noise_power: float) -> None:
        """A detector for the positive linear ``noise_power``."""
        self.noise_power = ensure_positive(noise_power, "noise_power")
        #: Linear variance level above which interference is declared.
        self.threshold_variance = self.noise_power * db_to_power_ratio(
            INTERFERENCE_VARIANCE_THRESHOLD_DB
        )

    def detect(self, power: np.ndarray) -> bool:
        """Return ``True`` if the packet region shows collision-level energy variance.

        ``power`` is the :func:`power_profile` of the region judged.
        """
        if power.size == 0:
            raise DetectionError("cannot run interference detection on an empty signal")
        variance = moving_variance(power, DETECTOR_WINDOW)
        return bool(np.max(variance) > self.threshold_variance)
