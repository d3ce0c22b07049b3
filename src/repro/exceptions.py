"""Exception hierarchy for the ANC reproduction library.

Every error raised by :mod:`repro` derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the individual failure modes that matter
operationally (e.g. a bad header vs. a missing known packet).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ConfigurationError(ReproError):
    """Raised when a component is constructed with invalid parameters."""


class FramingError(ReproError):
    """Raised when a frame cannot be built or parsed."""


class HeaderError(FramingError):
    """Raised when a frame header fails to parse or validate."""


class CodingError(ReproError):
    """Raised by the error-control coding layer (FEC)."""


class DecodingError(ReproError):
    """Raised when the ANC interference decoder cannot decode a signal."""


class SynchronizationError(DecodingError):
    """Raised when the known signal cannot be aligned with the received signal."""


class DetectionError(ReproError):
    """Raised by packet / interference detection when input is unusable."""


class ChannelError(ReproError):
    """Raised by channel models on invalid use (e.g. negative noise power)."""


class TopologyError(ReproError):
    """Raised when a network topology is malformed for the requested protocol."""


class SimulationError(ReproError):
    """Raised when the network simulator reaches an inconsistent state."""


class CapacityError(ReproError):
    """Raised by the capacity-analysis module on invalid SNR/parameter inputs."""
