"""Structural signal operation: superposition.

This is the primitive the wireless medium model composes: each
transmitter's waveform is attenuated and phase-rotated by its link, then
all concurrent waveforms are summed at their start offsets at the
receiver (``overlap_add``), and finally noise is added.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import ChannelError
from repro.signal.samples import ComplexSignal

SignalLike = Union[ComplexSignal, np.ndarray]


def _as_samples(signal: SignalLike) -> np.ndarray:
    if isinstance(signal, ComplexSignal):
        return signal.samples
    return np.asarray(signal, dtype=np.complex128)


def overlap_add(
    components: Sequence[Tuple[SignalLike, int]], total_length: Optional[int] = None
) -> ComplexSignal:
    """Sum signals that start at different sample offsets.

    Parameters
    ----------
    components:
        Sequence of ``(signal, start_offset)`` pairs.  Offsets must be
        non-negative.
    total_length:
        Length of the resulting composite; defaults to the smallest length
        that contains every component.

    Returns
    -------
    ComplexSignal
        The superposition, with silence wherever no component is active.
    """
    if not components:
        raise ChannelError("at least one component is required")
    arrays = []
    offsets = []
    for signal, offset in components:
        if offset < 0:
            raise ChannelError("component offsets must be non-negative")
        arrays.append(_as_samples(signal))
        offsets.append(int(offset))
    natural_length = max(arr.size + off for arr, off in zip(arrays, offsets))
    length = natural_length if total_length is None else int(total_length)
    if length < 0:
        raise ChannelError("total_length must be non-negative")
    out = np.zeros(length, dtype=np.complex128)
    for arr, off in zip(arrays, offsets):
        if off >= length:
            continue
        end = min(off + arr.size, length)
        out[off:end] += arr[: end - off]
    return ComplexSignal._adopt(out)
