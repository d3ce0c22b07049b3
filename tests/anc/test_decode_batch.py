"""Tests for decoding a batch of collisions with the scalar interference decoder."""

import numpy as np
import pytest

from repro.anc.decoder import InterferenceDecoder
from repro.exceptions import DecodingError
from repro.modulation.msk import MSKModulator
from repro.signal.samples import ComplexSignal


def _disjoint_rows(n_rows, n_bits, unknown_offset, total_samples, seed):
    """Rows holding a known frame at 0 and a second frame that starts after it ends."""
    rng = np.random.default_rng(seed)
    rows, known_rows = [], []
    for _ in range(n_rows):
        known_bits = rng.integers(0, 2, n_bits, dtype=np.uint8)
        unknown_bits = rng.integers(0, 2, n_bits, dtype=np.uint8)
        wave_known = MSKModulator(amplitude=1.0).modulate(known_bits).samples
        wave_unknown = MSKModulator(amplitude=0.7).modulate(unknown_bits).samples
        row = np.zeros(total_samples, dtype=np.complex128)
        row[: wave_known.size] += wave_known
        row[unknown_offset : unknown_offset + wave_unknown.size] += wave_unknown
        row += 0.02 * (
            rng.standard_normal(total_samples) + 1j * rng.standard_normal(total_samples)
        ) / np.sqrt(2)
        rows.append(ComplexSignal(row))
        known_rows.append(known_bits)
    return rows, known_rows


class TestDecodeBatch:
    def test_zero_overlap_raises_like_scalar(self):
        # Known frame [0, 21), unknown frame [40, ...): no overlap at all.
        rows, known = _disjoint_rows(2, 20, 40, 90, seed=6)
        decoder = InterferenceDecoder()
        for row, known_bits in zip(rows, known):
            with pytest.raises(DecodingError, match="overlap"):
                decoder.decode(row, known_bits, 0, 40, 20)
