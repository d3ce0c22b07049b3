"""Batch properties of the scalar PHY path.

A batch of trials is decoded row by row with one shared
:class:`InterferenceDecoder` and one shared MSK modem.  These
hypothesis-driven tests check that sharing them is safe: every row of a
batch decodes **bit-identically** to the same row decoded by a fresh
decoder, so no state leaks from one trial into the next.  They also check
that the degenerate geometries (zero overlap, and single-bit frames whose
two-sample overlap is below the decoder's four-sample minimum) are
rejected identically on every row.

Assertions use exact array equality throughout — never ``approx``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.anc.decoder import InterferenceDecoder
from repro.channel.link import Link
from repro.exceptions import ConfigurationError, DecodingError
from repro.modulation.msk import MSKDemodulator, MSKModulator
from repro.signal.samples import ComplexSignal

bit_matrices = st.tuples(
    st.integers(min_value=1, max_value=6),   # n_trials
    st.integers(min_value=1, max_value=96),  # n_bits
    st.integers(min_value=0, max_value=2**32 - 1),
).map(
    lambda spec: np.random.default_rng(spec[2]).integers(
        0, 2, (spec[0], spec[1]), dtype=np.uint8
    )
)

#: Error types a legitimate decode rejection may raise (e.g. a degenerate
#: Eq. 5-6 solution with a zero amplitude raises through ensure_positive).
_DECODE_ERRORS = (DecodingError, ConfigurationError)


def _assert_shared_decoder_matches_fresh(rows, known, known_offset, unknown_offset, unknown_n_bits):
    """Decode each row with a shared and a fresh decoder; require identical outcomes."""
    shared = InterferenceDecoder()
    for row, known_bits in zip(rows, known):
        args = (ComplexSignal(row), known_bits, known_offset, unknown_offset, unknown_n_bits)
        try:
            expected_bits, expected = InterferenceDecoder().decode(*args)
        except _DECODE_ERRORS:
            with pytest.raises(_DECODE_ERRORS):
                shared.decode(*args)
            continue
        bits, diagnostics = shared.decode(*args)
        assert bits.shape == (unknown_n_bits,)
        assert np.array_equal(bits, expected_bits)
        assert diagnostics.overlap_samples == expected.overlap_samples
        assert diagnostics.interfered_bits == expected.interfered_bits
        assert diagnostics.clean_bits == expected.clean_bits
        assert diagnostics.reversed_decode == expected.reversed_decode
        assert diagnostics.mean_match_error == expected.mean_match_error
        assert diagnostics.amplitude_estimate == expected.amplitude_estimate


class TestModemEquivalence:
    @given(bits=bit_matrices)
    @settings(max_examples=30, deadline=None)
    def test_modulate_demodulate_roundtrip(self, bits):
        """Every row of a bit matrix round-trips through one shared modem."""
        modulator, demodulator = MSKModulator(), MSKDemodulator()
        for row in bits:
            assert np.array_equal(demodulator.demodulate(modulator.modulate(row)), row)


class TestDecodeBatchEquivalence:
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_zero_overlap_rejected_identically(self, seed):
        """Disjoint frames: every row is refused, in either decode direction."""
        rng = np.random.default_rng(seed)
        known_n_bits = unknown_n_bits = 16
        later_offset = known_n_bits + 5  # strictly after the earlier frame
        total = later_offset + unknown_n_bits + 1
        rows = rng.standard_normal((2, total)) + 1j * rng.standard_normal((2, total))
        known = rng.integers(0, 2, (2, known_n_bits), dtype=np.uint8)
        decoder = InterferenceDecoder()
        for row, known_bits in zip(rows, known):
            for known_offset, unknown_offset in ((0, later_offset), (later_offset, 0)):
                with pytest.raises(DecodingError, match="overlap"):
                    decoder.decode(
                        ComplexSignal(row), known_bits, known_offset, unknown_offset,
                        unknown_n_bits,
                    )

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           known_first=st.booleans())
    @settings(max_examples=15, deadline=None)
    def test_single_bit_frames_rejected_identically(self, seed, known_first):
        """A single-bit frame spans two samples — below the 4-sample overlap
        minimum — so every row is refused the same way."""
        rng = np.random.default_rng(seed)
        known_offset, unknown_offset = (0, 0) if known_first else (1, 0)
        decoder = InterferenceDecoder()
        for _ in range(2):
            known_bits = rng.integers(0, 2, 1, dtype=np.uint8)
            unknown_bits = rng.integers(0, 2, 1, dtype=np.uint8)
            row = np.zeros(8, dtype=np.complex128)
            row[known_offset : known_offset + 2] += MSKModulator().modulate(known_bits).samples
            row[unknown_offset : unknown_offset + 2] += (
                MSKModulator(amplitude=0.8).modulate(unknown_bits).samples
            )
            with pytest.raises(DecodingError, match="overlap"):
                decoder.decode(ComplexSignal(row), known_bits, known_offset, unknown_offset, 1)

    impaired_specs = st.fixed_dictionaries(
        {
            "seed": st.integers(min_value=0, max_value=2**32 - 1),
            "n_trials": st.integers(min_value=1, max_value=4),
            "n_bits": st.integers(min_value=16, max_value=48),
            "offset": st.integers(min_value=0, max_value=8),
            "cfo": st.floats(min_value=0.0, max_value=0.15),
            "fading": st.sampled_from(["none", "rayleigh", "rician"]),
            "k_db": st.floats(min_value=-5.0, max_value=12.0),
            "mode": st.sampled_from(["block", "drift"]),
            "snr_db": st.floats(min_value=12.0, max_value=40.0),
        }
    )

    @given(spec=impaired_specs)
    @settings(max_examples=30, deadline=None)
    def test_cfo_and_fading_collisions_bit_identical(self, spec):
        """Collisions shaped by the impairment stages decode identically.

        Each component passes through a link with a per-sender CFO ramp
        (opposite signs, the §6 relative-offset geometry) and a seeded
        Rayleigh/Rician fade before superposition.  A shared decoder must
        reproduce a fresh decoder's bits and diagnostics on every row.
        """
        rng = np.random.default_rng(spec["seed"])
        n_bits = spec["n_bits"]
        offset = spec["offset"]
        total = offset + n_bits + 1 + 4
        noise_scale = float(10.0 ** (-spec["snr_db"] / 20.0))
        doppler = 0.003 if spec["mode"] == "drift" else 0.0
        rows, known_rows = [], []
        for _ in range(spec["n_trials"]):
            known_bits = rng.integers(0, 2, n_bits, dtype=np.uint8)
            unknown_bits = rng.integers(0, 2, n_bits, dtype=np.uint8)
            faded = []
            for cfo, amplitude, bits in (
                (spec["cfo"], 1.0, known_bits), (-spec["cfo"], 0.7, unknown_bits)
            ):
                start_phase = float(rng.uniform(-np.pi, np.pi))
                wave = MSKModulator(amplitude).modulate(bits).scaled(np.exp(1j * start_phase))
                link = Link(
                    sender_cfo=cfo,
                    fading=spec["fading"],
                    fading_k_db=spec["k_db"],
                    fading_mode=spec["mode"],
                    fading_doppler=doppler,
                    fading_los_phase=float(rng.uniform(-np.pi, np.pi)),
                )
                faded.append(link.distort(wave, rng))
            wave_known, wave_unknown = faded
            row = np.zeros(total, dtype=np.complex128)
            row[: wave_known.samples.size] += wave_known.samples
            row[offset : offset + wave_unknown.samples.size] += wave_unknown.samples
            row += noise_scale * (
                rng.standard_normal(total) + 1j * rng.standard_normal(total)
            ) / np.sqrt(2)
            rows.append(row)
            known_rows.append(known_bits)
        _assert_shared_decoder_matches_fresh(rows, known_rows, 0, offset, n_bits)
