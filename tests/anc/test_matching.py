"""Tests for the 4-hypothesis phase-difference matcher (Eqs. 7-8)."""

import numpy as np
import pytest

from repro.anc.lemma import phase_solutions
from repro.anc.matching import match_phase_differences
from repro.constants import MSK_PHASE_STEP
from repro.exceptions import DecodingError
from repro.modulation.msk import MSKModulator, _phase_steps
from repro.utils.bits import random_bits


def _collide_msk(bits_a, bits_b, amplitude_a=1.0, amplitude_b=0.8, phase_a=0.4, phase_b=-1.3,
                 cfo_a=0.03, cfo_b=-0.02, noise=0.0, seed=0):
    """Fully-overlapped collision of two equal-length MSK frames."""
    rng = np.random.default_rng(seed)
    sig_a = MSKModulator(amplitude=amplitude_a).modulate(bits_a).samples
    sig_b = MSKModulator(amplitude=amplitude_b).modulate(bits_b).samples
    n = np.arange(sig_a.size)
    sig_a = sig_a * np.exp(1j * (phase_a + cfo_a * n))
    sig_b = sig_b * np.exp(1j * (phase_b + cfo_b * n))
    composite = sig_a + sig_b
    if noise > 0:
        composite = composite + (
            rng.normal(0, np.sqrt(noise / 2), sig_a.size)
            + 1j * rng.normal(0, np.sqrt(noise / 2), sig_a.size)
        )
    return composite


class TestMatching:
    def test_recovers_unknown_bits_noiseless(self):
        rng = np.random.default_rng(1)
        bits_a = random_bits(300, rng)
        bits_b = random_bits(300, rng)
        composite = _collide_msk(bits_a, bits_b)
        solutions = phase_solutions(composite, 1.0, 0.8)
        result = match_phase_differences(solutions, _phase_steps(bits_a))
        ber = np.mean(result.bits != bits_b)
        assert ber < 0.02

    def test_recovers_unknown_bits_with_noise(self):
        rng = np.random.default_rng(2)
        bits_a = random_bits(300, rng)
        bits_b = random_bits(300, rng)
        composite = _collide_msk(bits_a, bits_b, noise=1e-3, seed=3)
        solutions = phase_solutions(composite, 1.0, 0.8)
        result = match_phase_differences(solutions, _phase_steps(bits_a))
        assert np.mean(result.bits != bits_b) < 0.05

    def test_works_when_unknown_is_weaker(self):
        """The paper's key claim: decoding works at negative SIR."""
        rng = np.random.default_rng(4)
        bits_a = random_bits(400, rng)
        bits_b = random_bits(400, rng)
        composite = _collide_msk(bits_a, bits_b, amplitude_a=1.0, amplitude_b=0.7, noise=5e-4)
        solutions = phase_solutions(composite, 1.0, 0.7)
        result = match_phase_differences(solutions, _phase_steps(bits_a))
        assert np.mean(result.bits != bits_b) < 0.06

    def test_selected_known_difference_close_to_truth(self):
        rng = np.random.default_rng(5)
        bits_a = random_bits(200, rng)
        bits_b = random_bits(200, rng)
        composite = _collide_msk(bits_a, bits_b)
        solutions = phase_solutions(composite, 1.0, 0.8)
        known = _phase_steps(bits_a)
        result = match_phase_differences(solutions, known)
        # The selected known-signal differences track the true ±pi/2 steps
        # up to the CFO-induced offset.
        assert np.median(np.abs(result.known_differences_selected - known)) < 0.2

    def test_match_errors_reported(self):
        rng = np.random.default_rng(6)
        bits_a = random_bits(100, rng)
        bits_b = random_bits(100, rng)
        composite = _collide_msk(bits_a, bits_b)
        solutions = phase_solutions(composite, 1.0, 0.8)
        result = match_phase_differences(solutions, _phase_steps(bits_a))
        assert result.match_errors.size == 100
        assert np.all(result.match_errors >= 0)

    def test_bits_threshold_rule(self):
        rng = np.random.default_rng(7)
        bits_a = random_bits(50, rng)
        bits_b = random_bits(50, rng)
        composite = _collide_msk(bits_a, bits_b)
        solutions = phase_solutions(composite, 1.0, 0.8)
        result = match_phase_differences(solutions, _phase_steps(bits_a))
        assert np.array_equal(result.bits, (result.unknown_differences >= 0).astype(np.uint8))

    def test_length_validation(self):
        composite = _collide_msk(
            np.array([1, 0], dtype=np.uint8), np.array([0, 1], dtype=np.uint8)
        )
        solutions = phase_solutions(composite, 1.0, 0.8)
        with pytest.raises(DecodingError):
            match_phase_differences(solutions, np.array([MSK_PHASE_STEP]))

    def test_too_few_samples(self):
        solutions = phase_solutions(np.array([1 + 0j]), 1.0, 0.8)
        with pytest.raises(DecodingError):
            match_phase_differences(solutions, np.array([]))


def _mod_wrap(angle):
    wrapped = np.mod(angle + np.pi, 2.0 * np.pi) - np.pi
    return np.where(np.abs(wrapped + np.pi) <= 1e-8 + 1e-5 * np.pi, np.pi, wrapped)


def reference_match(solutions, known):
    """Eq. 8 written out: every candidate wrapped with ``np.mod``, then selected."""
    theta = np.stack([solutions.theta1, solutions.theta2])
    phi = np.stack([solutions.phi1, solutions.phi2])
    delta_theta = _mod_wrap(theta[:, None, 1:] - theta[None, :, :-1]).reshape(4, -1)
    delta_phi = _mod_wrap(phi[:, None, 1:] - phi[None, :, :-1]).reshape(4, -1)
    errors = np.abs(_mod_wrap(delta_theta - known[None, :]))
    best = np.argmin(errors, axis=0)
    columns = np.arange(known.size)
    return delta_phi[best, columns], delta_theta[best, columns], errors[best, columns]


class TestMatchesReference:
    """Every output of the matcher equals the written-out Eq. 8 byte for byte."""

    @pytest.mark.parametrize("seed", range(6))
    def test_outputs_equal_reference(self, seed):
        rng = np.random.default_rng([29, seed])
        bits_a = random_bits(1050, rng)
        bits_b = random_bits(1050, rng)
        amplitude_b = (0.5, 0.8, 1.0, 1.3, 0.7, 0.95)[seed]
        composite = _collide_msk(
            bits_a, bits_b, amplitude_b=amplitude_b, noise=(0.0, 1e-3, 5e-2)[seed % 3],
            seed=seed,
        )
        solutions = phase_solutions(composite, 1.0, amplitude_b)
        known = _phase_steps(bits_a)
        result = match_phase_differences(solutions, known)
        phi, theta, errors = reference_match(solutions, known)
        assert result.unknown_differences.tobytes() == phi.tobytes()
        assert result.known_differences_selected.tobytes() == theta.tobytes()
        assert result.match_errors.tobytes() == errors.tobytes()
        assert result.bits.tobytes() == (phi >= 0).astype(np.uint8).tobytes()
