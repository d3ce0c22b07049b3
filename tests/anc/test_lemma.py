"""Tests for the Lemma 6.1 phase-pair solver."""

import numpy as np
import pytest

from repro.anc.lemma import _cosine, phase_solutions
from repro.exceptions import ConfigurationError
from repro.utils.angles import wrap_angle


def _mixture(amplitude_a, amplitude_b, theta, phi):
    return amplitude_a * np.exp(1j * np.asarray(theta)) + amplitude_b * np.exp(
        1j * np.asarray(phi)
    )


class TestInterferenceCosine:
    def test_matches_true_cosine(self):
        rng = np.random.default_rng(0)
        theta = rng.uniform(-np.pi, np.pi, 200)
        phi = rng.uniform(-np.pi, np.pi, 200)
        y = _mixture(1.0, 0.6, theta, phi)
        cos_est = _cosine(y, 1.0, 0.6)
        assert cos_est == pytest.approx(np.cos(theta - phi), abs=1e-9)

    def test_clipping_under_noise(self):
        # A sample magnitude slightly beyond the feasible region clips to ±1.
        y = np.array([(1.0 + 0.6) * 1.001 + 0j])
        assert _cosine(y, 1.0, 0.6)[0] == 1.0

    def test_rejects_non_positive_amplitudes(self):
        with pytest.raises(ConfigurationError):
            phase_solutions(np.array([1 + 0j]), 0.0, 1.0)


class TestPhaseSolutions:
    def test_one_branch_recovers_truth(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            amplitude_a = rng.uniform(0.3, 1.5)
            amplitude_b = rng.uniform(0.3, 1.5)
            theta = rng.uniform(-np.pi, np.pi)
            phi = rng.uniform(-np.pi, np.pi)
            y = _mixture(amplitude_a, amplitude_b, [theta], [phi])
            sol = phase_solutions(y, amplitude_a, amplitude_b)
            branch1 = abs(wrap_angle(sol.theta1[0] - theta)) < 1e-6 and abs(
                wrap_angle(sol.phi1[0] - phi)
            ) < 1e-6
            branch2 = abs(wrap_angle(sol.theta2[0] - theta)) < 1e-6 and abs(
                wrap_angle(sol.phi2[0] - phi)
            ) < 1e-6
            assert branch1 or branch2

    def test_both_branches_reconstruct_the_sample(self):
        """Every returned (theta, phi) pair regenerates the observed sample."""
        rng = np.random.default_rng(2)
        amplitude_a, amplitude_b = 1.0, 0.7
        theta = rng.uniform(-np.pi, np.pi, 20)
        phi = rng.uniform(-np.pi, np.pi, 20)
        y = _mixture(amplitude_a, amplitude_b, theta, phi)
        sol = phase_solutions(y, amplitude_a, amplitude_b)
        rebuilt1 = _mixture(amplitude_a, amplitude_b, sol.theta1, sol.phi1)
        rebuilt2 = _mixture(amplitude_a, amplitude_b, sol.theta2, sol.phi2)
        assert np.allclose(rebuilt1, y, rtol=0, atol=1e-9)
        assert np.allclose(rebuilt2, y, rtol=0, atol=1e-9)

    def test_solutions_coincide_when_aligned(self):
        """When the two phasors are collinear (D = ±1) both branches agree."""
        y = _mixture(1.0, 0.5, [0.3], [0.3])
        sol = phase_solutions(y, 1.0, 0.5)
        assert sol.theta1[0] == pytest.approx(sol.theta2[0], abs=1e-6)
        assert sol.phi1[0] == pytest.approx(sol.phi2[0], abs=1e-6)

    def test_empty_input(self):
        sol = phase_solutions(np.array([], dtype=complex), 1.0, 1.0)
        assert len(sol) == 0

    def test_accepts_complex_signal_container(self):
        from repro.signal.samples import ComplexSignal

        y = ComplexSignal(_mixture(1.0, 0.5, [0.1, 0.2], [1.2, -0.4]))
        assert len(phase_solutions(y, 1.0, 0.5)) == 2
