"""Tests for angle and phase arithmetic helpers."""

import numpy as np
import pytest

from repro.utils.angles import phase_difference, unwrap_phase, wrap_angle


class TestWrapAngle:
    def test_small_angle_unchanged(self):
        assert wrap_angle(0.5) == pytest.approx(0.5)

    def test_negative_small_angle_unchanged(self):
        assert wrap_angle(-1.2) == pytest.approx(-1.2)

    def test_wraps_above_pi(self):
        assert wrap_angle(np.pi + 0.1) == pytest.approx(-np.pi + 0.1)

    def test_wraps_below_minus_pi(self):
        assert wrap_angle(-np.pi - 0.1) == pytest.approx(np.pi - 0.1)

    def test_pi_maps_to_pi(self):
        assert wrap_angle(np.pi) == pytest.approx(np.pi)

    def test_two_pi_maps_to_zero(self):
        assert wrap_angle(2 * np.pi) == pytest.approx(0.0, abs=1e-12)

    def test_array_input_returns_array(self):
        out = wrap_angle(np.array([0.0, 3 * np.pi, -3 * np.pi]))
        assert isinstance(out, np.ndarray)
        assert out == pytest.approx([0.0, np.pi, np.pi])

    def test_scalar_input_returns_float(self):
        assert isinstance(wrap_angle(7.0), float)

    def test_large_multiple_of_two_pi(self):
        assert wrap_angle(10 * 2 * np.pi + 0.3) == pytest.approx(0.3)


class TestPhaseDifference:
    def test_simple_difference(self):
        assert phase_difference(1.0, 0.25) == pytest.approx(0.75)

    def test_wraps_across_boundary(self):
        # 3.0 - (-3.0) = 6.0, which wraps to 6.0 - 2*pi.
        assert phase_difference(3.0, -3.0) == pytest.approx(6.0 - 2 * np.pi)

    def test_msk_step_positive(self):
        assert phase_difference(np.pi / 2, 0.0) == pytest.approx(np.pi / 2)

    def test_array_difference(self):
        later = np.array([0.5, 1.0])
        earlier = np.array([0.0, 2.0])
        out = phase_difference(later, earlier)
        assert out == pytest.approx([0.5, -1.0])


class TestUnwrapPhase:
    def test_unwrap_recovers_ramp(self):
        ramp = np.linspace(0, 8 * np.pi, 200)
        wrapped = wrap_angle(ramp)
        unwrapped = unwrap_phase(wrapped)
        assert np.allclose(np.diff(unwrapped), np.diff(ramp), atol=1e-9)


def reference_wrap_angle(angle):
    """The ``np.isclose`` definition the fast path must match bit for bit."""
    wrapped = np.mod(np.asarray(angle, dtype=float) + np.pi, 2.0 * np.pi) - np.pi
    wrapped = np.where(np.isclose(wrapped, -np.pi), np.pi, wrapped)
    if np.isscalar(angle) or np.ndim(angle) == 0:
        return float(wrapped)
    return wrapped


def _bits(value):
    return np.asarray(value, dtype=float).tobytes()


class TestWrapAngleBitEqualToReference:
    CASES = [
        np.pi,
        -np.pi,
        0.0,
        -0.0,
        2 * np.pi,
        -2 * np.pi,
        4 * np.pi,
        -6 * np.pi,
        1000 * 2 * np.pi,
        -np.pi + 1e-9,
        -np.pi - 1e-9,
        -np.pi + 5e-8,
        -np.pi + 3.2e-5,
        np.pi - 1e-9,
        np.pi + 1e-9,
        np.nextafter(-np.pi, 0.0),
        np.nextafter(np.pi, 4.0),
    ]

    @pytest.mark.parametrize("angle", CASES)
    def test_python_float(self, angle):
        out = wrap_angle(float(angle))
        assert isinstance(out, float)
        assert _bits(out) == _bits(reference_wrap_angle(float(angle)))

    @pytest.mark.parametrize("angle", CASES)
    def test_zero_dimensional_array(self, angle):
        out = wrap_angle(np.array(angle))
        assert isinstance(out, float)
        assert _bits(out) == _bits(reference_wrap_angle(np.array(angle)))

    def test_non_finite(self):
        values = np.array([np.nan, np.inf, -np.inf])
        with np.errstate(invalid="ignore"):
            assert _bits(wrap_angle(values)) == _bits(reference_wrap_angle(values))
            for value in values:
                assert _bits(wrap_angle(float(value))) == _bits(reference_wrap_angle(float(value)))

    def test_three_dimensional_array(self):
        rng = np.random.default_rng(9)
        values = rng.uniform(-50, 50, size=(3, 4, 5))
        values[0, 0, :] = np.array(self.CASES[:5])
        values[1, 2, :] = np.array(self.CASES[9:14])
        out = wrap_angle(values)
        assert out.shape == values.shape
        assert out.tobytes() == reference_wrap_angle(values).tobytes()

    def test_every_value_within_the_tolerance_of_minus_pi(self):
        offsets = np.linspace(-4e-5, 4e-5, 4001)
        values = -np.pi + offsets
        assert wrap_angle(values).tobytes() == reference_wrap_angle(values).tobytes()
