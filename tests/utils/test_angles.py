"""Tests for angle and phase arithmetic helpers."""

import numpy as np
import pytest

from repro.utils.angles import wrap_angle


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


def mod_wrap_angle(angle):
    """``wrap_angle`` written out with ``np.mod`` over every element."""
    wrapped = np.mod(np.asarray(angle, dtype=float) + np.pi, 2.0 * np.pi) - np.pi
    wrapped = np.where(np.abs(wrapped + np.pi) <= 1e-8 + 1e-5 * np.pi, np.pi, wrapped)
    if np.isscalar(angle) or np.ndim(angle) == 0:
        return float(wrapped)
    return wrapped


def _neighbours(values, steps=3):
    """``values`` with the ``steps`` nearest doubles on either side of each."""
    out = []
    for value in values:
        low = high = float(value)
        out.append(low)
        for _ in range(steps):
            low, high = np.nextafter(low, -np.inf), np.nextafter(high, np.inf)
            out += [low, high]
    return np.array(out)


class TestWrapAngleMatchesModDefinition:
    """``wrap_angle`` equals the ``np.mod`` definition byte for byte.

    ``x + pi`` in ``[-2pi, 4pi)`` (every angle difference the matcher
    wraps) and everything outside that range, including arrays that mix
    the two.
    """

    EDGES = _neighbours(
        [k * np.pi for k in (-4, -3, -2, -1, 1, 2, 3, 4)] + [0.0, -0.0, np.pi / 2, -np.pi / 2]
    )

    @pytest.mark.parametrize("scale", [1e-6, 1.0, np.pi, 2 * np.pi, 3 * np.pi, 10.0, 1e3, 1e9])
    def test_random_values(self, scale):
        values = np.random.default_rng(int(scale * 1000) % 2**32).uniform(
            -scale, scale, 200_000
        )
        assert wrap_angle(values).tobytes() == mod_wrap_angle(values).tobytes()

    def test_edge_values(self):
        assert wrap_angle(self.EDGES).tobytes() == mod_wrap_angle(self.EDGES).tobytes()
        for value in self.EDGES:
            assert _bits(wrap_angle(float(value))) == _bits(mod_wrap_angle(float(value)))

    def test_matcher_shaped_differences(self):
        rng = np.random.default_rng(29)
        theta = rng.uniform(-np.pi, np.pi, size=(2, 1051))
        theta[:, ::50] = np.pi
        theta[:, 1::50] = -np.pi
        differences = theta[:, None, 1:] - theta[None, :, :-1]
        assert wrap_angle(differences).tobytes() == mod_wrap_angle(differences).tobytes()
        known = np.where(rng.integers(0, 2, 1050) == 1, np.pi / 2, -np.pi / 2)
        errors = wrap_angle(differences) - known
        assert wrap_angle(errors).tobytes() == mod_wrap_angle(errors).tobytes()

    def test_mixed_and_empty_arrays(self):
        values = np.concatenate([self.EDGES, [7 * np.pi, -9.5, np.nan, np.inf]])
        with np.errstate(invalid="ignore"):
            assert wrap_angle(values).tobytes() == mod_wrap_angle(values).tobytes()
        empty = np.zeros((2, 0))
        assert wrap_angle(empty).shape == (2, 0)
