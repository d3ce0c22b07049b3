"""Tests for decibel conversion helpers."""

import numpy as np
import pytest

from repro.utils.db import db_to_linear, db_to_power_ratio


class TestPowerConversions:
    def test_zero_db_is_unity(self):
        assert db_to_power_ratio(0.0) == pytest.approx(1.0)

    def test_ten_db_is_ten(self):
        assert db_to_power_ratio(10.0) == pytest.approx(10.0)

    def test_twenty_db_is_hundred(self):
        assert db_to_power_ratio(20.0) == pytest.approx(100.0)

    def test_roundtrip(self):
        for value in (0.1, 1.0, 3.7, 250.0):
            assert db_to_power_ratio(10.0 * np.log10(value)) == pytest.approx(value)

    def test_array_support(self):
        out = db_to_power_ratio(np.array([0.0, 10.0]))
        assert out == pytest.approx([1.0, 10.0])


class TestAmplitudeConversions:
    def test_twenty_db_amplitude_is_ten(self):
        assert db_to_linear(20.0) == pytest.approx(10.0)

    def test_roundtrip(self):
        assert 20.0 * np.log10(db_to_linear(-3.0)) == pytest.approx(-3.0)

    def test_amplitude_and_power_consistency(self):
        # Power ratio is amplitude ratio squared.
        assert db_to_power_ratio(6.0) == pytest.approx(db_to_linear(6.0) ** 2)


class TestConversionGuards:
    def test_array_inputs_stay_arrays(self):
        assert isinstance(db_to_power_ratio(np.array([0.0, 10.0])), np.ndarray)
        assert db_to_linear(np.array([0.0, 20.0])) == pytest.approx([1.0, 10.0])

    def test_scalar_inputs_become_floats(self):
        assert type(db_to_power_ratio(np.float32(10.0))) is float
        assert type(db_to_linear(np.array(20.0))) is float
