"""Tests for decibel conversion helpers."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.utils.db import (
    db_to_linear,
    db_to_power_ratio,
    linear_to_db,
    power_ratio_to_db,
    snr_db_from_powers,
)


class TestPowerConversions:
    def test_zero_db_is_unity(self):
        assert db_to_power_ratio(0.0) == pytest.approx(1.0)

    def test_ten_db_is_ten(self):
        assert db_to_power_ratio(10.0) == pytest.approx(10.0)

    def test_twenty_db_is_hundred(self):
        assert db_to_power_ratio(20.0) == pytest.approx(100.0)

    def test_roundtrip(self):
        for value in (0.1, 1.0, 3.7, 250.0):
            assert db_to_power_ratio(power_ratio_to_db(value)) == pytest.approx(value)

    def test_negative_ratio_raises(self):
        with pytest.raises(ConfigurationError):
            power_ratio_to_db(-1.0)

    def test_array_support(self):
        out = db_to_power_ratio(np.array([0.0, 10.0]))
        assert out == pytest.approx([1.0, 10.0])


class TestAmplitudeConversions:
    def test_twenty_db_amplitude_is_ten(self):
        assert db_to_linear(20.0) == pytest.approx(10.0)

    def test_roundtrip(self):
        assert linear_to_db(db_to_linear(-3.0)) == pytest.approx(-3.0)

    def test_amplitude_and_power_consistency(self):
        # Power ratio is amplitude ratio squared.
        assert db_to_power_ratio(6.0) == pytest.approx(db_to_linear(6.0) ** 2)


class TestSNRandSIR:
    def test_snr_from_powers(self):
        assert snr_db_from_powers(100.0, 1.0) == pytest.approx(20.0)

    def test_snr_requires_positive_noise(self):
        with pytest.raises(ConfigurationError):
            snr_db_from_powers(1.0, 0.0)


class TestConversionGuards:
    def test_linear_to_db_rejects_non_positive(self):
        with pytest.raises(ConfigurationError, match="amplitude ratio"):
            linear_to_db(0.0)

    def test_array_inputs_stay_arrays(self):
        values = np.array([1.0, 10.0, 100.0])
        assert isinstance(power_ratio_to_db(values), np.ndarray)
        assert power_ratio_to_db(values) == pytest.approx([0.0, 10.0, 20.0])
        assert linear_to_db(values) == pytest.approx([0.0, 20.0, 40.0])
        assert db_to_linear(np.array([0.0, 20.0])) == pytest.approx([1.0, 10.0])

    def test_scalar_inputs_become_floats(self):
        assert type(power_ratio_to_db(np.float32(10.0))) is float
        assert type(linear_to_db(10)) is float
        assert type(db_to_linear(np.array(20.0))) is float

    @pytest.mark.parametrize("signal_power", [0.0, -1.0])
    def test_snr_requires_positive_signal(self, signal_power):
        with pytest.raises(ConfigurationError, match="signal power"):
            snr_db_from_powers(signal_power, 1.0)
