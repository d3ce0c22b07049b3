"""Tests for input validation helpers."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.utils.validation import (
    ensure_bit_array,
    ensure_complex_array,
    ensure_non_negative,
    ensure_positive,
    ensure_probability,
)


class TestScalarValidators:
    def test_ensure_positive_accepts(self):
        assert ensure_positive(2.5, "x") == 2.5

    def test_ensure_positive_rejects_zero(self):
        with pytest.raises(ConfigurationError):
            ensure_positive(0, "x")

    def test_ensure_positive_rejects_bool(self):
        with pytest.raises(ConfigurationError):
            ensure_positive(True, "x")

    def test_ensure_non_negative(self):
        assert ensure_non_negative(0, "x") == 0.0
        with pytest.raises(ConfigurationError):
            ensure_non_negative(-0.1, "x")

    def test_ensure_probability(self):
        assert ensure_probability(0.5, "p") == 0.5
        with pytest.raises(ConfigurationError):
            ensure_probability(1.2, "p")


class TestArrayValidators:
    def test_bit_array_accepts_binary(self):
        out = ensure_bit_array([0, 1, 1])
        assert out.dtype == np.uint8

    def test_bit_array_rejects_other_values(self):
        with pytest.raises(ConfigurationError):
            ensure_bit_array([0, 1, 3])

    @pytest.mark.parametrize("bad", [256, -1, 0.7, 1.9])
    def test_bit_array_rejects_non_bits_of_any_dtype(self, bad):
        with pytest.raises(ConfigurationError, match="known_bits may only contain"):
            ensure_bit_array(np.array([0, bad]), "known_bits")

    def test_bit_array_accepts_bool_and_whole_floats(self):
        assert ensure_bit_array(np.array([True, False])).tolist() == [1, 0]
        assert ensure_bit_array([1.0, 0.0]).tolist() == [1, 0]

    def test_bit_array_rejects_2d(self):
        with pytest.raises(ConfigurationError):
            ensure_bit_array(np.zeros((2, 2), dtype=int))

    def test_complex_array_accepts_real(self):
        out = ensure_complex_array([1.0, 2.0])
        assert out.dtype == np.complex128

    def test_complex_array_rejects_2d(self):
        with pytest.raises(ConfigurationError):
            ensure_complex_array(np.zeros((2, 2)))

    def test_complex_array_rejects_non_numeric(self):
        with pytest.raises(ConfigurationError, match="iq must be convertible to complex"):
            ensure_complex_array(["a", "b"], "iq")


_SCALAR_VALIDATORS = {
    "positive": ensure_positive,
    "non_negative": ensure_non_negative,
    "probability": ensure_probability,
}


class TestTypeGuards:
    """Every scalar validator rejects bools and non-numbers by name."""

    @pytest.mark.parametrize("bad", [True, "1", None], ids=["bool", "str", "none"])
    @pytest.mark.parametrize("kind", sorted(_SCALAR_VALIDATORS))
    def test_rejects_non_numbers(self, kind, bad):
        with pytest.raises(ConfigurationError, match=r"^width must be a real number"):
            _SCALAR_VALIDATORS[kind](bad, "width")
