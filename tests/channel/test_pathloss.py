"""Tests of the log-distance path-loss model."""

import numpy as np
import pytest

from repro.channel.pathloss import PathLossModel
from repro.exceptions import ChannelError


class TestValidation:
    def test_rejects_non_positive_exponent(self):
        with pytest.raises(ChannelError):
            PathLossModel(exponent=0.0)

    def test_rejects_non_positive_reference_distance(self):
        with pytest.raises(ChannelError):
            PathLossModel(reference_distance=0.0)

    def test_rejects_out_of_range_reference_attenuation(self):
        with pytest.raises(ChannelError):
            PathLossModel(reference_attenuation=2.0)

    def test_rejects_floor_above_reference(self):
        with pytest.raises(ChannelError):
            PathLossModel(reference_attenuation=0.5, min_attenuation=0.6)

    def test_rejects_negative_distance(self):
        with pytest.raises(ChannelError):
            PathLossModel().attenuation(-0.1)


class TestAttenuation:
    def test_reference_gain_inside_reference_distance(self):
        model = PathLossModel(reference_distance=0.1, reference_attenuation=0.9)
        assert model.attenuation(0.0) == pytest.approx(0.9)
        assert model.attenuation(0.05) == pytest.approx(0.9)
        assert model.attenuation(0.1) == pytest.approx(0.9)

    def test_power_law_beyond_reference(self):
        model = PathLossModel(
            exponent=2.0, reference_distance=0.1, reference_attenuation=1.0
        )
        # Free space: amplitude falls as 1/d, so doubling distance halves it.
        assert model.attenuation(0.2) == pytest.approx(0.5)
        assert model.attenuation(0.4) == pytest.approx(0.25)

    def test_monotonically_non_increasing(self):
        model = PathLossModel()
        distances = np.linspace(0.0, 2.0, 50)
        gains = model.attenuation(distances)
        assert np.all(np.diff(gains) <= 1e-12)

    def test_floor_is_enforced(self):
        model = PathLossModel(min_attenuation=0.1)
        assert model.attenuation(100.0) == pytest.approx(0.1)

    def test_higher_exponent_decays_faster(self):
        gentle = PathLossModel(exponent=2.0)
        harsh = PathLossModel(exponent=4.0)
        assert harsh.attenuation(0.5) < gentle.attenuation(0.5)

    def test_array_input_returns_array(self):
        model = PathLossModel()
        out = model.attenuation(np.array([0.05, 0.3, 1.0]))
        assert isinstance(out, np.ndarray)
        assert out.shape == (3,)

    def test_scalar_input_returns_float(self):
        assert isinstance(PathLossModel().attenuation(0.3), float)


class TestDerivedQuantities:
    def test_free_space_doubles_distance_costs_six_db(self):
        model = PathLossModel(
            exponent=2.0, reference_distance=0.1, reference_attenuation=1.0, min_attenuation=0.001
        )
        delta = 20.0 * np.log10(model.attenuation(0.2) / model.attenuation(0.4))
        assert delta == pytest.approx(6.0206, abs=1e-3)
