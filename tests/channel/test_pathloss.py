"""Tests of the geometric mesh's log-distance path-loss law."""

import numpy as np
import pytest

from repro.network.generator import _path_loss


class TestAttenuation:
    def test_reference_gain_inside_reference_distance(self):
        for distance in (0.0, 0.1, 0.2):
            assert _path_loss(distance) == pytest.approx(0.95)

    def test_power_law_beyond_reference(self):
        # Free space: amplitude falls as 1/d, so doubling distance halves it.
        assert _path_loss(0.4) == pytest.approx(0.95 / 2)
        assert _path_loss(0.8) == pytest.approx(0.95 / 4)

    def test_monotonically_non_increasing(self):
        gains = _path_loss(np.linspace(0.0, 2.0, 50))
        assert np.all(np.diff(gains) <= 1e-12)

    def test_floor_is_enforced(self):
        assert _path_loss(100.0) == pytest.approx(0.05)

    def test_array_input_returns_array(self):
        out = _path_loss(np.array([0.05, 0.3, 1.0]))
        assert isinstance(out, np.ndarray)
        assert out.shape == (3,)

    def test_scalar_input_returns_float(self):
        out = _path_loss(0.3)
        assert isinstance(out, float)
        assert np.ndim(out) == 0


class TestDerivedQuantities:
    def test_free_space_doubles_distance_costs_six_db(self):
        delta = 20.0 * np.log10(_path_loss(0.4) / _path_loss(0.8))
        assert delta == pytest.approx(6.0206, abs=1e-3)
