"""Tests for the Theorem 8.1 capacity bounds against the relay SNR derivation."""

import numpy as np
import pytest

from repro.capacity.bounds import (
    anc_capacity_lower_bound,
    capacity_gain,
    crossover_snr_db,
    traditional_capacity_upper_bound,
)
from repro.exceptions import CapacityError
from repro.utils.db import db_to_power_ratio


class TestBounds:
    def test_traditional_formula(self):
        """C_traditional = alpha (log(1 + 2 SNR) + log(1 + SNR))."""
        snr_db = 20.0
        snr = db_to_power_ratio(snr_db)
        expected = 0.25 * (np.log2(1 + 2 * snr) + np.log2(1 + snr))
        assert traditional_capacity_upper_bound(snr_db) == pytest.approx(expected)

    def test_anc_formula(self):
        """C_anc = 4 alpha log(1 + SNR^2 / (3 SNR + 1))."""
        snr_db = 20.0
        snr = db_to_power_ratio(snr_db)
        expected = np.log2(1 + snr ** 2 / (3 * snr + 1))
        assert anc_capacity_lower_bound(snr_db) == pytest.approx(expected)

    def test_zero_snr_zero_capacity(self):
        assert anc_capacity_lower_bound(-200.0) == pytest.approx(0.0, abs=1e-6)

    def test_gain_approaches_two_at_high_snr(self):
        """Theorem 8.1: the gain tends to 2 as SNR grows."""
        assert capacity_gain(60.0) > 1.75
        assert capacity_gain(100.0) > 1.85
        assert capacity_gain(100.0) < 2.0

    def test_anc_worse_at_low_snr(self):
        """Fig. 7: below ~8 dB amplify-and-forward loses to routing."""
        assert capacity_gain(3.0) < 1.0
        assert capacity_gain(6.0) < 1.0

    def test_crossover_around_8db(self):
        crossover = crossover_snr_db()
        assert 6.0 <= crossover <= 11.0

    def test_monotone_in_snr(self):
        grid = np.arange(0.0, 50.0, 1.0)
        trad = traditional_capacity_upper_bound(grid)
        anc = anc_capacity_lower_bound(grid)
        assert np.all(np.diff(trad) > 0)
        assert np.all(np.diff(anc) > 0)

    def test_array_and_scalar_consistency(self):
        grid = np.array([10.0, 20.0])
        values = traditional_capacity_upper_bound(grid)
        assert values[0] == pytest.approx(traditional_capacity_upper_bound(10.0))

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"low_db": 10.0, "high_db": 10.0}, "high_db must exceed low_db"),
            ({"low_db": 0.0, "high_db": 5.0}, "never overtakes routing"),
        ],
        ids=["empty_range", "below_crossover"],
    )
    def test_crossover_search_rejections(self, kwargs, match):
        with pytest.raises(CapacityError, match=match):
            crossover_snr_db(**kwargs)


def _anc_receiver_snr(snr):
    """Eq. 25 with unit link gains and unit noise power: Alice's SNR after she cancels her signal.

    The relay scales by ``A^2 = P / (P h_AR^2 + P h_BR^2 + N)`` to keep its
    output at its power budget, and Alice sees
    ``A^2 P h_RA^2 h_BR^2 / (A^2 h_RA^2 N + N)``.
    """
    factor_sq = snr / (2.0 * snr + 1.0)
    return factor_sq * snr / (factor_sq + 1.0)


class TestRelayDerivation:
    def test_receiver_snr_matches_theorem_expression(self):
        """Eq. 25 reduces to SNR^2 / (3 SNR + 1) for unit gains and noise."""
        for snr in (1.0, 10.0, 100.0, 1000.0):
            derived = _anc_receiver_snr(snr)
            expected = snr ** 2 / (3 * snr + 1)
            assert derived == pytest.approx(expected, rel=1e-9)

    def test_capacity_bound_consistent_with_link_level_derivation(self):
        snr_db = 25.0
        snr = db_to_power_ratio(snr_db)
        link_level = np.log2(1 + _anc_receiver_snr(snr))
        assert anc_capacity_lower_bound(snr_db) == pytest.approx(link_level)
