"""Tests for the SNR-sweep extension experiment."""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.snr_sweep import run_snr_sweep, snr_points
from repro.results import render_text


@pytest.fixture(scope="module")
def sweep_points():
    config = ExperimentConfig(runs=1, packets_per_run=4, payload_bits=512, seed=17)
    return snr_points(config, snr_db_values=(18.0, 26.0, 32.0), runs_per_point=1)


class TestSnrSweep:
    def test_point_per_snr_value(self, sweep_points):
        assert [p.snr_db for p in sweep_points] == [18.0, 26.0, 32.0]

    def test_anc_wins_in_operating_range(self, sweep_points):
        """The WLAN regime (>= 18 dB) is well above the ~8 dB crossover."""
        assert all(p.gain_over_traditional > 1.0 for p in sweep_points)

    def test_theoretical_gain_attached(self, sweep_points):
        for point in sweep_points:
            assert 0.9 < point.theoretical_gain < 2.0
            # Measured gain never exceeds the information-theoretic bound's 2x.
            assert point.gain_over_traditional < 2.0

    def test_ber_decreases_with_snr(self, sweep_points):
        assert sweep_points[-1].mean_ber <= sweep_points[0].mean_ber + 1e-9

    def test_delivery_high_across_range(self, sweep_points):
        assert all(p.delivery_ratio > 0.8 for p in sweep_points)

    def test_result_table_and_text(self):
        config = ExperimentConfig(runs=1, packets_per_run=2, payload_bits=512, seed=17)
        result = run_snr_sweep(config)
        points = result.get_series("points")
        assert points.column("snr_db") == [16.0, 20.0, 24.0, 28.0, 32.0, 36.0]
        table = render_text(result)
        assert "SNR (dB)" in table
        assert "16.0" in table
