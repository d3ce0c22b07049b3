"""Tests for the evaluation metrics (BER, gains, reports)."""

import pytest

from repro.exceptions import ConfigurationError
from repro.metrics.ber import ber_cdf, payload_ber_samples
from repro.metrics.gain import pair_runs
from repro.metrics.report import report_result
from repro.experiments.config import ExperimentConfig
from repro.protocols.base import RunResult
from repro.results.render import format_cdf_table, gain_samples, render_text
from repro.utils.cdf import EmpiricalCDF


def _run(delivered=10, air=1000, bers=()):
    return RunResult(
        topology="alice_bob",
        payload_bits=100,
        packets_offered=delivered,
        packets_delivered=delivered,
        air_time_samples=air,
        packet_bers=list(bers),
    )


class TestBerMetrics:
    def test_payload_ber_samples_filters_losses(self):
        runs = [_run(bers=[0.01, 0.5]), _run(bers=[0.02])]
        assert payload_ber_samples(runs, include_losses=True) == [0.01, 0.5, 0.02]
        assert payload_ber_samples(runs, include_losses=False) == [0.01, 0.02]

    def test_ber_cdf(self):
        runs = [_run(bers=[0.0, 0.02, 0.04])]
        cdf = ber_cdf(runs)
        assert cdf.evaluate(0.02) == pytest.approx(2 / 3)

    def test_ber_cdf_requires_samples(self):
        with pytest.raises(ConfigurationError):
            ber_cdf([_run(bers=[])])


class TestGainMetrics:
    def test_pair_runs(self):
        anc_runs = [_run(delivered=10, air=500), _run(delivered=10, air=600)]
        base_runs = [
            _run(delivered=10, air=1000),
            _run(delivered=10, air=1000),
        ]
        samples = pair_runs(anc_runs, base_runs)
        assert len(samples) == 2
        assert samples[0].gain == pytest.approx(2.0)
        assert samples[1].gain == pytest.approx(10 / 600 / (10 / 1000))

    def test_pair_runs_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            pair_runs([_run()], [])

    def test_pair_runs_requires_a_pair(self):
        with pytest.raises(ConfigurationError, match="at least one run pair"):
            pair_runs([], [])

    def test_pair_runs_names_the_silent_baseline_run(self):
        anc_runs = [_run(), _run()]
        base_runs = [_run(), _run(delivered=0)]
        with pytest.raises(ConfigurationError, match="baseline run 1 has non-positive throughput"):
            pair_runs(anc_runs, base_runs)


class TestReports:
    def test_format_cdf_table(self):
        cdf = EmpiricalCDF.from_samples([1.0, 2.0, 3.0])
        text = format_cdf_table(cdf, [1.0, 2.0, 3.0], label="gain")
        assert "gain" in text
        assert "1.000" in text

    def test_report_result_tables_and_text(self):
        anc = [_run(delivered=10, air=500, bers=(0.01, 0.02)), _run(delivered=10, air=600)]
        traditional = [
            _run(delivered=10, air=1000),
            _run(delivered=10, air=1000),
        ]
        result = report_result(
            "toy", "fig_toy", ExperimentConfig(), anc, {"traditional": traditional}
        )
        assert gain_samples(result, "traditional") == pytest.approx([2.0, 1000 / 600])
        assert result.get_series("ber").column("ber") == [0.01, 0.02]
        assert set(result.get_series("runs").column("scheme")) == {"anc", "traditional"}
        assert result.meta["baselines"] == ["traditional"]
        text = render_text(result)
        assert text.startswith("=== fig_toy ===")
        assert "ANC gain over traditional: mean 1.83x (+83%)" in text
        assert "mean_overlap" in text
