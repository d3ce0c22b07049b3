"""Tests for the testbed figure report (runs, gains and BER tables)."""

import pytest

from repro.exceptions import ConfigurationError
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


def _report(anc_runs, baseline_runs):
    return report_result(
        "toy", "fig_toy", ExperimentConfig(), anc_runs, {"traditional": baseline_runs}
    )


class TestBerSeries:
    def test_ber_series_is_sorted_and_keeps_losses(self):
        anc = [_run(bers=[0.01, 0.5]), _run(bers=[0.02])]
        result = _report(anc, [_run(), _run()])
        assert result.get_series("ber").column("ber") == [0.01, 0.02, 0.5]

    def test_ber_series_requires_samples(self):
        with pytest.raises(ConfigurationError, match="no BER samples"):
            _report([_run(bers=[])], [_run()])


class TestGainSeries:
    def test_gains_pair_runs_by_index(self):
        anc_runs = [_run(delivered=10, air=500, bers=[0.0]), _run(delivered=10, air=600)]
        base_runs = [
            _run(delivered=10, air=1000),
            _run(delivered=10, air=1000),
        ]
        gains = _report(anc_runs, base_runs).get_series("gains")
        assert gains.column("run") == [0, 1]
        assert gains.column("gain") == pytest.approx([2.0, 10 / 600 / (10 / 1000)])
        assert gains.column("anc_throughput") == pytest.approx([1000 / 500, 1000 / 600])
        assert gains.column("baseline_throughput") == pytest.approx([1.0, 1.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError, match="traditional needs one run per ANC run"):
            _report([_run(bers=[0.0])], [])

    def test_requires_a_pair(self):
        with pytest.raises(ConfigurationError, match="one run per ANC run"):
            _report([], [])

    def test_names_the_silent_baseline_run(self):
        anc_runs = [_run(bers=[0.0]), _run()]
        base_runs = [_run(), _run(delivered=0)]
        with pytest.raises(
            ConfigurationError, match="traditional run 1 has non-positive throughput"
        ):
            _report(anc_runs, base_runs)


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
