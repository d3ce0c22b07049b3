"""Tests for the evaluation metrics (BER, throughput, gains, reports)."""

import pytest

from repro.exceptions import ConfigurationError
from repro.metrics.ber import ber_cdf, mean_ber, packet_ber, payload_ber_samples
from repro.metrics.gain import GainSample, gain_cdf, mean_gain, pair_runs
from repro.metrics.report import report_result
from repro.metrics.throughput import (
    aggregate_delivery_ratio,
    mean_throughput,
    network_throughput,
    throughput_gain,
)
from repro.experiments.config import ExperimentConfig
from repro.protocols.base import RunResult
from repro.results.render import format_cdf_table, gain_samples, render_text
from repro.utils.cdf import EmpiricalCDF


def _run(scheme="anc", delivered=10, air=1000, bers=(), overhead=0.0, offered=None):
    return RunResult(
        scheme=scheme,
        topology="alice_bob",
        payload_bits=100,
        packets_offered=offered if offered is not None else delivered,
        packets_delivered=delivered,
        air_time_samples=air,
        packet_bers=list(bers),
        redundancy_overhead=overhead,
    )


class TestBerMetrics:
    def test_packet_ber(self):
        assert packet_ber([1, 0, 1, 0], [1, 1, 1, 0]) == pytest.approx(0.25)

    def test_packet_ber_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            packet_ber([1, 0], [1])

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

    def test_mean_ber(self):
        assert mean_ber([_run(bers=[0.01, 0.03])]) == pytest.approx(0.02)
        assert mean_ber([_run(bers=[])]) == 0.0


class TestThroughputMetrics:
    def test_network_throughput(self):
        assert network_throughput(_run(delivered=5, air=500)) == pytest.approx(1.0)

    def test_mean_throughput(self):
        runs = [_run(delivered=5, air=500), _run(delivered=10, air=500)]
        assert mean_throughput(runs) == pytest.approx(1.5)
        with pytest.raises(ConfigurationError):
            mean_throughput([])

    def test_throughput_gain(self):
        anc = _run(delivered=10, air=500)
        base = _run(scheme="traditional", delivered=10, air=1000)
        assert throughput_gain(anc, base) == pytest.approx(2.0)

    def test_aggregate_delivery_ratio(self):
        runs = [_run(delivered=8, offered=10), _run(delivered=10, offered=10)]
        assert aggregate_delivery_ratio(runs) == pytest.approx(0.9)
        assert aggregate_delivery_ratio([]) == 0.0


class TestGainMetrics:
    def test_pair_runs(self):
        anc_runs = [_run(delivered=10, air=500), _run(delivered=10, air=600)]
        base_runs = [
            _run(scheme="traditional", delivered=10, air=1000),
            _run(scheme="traditional", delivered=10, air=1000),
        ]
        samples = pair_runs(anc_runs, base_runs)
        assert len(samples) == 2
        assert samples[0].gain == pytest.approx(2.0)
        assert samples[1].baseline_scheme == "traditional"

    def test_pair_runs_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            pair_runs([_run()], [])

    def test_gain_cdf_and_mean(self):
        samples = [
            GainSample(0, 1.5, 1.0, 1.0, "traditional"),
            GainSample(1, 1.7, 1.0, 1.0, "traditional"),
        ]
        assert mean_gain(samples) == pytest.approx(1.6)
        assert gain_cdf(samples).evaluate(1.5) == pytest.approx(0.5)

    def test_gain_cdf_empty(self):
        with pytest.raises(ConfigurationError):
            gain_cdf([])


class TestReports:
    def test_format_cdf_table(self):
        cdf = EmpiricalCDF.from_samples([1.0, 2.0, 3.0])
        text = format_cdf_table(cdf, [1.0, 2.0, 3.0], label="gain")
        assert "gain" in text
        assert "1.000" in text

    def test_report_result_tables_and_text(self):
        anc = [_run(delivered=10, air=500, bers=(0.01, 0.02)), _run(delivered=10, air=600)]
        traditional = [
            _run("traditional", delivered=10, air=1000),
            _run("traditional", delivered=10, air=1000),
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
