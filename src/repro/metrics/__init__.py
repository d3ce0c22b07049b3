"""Evaluation metrics (§11.2).

The paper reports four metrics: network throughput, gain over the
traditional approach, gain over COPE, and the bit error rate of
ANC-decoded packets.  This package aggregates the per-run
:class:`~repro.protocols.base.RunResult` objects the protocols produce
into those metrics, builds the CDFs the figures plot, and assembles
the per-run, gain and BER tables of a testbed figure's
:class:`~repro.results.model.ExperimentResult`
(:func:`~repro.metrics.report.report_result`); the text of those tables
is formatted by :func:`repro.results.render.render_text`.
"""

from repro.metrics.ber import ber_cdf, packet_ber, payload_ber_samples
from repro.metrics.throughput import network_throughput, throughput_gain
from repro.metrics.gain import GainSample, gain_cdf, pair_runs

__all__ = [
    "GainSample",
    "ber_cdf",
    "gain_cdf",
    "network_throughput",
    "packet_ber",
    "pair_runs",
    "payload_ber_samples",
    "throughput_gain",
]
