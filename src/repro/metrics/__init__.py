"""Evaluation metrics (§11.2).

The paper reports four metrics: network throughput, gain over the
traditional approach, gain over COPE, and the bit error rate of
ANC-decoded packets.  Throughput is a property of each per-run
:class:`~repro.protocols.base.RunResult`; this package pairs those runs
into per-run gains, builds the BER CDFs the figures plot, and assembles
the per-run, gain and BER tables of a testbed figure's
:class:`~repro.results.model.ExperimentResult`
(:func:`~repro.metrics.report.report_result`); the text of those tables
is formatted by :func:`repro.results.render.render_text`.
"""

from repro.metrics.ber import ber_cdf, payload_ber_samples
from repro.metrics.gain import GainSample, pair_runs

__all__ = [
    "GainSample",
    "ber_cdf",
    "pair_runs",
    "payload_ber_samples",
]
