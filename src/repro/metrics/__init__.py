"""Evaluation metrics (§11.2).

The paper reports four metrics: network throughput, gain over the
traditional approach, gain over COPE, and the bit error rate of
ANC-decoded packets.  Throughput is a property of each per-run
:class:`~repro.protocols.base.RunResult`;
:func:`~repro.metrics.report.report_result` pairs those runs into per-run
gains and collects the per-packet BERs, building the per-run, gain and
BER tables of a testbed figure's
:class:`~repro.results.model.ExperimentResult`.  The text of those tables
is formatted by :func:`repro.results.render.render_text`.
"""

from repro.metrics.report import report_result

__all__ = ["report_result"]
