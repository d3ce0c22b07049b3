"""Bit-error-rate metrics.

The paper's BER metric (§11.2) is the fraction of erroneous bits in a
packet decoded from an interfered signal, computed against the payload
that was actually sent.  Figures 9(b), 10(b), 12(b) and 13 are CDFs or
curves of that per-packet quantity.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.exceptions import ConfigurationError
from repro.protocols.base import RunResult
from repro.utils.cdf import EmpiricalCDF


def payload_ber_samples(runs: Iterable[RunResult], include_losses: bool = True) -> List[float]:
    """Collect every per-packet BER observed across a set of runs.

    Parameters
    ----------
    runs:
        Protocol run results (typically the ANC runs of an experiment).
    include_losses:
        When ``True`` (default) packets that could not be decoded at all —
        recorded as BER 0.5 by the protocols — are kept, matching how the
        paper's "X"-topology BER CDF shows a heavy tail for packets lost to
        failed overhearing (Fig. 10b).  Set to ``False`` to look only at
        packets the decoder actually produced.
    """
    samples: List[float] = []
    for run in runs:
        for ber in run.packet_bers:
            if include_losses or ber < 0.5:
                samples.append(float(ber))
    return samples


def ber_cdf(runs: Iterable[RunResult], include_losses: bool = True) -> EmpiricalCDF:
    """Empirical CDF of per-packet BER across runs (Figs. 9b / 10b / 12b)."""
    samples = payload_ber_samples(runs, include_losses=include_losses)
    if not samples:
        raise ConfigurationError("no BER samples found in the provided runs")
    return EmpiricalCDF.from_samples(samples)

