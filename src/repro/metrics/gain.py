"""Per-run throughput gains and their CDFs.

Figures 9(a), 10(a) and 12(a) plot the CDF, across testbed runs, of the
ratio of ANC's network throughput to a baseline's throughput in the same
run.  :func:`pair_runs` pairs up the per-run results of two schemes (same
topology draw, same traffic) into the per-run gain samples those CDFs are
drawn from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.exceptions import ConfigurationError
from repro.protocols.base import RunResult


@dataclass(frozen=True)
class GainSample:
    """One run's throughput gain of a scheme over a baseline."""

    run_index: int
    gain: float
    anc_throughput: float
    baseline_throughput: float


def pair_runs(
    anc_runs: Sequence[RunResult],
    baseline_runs: Sequence[RunResult],
) -> List[GainSample]:
    """Pair per-run results of ANC and a baseline and compute per-run gains.

    The two sequences must come from the same experiment loop so that the
    i-th entries share the topology draw and traffic pattern — that is what
    "two consecutive runs" means in §11.2.
    """
    if len(anc_runs) != len(baseline_runs):
        raise ConfigurationError("paired run sequences must have equal length")
    if not anc_runs:
        raise ConfigurationError("at least one run pair is required")
    samples: List[GainSample] = []
    for index, (anc, baseline) in enumerate(zip(anc_runs, baseline_runs)):
        baseline_throughput = baseline.throughput
        if baseline_throughput <= 0:
            raise ConfigurationError(f"baseline run {index} has non-positive throughput")
        samples.append(
            GainSample(
                run_index=index,
                gain=anc.throughput / baseline_throughput,
                anc_throughput=anc.throughput,
                baseline_throughput=baseline_throughput,
            )
        )
    return samples

