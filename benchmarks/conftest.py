"""Shared helpers for the benchmark / figure-reproduction harness.

Every benchmark regenerates one of the paper's evaluation figures (or an
ablation) and writes a plain-text rendering of the regenerated rows/series
to ``benchmarks/results/`` so the numbers can be inspected after the run,
alongside asserting the qualitative claims the paper makes about the
figure (who wins, by roughly what factor, where crossovers fall).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments.config import ExperimentConfig
from repro.results.model import ExperimentResult
from repro.results.render import gain_samples
from repro.utils.cdf import EmpiricalCDF

RESULTS_DIR = Path(__file__).parent / "results"

#: The checked-in reference outputs under ``benchmarks/results/`` were
#: generated at the default benchmark size; regression against them is
#: only meaningful when the size has not been overridden via environment.
IS_DEFAULT_BENCH_SIZE = (
    "ANC_BENCH_RUNS" not in os.environ and "ANC_BENCH_PACKETS" not in os.environ
)


def write_result(name: str, text: str, check_reference: bool = True) -> Path:
    """Persist a regenerated figure's text rendering under benchmarks/results/.

    When a reference rendering is already checked in for ``name`` and the
    benchmark runs at the default size, the regenerated text must match it
    byte-for-byte — every figure runner is seeded, so any drift means a
    code change altered the reproduced numbers (e.g. an engine refactor
    that was supposed to be bit-identical was not).  On a mismatch the
    checked-in reference is left untouched (so the guard keeps failing on
    re-runs rather than comparing the drifted text against itself) and the
    regenerated rendering is written to ``<name>.rejected.txt`` for
    inspection.  After an *intentional* change, regenerate the references
    with ``ANC_UPDATE_RESULTS=1``.  Pass ``check_reference=False`` for
    renderings that are expected to change (e.g. timings).
    """
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    update = os.environ.get("ANC_UPDATE_RESULTS") == "1"
    if (
        check_reference
        and IS_DEFAULT_BENCH_SIZE
        and not update
        and path.is_file()
        and path.read_text() != text + "\n"
    ):
        rejected = RESULTS_DIR / f"{name}.rejected.txt"
        rejected.write_text(text + "\n")
        raise AssertionError(
            f"{name} no longer matches its checked-in reference rendering: "
            "the seeded experiment output drifted (regenerated text kept at "
            f"{rejected}; rerun with ANC_UPDATE_RESULTS=1 if the change is "
            "intentional)"
        )
    path.write_text(text + "\n")
    return path


def mean_gain(result: ExperimentResult, baseline: str) -> float:
    """Mean per-run throughput gain over ``baseline`` (a figure's ``gains`` table)."""
    gains = gain_samples(result, baseline)
    return sum(gains) / len(gains)


def gain_cdf(result: ExperimentResult, baseline: str) -> EmpiricalCDF:
    """CDF of the per-run gains over ``baseline`` (Figs. 9a / 10a / 12a)."""
    return EmpiricalCDF.from_samples(gain_samples(result, baseline))


def ber_cdf(result: ExperimentResult) -> EmpiricalCDF:
    """CDF of the per-packet ANC BER (a figure's ``ber`` table)."""
    return EmpiricalCDF.from_samples(result.get_series("ber").column("ber"))


@pytest.fixture(scope="session")
def bench_config() -> ExperimentConfig:
    """Experiment size used by the figure benchmarks.

    40 runs (like the paper) with a reduced per-run packet count so the
    whole harness completes in minutes; set ``ANC_BENCH_PACKETS`` /
    ``ANC_BENCH_RUNS`` to scale it up towards the paper's 1000-packet runs.
    """
    runs = int(os.environ.get("ANC_BENCH_RUNS", "20"))
    packets = int(os.environ.get("ANC_BENCH_PACKETS", "10"))
    return ExperimentConfig(runs=runs, packets_per_run=packets, seed=20070823)
