"""The result tables of a testbed figure (Figs. 9, 10 and 12).

Each testbed figure runs ANC and one or two baselines over the same
per-run topology draws and reports the same three tables:

* ``runs`` — one summary row per (scheme, run);
* ``gains`` — the per-run throughput gain of ANC over each baseline (the
  Figs. 9a / 10a / 12a CDFs).  The i-th runs of two schemes share the
  topology draw and the traffic, which is what "two consecutive runs"
  means in §11.2;
* ``ber`` — the sorted per-packet BER of the ANC decodes (Figs. 9b / 10b /
  12b), lost packets included at the 0.5 the protocols record for them,
  which gives the "X" topology's BER CDF its heavy tail (Fig. 10b).

:func:`report_result` builds them straight from the protocol runs;
:func:`repro.results.render.render_text` formats them.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.protocols.base import RunResult
from repro.results.model import ExperimentResult, Series, make_result

#: Columns of the per-run table shared by every testbed figure.
RUN_COLUMNS = (
    "run",
    "scheme",
    "topology",
    "throughput",
    "packets_offered",
    "packets_delivered",
    "packets_lost",
    "air_time_samples",
    "slots_used",
    "mean_ber",
    "delivery_ratio",
    "mean_overlap",
    "redundancy_overhead",
)

#: Columns of the per-run gain table.
GAIN_COLUMNS = ("baseline", "run", "gain", "anc_throughput", "baseline_throughput")


def report_result(
    name: str,
    title: str,
    config,
    anc_runs: Sequence[RunResult],
    baseline_runs: Mapping[str, Sequence[RunResult]],
) -> ExperimentResult:
    """Build a testbed figure's result from its paired protocol runs.

    ``name`` is the registry name, ``title`` the report heading;
    ``baseline_runs`` maps each baseline scheme to its runs, paired by
    index with ``anc_runs``.
    """
    scheme_runs = {"anc": anc_runs, **baseline_runs}
    run_rows = []
    for scheme, runs in scheme_runs.items():
        for index, run in enumerate(runs):
            record = run.to_record()
            run_rows.append((index, scheme) + tuple(record[c] for c in RUN_COLUMNS[2:]))
    gain_rows = []
    for baseline, runs in baseline_runs.items():
        if not runs or len(runs) != len(anc_runs):
            raise ConfigurationError(f"{baseline} needs one run per ANC run")
        for index, (anc, base) in enumerate(zip(anc_runs, runs)):
            if base.throughput <= 0:
                raise ConfigurationError(
                    f"{baseline} run {index} has non-positive throughput"
                )
            gain_rows.append(
                (baseline, index, anc.throughput / base.throughput, anc.throughput, base.throughput)
            )
    bers = sorted(float(ber) for run in anc_runs for ber in run.packet_bers)
    if not bers:
        raise ConfigurationError("the ANC runs hold no BER samples")
    return make_result(
        name,
        "figure",
        config,
        "report",
        [
            Series("runs", RUN_COLUMNS, tuple(run_rows)),
            Series("gains", GAIN_COLUMNS, tuple(gain_rows)),
            Series("ber", ("ber",), tuple((ber,) for ber in bers)),
        ],
        {
            "mean_overlap": float(np.mean([r.mean_overlap for r in anc_runs])),
            "anc_delivery_ratio": float(np.mean([r.delivery_ratio for r in anc_runs])),
        },
        title=title,
        baselines=list(baseline_runs),
    )
