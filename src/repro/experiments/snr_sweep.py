"""Extension experiment: ANC behaviour across operating SNR.

The paper's capacity analysis (Fig. 7) predicts that analog network coding
loses to routing at low SNR — the relay amplifies noise along with the
signals — and approaches a 2x gain at high SNR.  The testbed evaluation
only operates in the WLAN regime (20-40 dB).  This extension experiment
closes that gap empirically: it sweeps the operating SNR of the simulated
Alice-Bob testbed and measures both the end-to-end throughput gain and the
BER of ANC decoding, so the measured crossover can be compared against the
theoretical one.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.capacity.bounds import capacity_gain
from repro.experiments.alice_bob import ALICE_BOB
from repro.experiments.config import ExperimentConfig
from repro.experiments.engine import ExperimentEngine, default_engine
from repro.experiments.testbed import Streams, relay_exchange_trial
from repro.results.model import ExperimentResult, Series, make_result


@dataclass(frozen=True)
class SNRPoint:
    """Measured ANC behaviour at one operating SNR."""

    snr_db: float
    gain_over_traditional: float
    mean_ber: float
    delivery_ratio: float
    theoretical_gain: float


def run_snr_point_trial(
    cfg: ExperimentConfig,
    point_index: int,
    snr_db_values: Tuple[float, ...],
    runs_per_point: int,
) -> SNRPoint:
    """Evaluate one operating-SNR grid point (one engine trial).

    Picklable so the sweep can fan points out across process workers;
    every run's random stream is keyed by ``point_index`` and the run
    number alone, so the point's result is independent of execution order.
    """
    index = point_index
    snr_db = float(snr_db_values[point_index])
    gains: List[float] = []
    bers: List[float] = []
    delivery: List[float] = []
    for run in range(runs_per_point):
        # The grid point fixes the SNR, so the topology stream draws no
        # overlap: the ANC scheme draws its own first.
        runs = relay_exchange_trial(
            cfg, 5000 + 100 * index + run, ALICE_BOB, Streams(40, 41, None, 42), snr_db=snr_db
        )
        traditional, anc = runs["traditional"], runs["anc"]
        gains.append(anc.throughput / traditional.throughput)
        decoded = [b for b in anc.packet_bers if b < 0.5]
        bers.append(float(np.mean(decoded)) if decoded else 0.5)
        delivery.append(anc.delivery_ratio)
    return SNRPoint(
        snr_db=float(snr_db),
        gain_over_traditional=float(np.mean(gains)),
        mean_ber=float(np.mean(bers)),
        delivery_ratio=float(np.mean(delivery)),
        theoretical_gain=float(capacity_gain(float(snr_db))),
    )


def snr_points(
    config: ExperimentConfig,
    engine: Optional[ExperimentEngine] = None,
    snr_db_values: Sequence[float] = (16.0, 20.0, 24.0, 28.0, 32.0, 36.0),
    runs_per_point: int = 2,
) -> List[SNRPoint]:
    """Measure throughput gain and BER of ANC at each operating SNR of a grid.

    Parameters
    ----------
    config:
        Supplies payload size, per-run packet counts, overlap statistics
        and the master seed.
    engine:
        How the grid points execute (serial, parallel, resumed from a
        disk cache); the points are identical either way.
    snr_db_values:
        Operating SNRs to evaluate.  Values much below ~14 dB make packet
        detection itself unreliable, mirroring how real 802.11 receivers
        cannot associate below ~5-10 dB (§8).
    runs_per_point:
        Independent topology draws averaged per SNR value.
    """
    params = {
        "snr_db_values": tuple(float(v) for v in snr_db_values),
        "runs_per_point": int(runs_per_point),
    }
    return default_engine(engine).map(
        "extension_snr_sweep",
        run_snr_point_trial,
        config,
        range(len(params["snr_db_values"])),
        params=params,
    )


def run_snr_sweep(
    config: Optional[ExperimentConfig] = None,
    engine: Optional[ExperimentEngine] = None,
    quick: bool = False,
) -> ExperimentResult:
    """Run the SNR sweep and return its ``points`` table.

    The table has one row per :class:`SNRPoint`, its fields as columns.
    ``quick`` is unused (the grid is fixed).
    """
    cfg = config if config is not None else ExperimentConfig()
    table = Series(
        "points",
        tuple(f.name for f in fields(SNRPoint)),
        tuple(astuple(p) for p in snr_points(cfg, engine)),
    )
    return make_result("snr", "figure", cfg, "snr", [table], params={})
