"""Figure 7: capacity bounds of the two-way relay channel vs SNR.

Paper's claims for this figure:
* the ANC lower bound approaches twice the routing upper bound at high SNR;
* below roughly 8 dB the amplified noise makes ANC worse than routing;
* practical systems operate at 20-40 dB, squarely in the ANC-wins region.
"""

import numpy as np
from conftest import write_result

from repro.experiments.capacity_fig7 import run_capacity_experiment
from repro.results import render_text


def test_fig07_capacity_bounds(benchmark):
    result = benchmark.pedantic(run_capacity_experiment, rounds=1, iterations=1)
    write_result("fig07_capacity", render_text(result))

    curve = result.get_series("curve")

    def gain_at(snr_db):
        return float(np.interp(snr_db, curve.column("snr_db"), curve.column("gain")))

    # Crossover in the high-single-digit dB range (paper: ~8 dB).
    assert 6.0 <= result.scalars["crossover_db"] <= 11.0
    # ANC loses at 5 dB, wins at 20 dB and beyond (and keeps growing).
    assert gain_at(5.0) < 1.0
    assert gain_at(20.0) > 1.3
    assert gain_at(40.0) > 1.65
    # The gain approaches (but never exceeds) 2x at the top of the sweep.
    assert 1.75 <= result.scalars["asymptotic_gain"] < 2.0
