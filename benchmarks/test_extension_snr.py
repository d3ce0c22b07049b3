"""Extension: measured ANC gain and BER across operating SNR.

Not a figure from the paper, but the empirical counterpart of its Fig. 7
analysis: the capacity bounds predict ANC's advantage grows with SNR and
vanishes at low SNR.  This benchmark sweeps the simulated testbed's
operating SNR and checks that the measured behaviour is consistent with
the prediction inside the practical operating range.
"""

from conftest import write_result

from repro.experiments.config import ExperimentConfig
from repro.experiments.snr_sweep import run_snr_sweep
from repro.results import render_text


def test_extension_gain_and_ber_vs_snr(benchmark, bench_config):
    config = ExperimentConfig(
        runs=bench_config.runs,
        packets_per_run=max(4, bench_config.packets_per_run // 2),
        payload_bits=bench_config.payload_bits,
        seed=bench_config.seed,
    )
    result = benchmark.pedantic(run_snr_sweep, args=(config,), rounds=1, iterations=1)
    write_result("extension_snr_sweep", render_text(result))

    points = result.get_series("points").records()
    by_snr = {p["snr_db"]: p for p in points}
    # ANC wins throughout the practical operating range the paper targets.
    assert all(p["gain_over_traditional"] > 1.0 for p in points if p["snr_db"] >= 20.0)
    # BER falls (or stays negligible) as SNR rises.
    assert by_snr[36.0]["mean_ber"] <= by_snr[16.0]["mean_ber"] + 1e-9
    # Measured gains stay below the information-theoretic 2x ceiling.
    assert all(p["gain_over_traditional"] < 2.0 for p in points)
