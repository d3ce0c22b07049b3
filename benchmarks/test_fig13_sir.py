"""Figure 13: BER of ANC decoding vs signal-to-interference ratio at Alice.

Paper's claims for this figure:
* decoding works even at -3 dB SIR (the wanted signal *weaker* than the
  interference being cancelled) with BER under ~5 %;
* BER falls as SIR rises and is essentially zero once the wanted signal is
  a few dB stronger;
* blind-separation schemes need ~+6 dB SIR, so ANC's reach below 0 dB is
  the differentiator.
"""

from conftest import write_result

from repro.experiments.sir_sweep import run_sir_sweep
from repro.results import render_text


def test_fig13_ber_vs_sir(benchmark, bench_config):
    # Each SIR point simulates packets_per_run collisions (at least 8).
    config = bench_config.with_overrides(
        packets_per_run=max(8, bench_config.packets_per_run)
    )
    result = benchmark.pedantic(run_sir_sweep, args=(config,), rounds=1, iterations=1)
    write_result("fig13_ber_vs_sir", render_text(result))

    by_sir = {p["sir_db"]: p for p in result.get_series("points").records()}
    # Decodes at -3 dB SIR with low BER (paper: < 5 %).
    assert by_sir[-3.0]["mean_ber"] < 0.05
    assert by_sir[-3.0]["decode_failures"] <= 1
    # Essentially error-free once the wanted signal is a few dB stronger.
    assert by_sir[4.0]["mean_ber"] < 0.005
    # High-SIR BER is no worse than the low-SIR BER (the overall trend of
    # the figure: stronger wanted signal, fewer errors).
    assert by_sir[4.0]["mean_ber"] <= by_sir[-3.0]["mean_ber"] + 1e-9
