"""Figure 10: "X" topology — throughput-gain CDFs and BER CDF.

Paper's claims for this figure:
* gains are slightly lower than the Alice-Bob topology (~65 % over
  traditional, ~28 % over COPE) because the destinations must *overhear*
  the packet they later cancel, and overhearing occasionally fails;
* the BER CDF has a heavier tail than Fig. 9(b) — the packets lost to
  failed overhearing.
"""

from conftest import ber_cdf, mean_gain, write_result

from repro.experiments.alice_bob import run_alice_bob_experiment
from repro.experiments.x_topology import run_x_topology_experiment
from repro.results import render_text


def test_fig10_x_topology(benchmark, bench_config):
    result = benchmark.pedantic(
        run_x_topology_experiment, args=(bench_config,), rounds=1, iterations=1
    )
    write_result("fig10_x_topology", render_text(result))

    gain_traditional = mean_gain(result, "traditional")
    gain_cope = mean_gain(result, "cope")

    assert gain_traditional > 1.25
    assert gain_cope > 1.0
    assert gain_traditional > gain_cope

    # Heavier BER tail than the Alice-Bob case: compare against Fig. 9 run
    # with the same configuration.
    alice_bob = run_alice_bob_experiment(bench_config)
    assert ber_cdf(result).quantile(0.99) >= ber_cdf(alice_bob).quantile(0.99)
    # ...but the bulk of decoded packets is still low-BER.
    assert ber_cdf(result).median < 0.02
    # Overhearing failures cost a few percent of deliveries, not most.
    assert 0.75 < result.scalars["anc_delivery_ratio"] <= 1.0
    # Gains remain at or below the Alice-Bob topology's (paper: 65% vs 70%).
    assert gain_traditional <= mean_gain(alice_bob, "traditional") + 0.05
