"""Figure 12: chain topology with unidirectional traffic.

Paper's claims for this figure:
* ANC gains ~36 % over traditional routing (theoretical maximum 50 %,
  i.e. 3 slots down to 2), in a scenario where COPE does not apply at all;
* the BER at the decoding node N2 (~1 %) is clearly lower than the
  Alice-Bob BER (~4 %) because the collision is decoded right where it is
  first received, without the relay re-amplifying its noise.
"""

from conftest import ber_cdf, mean_gain, write_result

from repro.experiments.alice_bob import run_alice_bob_experiment
from repro.experiments.chain import run_chain_experiment
from repro.results import render_text


def test_fig12_chain(benchmark, bench_config):
    result = benchmark.pedantic(
        run_chain_experiment, args=(bench_config,), rounds=1, iterations=1
    )
    write_result("fig12_chain", render_text(result))

    gain = mean_gain(result, "traditional")
    # Gain between ~1.2x and the 1.5x theoretical ceiling (paper: 1.36x).
    assert 1.15 < gain < 1.5
    # COPE genuinely does not apply to a single unidirectional flow.
    assert result.meta["baselines"] == ["traditional"]
    # Chain BER is lower than the Alice-Bob BER under the same config.
    alice_bob = run_alice_bob_experiment(bench_config)
    assert ber_cdf(result).mean <= ber_cdf(alice_bob).mean
    assert ber_cdf(result).median < 0.01
    assert result.scalars["anc_delivery_ratio"] > 0.9
