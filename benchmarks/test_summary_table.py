"""The §11.3 "Summary of Results" bullet list, regenerated as one table.

Paper's headline numbers:
* Alice-Bob: +70 % over traditional, +30 % over COPE, BER ~2-4 %;
* "X" topology: +65 % over traditional, +28 % over COPE;
* chain: +36 % over traditional (COPE not applicable);
* decoding works down to -3 dB SIR.
"""

from conftest import write_result

from repro.experiments.summary import run_summary
from repro.results import render_text


def test_summary_of_results(benchmark, bench_config):
    result = benchmark.pedantic(run_summary, args=(bench_config,), rounds=1, iterations=1)
    write_result("summary_table", render_text(result))
    rows = dict(result.get_series("rows").rows)

    # Every topology shows the paper's ordering: ANC beats both baselines.
    assert rows["alice_bob_gain_over_traditional"] > 1.35
    assert rows["alice_bob_gain_over_cope"] > 1.05
    assert rows["x_gain_over_traditional"] > 1.25
    assert rows["x_gain_over_cope"] > 1.0
    assert rows["chain_gain_over_traditional"] > 1.15
    # The relative ranking of topologies matches the paper: Alice-Bob >= X.
    assert rows["alice_bob_gain_over_traditional"] >= rows["x_gain_over_traditional"] - 0.05
    # BERs are small, and the chain's is the smallest.
    assert rows["alice_bob_mean_ber"] < 0.1
    assert rows["chain_mean_ber"] <= rows["alice_bob_mean_ber"] + 1e-9
    # Decoding still works at -3 dB SIR.
    assert rows["ber_at_minus3db_sir"] < 0.05
