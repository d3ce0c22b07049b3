"""§8 ordering check on one offered-load cell of the traffic simulation.

Runs the high-load cell of the quick ``offered_load_sweep`` through
:class:`repro.sim.simulation.TrafficSimulation` and asserts the paper's
§8 qualitative claim: at high offered load ANC goodput must exceed
COPE's, COPE's must not fall below traditional relaying's, and ANC must
drop fewer packets than traditional relaying, on the same arrival sample
path.  The seeded goodputs are written to ``sim_offered_load.txt`` and
checked byte-for-byte against the committed rendering.

Speed is measured end to end by ``perfbench/`` (see
``perfbench/README.md``), not here.
"""

from __future__ import annotations

from conftest import write_result

from repro.experiments.config import ExperimentConfig
from repro.experiments.offered_load import run_offered_load_trial

#: The quick-sweep cell at the golden seed's shape.
BENCH_CONFIG = {"runs": 1, "packets_per_run": 2, "payload_bits": 512, "seed": 7}
HIGH_LOAD = 1.2


def test_offered_load_quick_trajectory():
    """Assert §8's ordering at high load and render the seeded goodputs."""
    cfg = ExperimentConfig(**BENCH_CONFIG)
    high = run_offered_load_trial(cfg, (HIGH_LOAD, 0))
    assert high["anc"]["throughput"] > high["cope"]["throughput"], (
        "ANC goodput must beat COPE at high offered load (§8)"
    )
    assert high["cope"]["throughput"] >= high["traditional"]["throughput"], (
        "COPE must not lose to traditional relaying at high offered load (§8); "
        "under full hidden-terminal collapse the two can tie"
    )
    assert high["anc"]["drop_rate"] < high["traditional"]["drop_rate"]

    # The goodput ordering rendered for inspection: fully deterministic
    # (seeded simulation), so the text is regression-checked byte-for-byte.
    lines = [
        f"=== offered_load_sweep quick cell: load {HIGH_LOAD}, seed 7 ===",
        *(
            f"{scheme:12s} goodput {high[scheme]['throughput']:.6e} "
            f"drop_rate {high[scheme]['drop_rate']:.4f}"
            for scheme in ("anc", "cope", "traditional")
        ),
    ]
    write_result("sim_offered_load", "\n".join(lines))
