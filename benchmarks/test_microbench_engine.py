"""Microbenchmark of the parallel experiment engine.

Two measurements:

* the engine's own dispatch overhead (serial map over trivial trials) —
  this must stay negligible next to a real trial's cost, since every
  figure runner now routes through :meth:`ExperimentEngine.map`;
* the wall-clock speedup of fanning the Fig. 9 Alice-Bob Monte-Carlo
  sweep out across 4 process workers.  Trials are embarrassingly parallel
  (per-trial seeded RNG substreams, no shared state), so the speedup
  should be near-linear; the test asserts >= 2.5x on 4 workers and that
  the parallel report is bit-identical to the serial one.  It is skipped
  on machines with fewer than 4 cores, where the hardware cannot exhibit
  the speedup (the bit-identity guarantee is still covered for 2 workers
  by ``tests/experiments/test_engine.py``).

Results are written to ``benchmarks/results/microbench_engine.txt``.
"""

from __future__ import annotations

import os
import time

import pytest

from conftest import write_result

from repro.experiments.alice_bob import run_alice_bob_experiment
from repro.experiments.config import ExperimentConfig
from repro.experiments.engine import ExperimentEngine


def _noop_trial(cfg: ExperimentConfig, key: int) -> int:
    """A trial with negligible cost, to expose pure engine overhead."""
    return key


def test_engine_dispatch_overhead(benchmark):
    """Serial engine dispatch must cost well under a millisecond per trial."""
    engine = ExperimentEngine()
    cfg = ExperimentConfig.quick()
    results = benchmark(engine.map, "microbench_noop", _noop_trial, cfg, range(256))
    assert results == list(range(256))
    per_trial = benchmark.stats.stats.mean / 256
    assert per_trial < 1e-3, f"engine dispatch overhead {per_trial * 1e6:.0f}us/trial"


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="speedup demonstration needs >= 4 physical cores",
)
@pytest.mark.skipif(
    os.environ.get("CI", "") != "" and os.environ.get("ANC_BENCH_SPEEDUP") != "1",
    reason="wall-clock speedup asserts are unreliable on shared CI runners "
    "(set ANC_BENCH_SPEEDUP=1 to force)",
)
def test_engine_parallel_speedup_alice_bob():
    """With 4 workers the Alice-Bob sweep runs >= 2.5x faster, bit-identically."""
    cfg = ExperimentConfig(runs=8, packets_per_run=4, payload_bits=512, seed=3)

    start = time.perf_counter()
    serial = run_alice_bob_experiment(cfg, engine=ExperimentEngine(workers=1))
    serial_seconds = time.perf_counter() - start

    start = time.perf_counter()
    with ExperimentEngine(workers=4) as engine:
        parallel = run_alice_bob_experiment(cfg, engine=engine)
    parallel_seconds = time.perf_counter() - start

    speedup = serial_seconds / parallel_seconds
    write_result(
        "microbench_engine",
        "\n".join(
            [
                "=== engine microbenchmark: Fig. 9 sweep, 8 trials ===",
                f"serial (workers=1):   {serial_seconds:8.2f} s",
                f"parallel (workers=4): {parallel_seconds:8.2f} s",
                f"speedup:              {speedup:8.2f} x",
            ]
        ),
        check_reference=False,  # timings vary per machine
    )

    assert serial == parallel, "parallel run must be bit-identical"
    assert speedup >= 2.5, f"expected >= 2.5x speedup on 4 workers, got {speedup:.2f}x"
