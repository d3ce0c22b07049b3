#!/usr/bin/env python
"""Alice-Bob testbed comparison: ANC vs COPE vs traditional routing (Fig. 9).

Runs a scaled-down version of the paper's Alice-Bob experiment — several
independent "testbed runs", each with freshly drawn channels, executing the
same bidirectional traffic under all three schemes — and prints the
throughput-gain CDFs and the BER CDF.

Run with::

    python examples/alice_bob_testbed.py [runs] [packets_per_run]
"""

import sys

from repro import api
from repro.experiments.config import ExperimentConfig
from repro.results import render_text


def main() -> None:
    runs = int(sys.argv[1]) if len(sys.argv) > 1 else 10
    packets = int(sys.argv[2]) if len(sys.argv) > 2 else 10
    config = ExperimentConfig(runs=runs, packets_per_run=packets, seed=7)
    print(f"running {runs} Alice-Bob testbed runs, "
          f"{packets} packets per direction per run ...")
    result = api.run("alice-bob", config=config)
    print(render_text(result))
    print()
    print("paper reference points: +70% over traditional, +30% over COPE, "
          "BER mostly below 4%")


if __name__ == "__main__":
    main()
