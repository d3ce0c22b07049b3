#!/usr/bin/env python
"""The "X" topology: ANC with overheard side information (Fig. 11 / Fig. 10).

Two flows, N1 -> N4 and N3 -> N2, cross at the router N5.  Unlike the
Alice-Bob case the destinations did not generate the interfering packet —
they *overhear* it while their neighbour transmits, then use the overheard
copy to cancel its signal out of the router's amplified broadcast.

Run with::

    python examples/x_topology_overhearing.py [runs] [packets_per_run]
"""

import sys

from repro import api
from repro.experiments.config import ExperimentConfig
from repro.results import render_text


def main() -> None:
    runs = int(sys.argv[1]) if len(sys.argv) > 1 else 8
    packets = int(sys.argv[2]) if len(sys.argv) > 2 else 10
    config = ExperimentConfig(runs=runs, packets_per_run=packets, seed=23)
    print(f"running {runs} X-topology runs, {packets} packets per flow per run ...")
    result = api.run("x", config=config)
    print(render_text(result))
    print()
    print(f"ANC delivery ratio: {result.scalars['anc_delivery_ratio']:.2%} — "
          "the shortfall is exactly the overhearing failures the paper "
          "blames for the X topology's slightly lower gain (§11.5)")


if __name__ == "__main__":
    main()
