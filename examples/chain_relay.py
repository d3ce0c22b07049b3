#!/usr/bin/env python
"""Chain topology: ANC for a single unidirectional flow (Fig. 2 / Fig. 12).

A packet travels N1 -> N2 -> N3 -> N4.  Traditional routing needs three
slots per packet because N1's and N3's transmissions collide at N2.  With
analog network coding the collision is *scheduled on purpose*: N2 already
knows the packet N3 is forwarding (it forwarded it one slot earlier), so it
cancels that packet's signal and decodes N1's new packet — the hidden
terminal becomes harmless and every packet needs only two slots.

Run with::

    python examples/chain_relay.py [runs] [packets_per_run]
"""

import sys

from repro import api
from repro.experiments.config import ExperimentConfig
from repro.results import render_text


def main() -> None:
    runs = int(sys.argv[1]) if len(sys.argv) > 1 else 8
    packets = int(sys.argv[2]) if len(sys.argv) > 2 else 12
    config = ExperimentConfig(runs=runs, packets_per_run=packets, seed=12)
    print(f"running {runs} chain-topology runs, {packets} packets per run ...")
    result = api.run("chain", config=config)
    print(render_text(result))
    print()
    gains = result.get_series("gains").column("gain")
    bers = result.get_series("ber").column("ber")
    print(f"mean gain over traditional routing: {sum(gains) / len(gains):.2f}x "
          f"(paper: 1.36x, theoretical ceiling 1.5x)")
    print(f"mean BER at the decoding node N2: {sum(bers) / len(bers):.4f} "
          "(paper: ~1%, lower than Alice-Bob because there is no "
          "amplify-and-forward noise)")


if __name__ == "__main__":
    main()
