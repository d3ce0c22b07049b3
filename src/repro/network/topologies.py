"""Factories for the paper's three canonical topologies.

* :func:`alice_bob_topology` — Fig. 1: Alice and Bob exchanging packets
  through a router, out of each other's radio range.
* :func:`chain_topology` — Fig. 2: a single flow over a 3-hop chain
  N1 → N2 → N3 → N4.
* :func:`x_topology` — Fig. 11: two flows N1 → N4 and N3 → N2 crossing at
  the centre router N5, with the destinations overhearing the senders.

Each factory draws per-link attenuations, phase offsets, residual
carrier-frequency offsets and phase drift from the link statistics below,
with the noise floor set by a :class:`ChannelConditions` SNR, so repeated
runs with different seeds reproduce the run-to-run variability the paper's
CDFs capture.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from repro.channel.link import Link
from repro.constants import DEFAULT_TX_AMPLITUDE
from repro.exceptions import ConfigurationError
from repro.network.topology import Topology
from repro.utils.db import db_to_power_ratio

#: Conventional node identifiers used by the factories and the protocols.
ALICE = 1
BOB = 2
RELAY = 0

N1, N2, N3, N4, N5 = 1, 2, 3, 4, 5


#: Average amplitude gain of a main link.
MEAN_ATTENUATION = 0.8
#: Half-width of the uniform jitter applied to each link's attenuation.
ATTENUATION_JITTER = 0.08
#: Largest magnitude of a link's residual carrier frequency offset
#: (radians per sample); each link draws one between a quarter of it and it.
MAX_CFO = 0.04
#: Largest standard deviation (radians per sample) of a link's random-walk
#: phase noise: the slow channel variation §6 cites as the reason naive
#: signal subtraction is fragile, and the dominant source of residual BER
#: for ANC decoding.
MAX_PHASE_DRIFT = 0.008
#: Mean amplitude gain of the "X" topology's overhearing links (senders are
#: further from the opposite destinations); also the mesh gain at the edge
#: of the radio range.
OVERHEAR_ATTENUATION = 0.60
#: Mean amplitude gain of the "X" topology's weak cross-interference links.
CROSS_INTERFERENCE_ATTENUATION = 0.14


@dataclass(frozen=True)
class ChannelConditions:
    """The radio environment of a testbed run.

    Everything but the SNR is a module constant: the link statistics
    above and the equal transmit amplitude
    :data:`~repro.constants.DEFAULT_TX_AMPLITUDE` (§8).

    Attributes
    ----------
    snr_db:
        Per-hop signal-to-noise ratio for the *main* links (the paper's
        testbed operates in the 20-40 dB WLAN regime, §8).
    """

    snr_db: float = 30.0

    @property
    def noise_power(self) -> float:
        """Receiver noise power implied by the main-link SNR."""
        received_power = (MEAN_ATTENUATION * DEFAULT_TX_AMPLITUDE) ** 2
        return received_power / db_to_power_ratio(self.snr_db)


def _draw_link(
    conditions: ChannelConditions,
    rng: np.random.Generator,
    attenuation: float = MEAN_ATTENUATION,
) -> Link:
    """Draw one directed link's parameters around a mean ``attenuation``."""
    jitter = rng.uniform(-ATTENUATION_JITTER, ATTENUATION_JITTER)
    drawn = float(np.clip(attenuation + jitter, 0.05, 1.5))
    phase = float(rng.uniform(-np.pi, np.pi))
    cfo_magnitude = float(rng.uniform(0.25 * MAX_CFO, MAX_CFO))
    cfo = cfo_magnitude * (1.0 if rng.uniform() < 0.5 else -1.0)
    phase_drift = float(rng.uniform(0.0, MAX_PHASE_DRIFT))
    return Link(
        attenuation=drawn,
        phase_shift=phase,
        frequency_offset=cfo,
        phase_drift=phase_drift,
        noise_power=conditions.noise_power,
    )


def alice_bob_topology(
    conditions: ChannelConditions,
    rng: np.random.Generator,
) -> Topology:
    """Fig. 1: Alice (1) and Bob (2) connected only through the router (0)."""
    topology = Topology()
    for node in (RELAY, ALICE, BOB):
        topology.add_node(node, noise_power=conditions.noise_power)
    topology.add_symmetric_link(
        ALICE, RELAY, _draw_link(conditions, rng), _draw_link(conditions, rng)
    )
    topology.add_symmetric_link(
        BOB, RELAY, _draw_link(conditions, rng), _draw_link(conditions, rng)
    )
    return topology


def chain_topology(
    conditions: ChannelConditions,
    rng: np.random.Generator,
    hops: int = 3,
) -> Topology:
    """Fig. 2: a linear chain N1 -> N2 -> ... with ``hops`` hops (default 3).

    Adjacent nodes are in range of each other; nodes two or more hops apart
    are not, which is what creates both the hidden-terminal problem and the
    ANC opportunity at the middle node.
    """
    if hops < 2:
        raise ConfigurationError("a chain needs at least 2 hops")
    topology = Topology()
    node_ids = list(range(1, hops + 2))
    for node in node_ids:
        topology.add_node(node, noise_power=conditions.noise_power)
    for a, b in zip(node_ids[:-1], node_ids[1:]):
        topology.add_symmetric_link(
            a, b, _draw_link(conditions, rng), _draw_link(conditions, rng)
        )
    return topology


def x_topology(
    conditions: ChannelConditions,
    rng: np.random.Generator,
) -> Topology:
    """Fig. 11: flows N1 -> N4 and N3 -> N2 crossing at the router N5.

    The destinations overhear the senders over weaker links (N1 -> N2 and
    N3 -> N4); in addition each sender reaches the *opposite* destination
    over a much weaker cross link, which is the interference that
    occasionally corrupts overhearing when both senders transmit at once
    (§11.5).
    """
    topology = Topology()
    for node in (N1, N2, N3, N4, N5):
        topology.add_node(node, noise_power=conditions.noise_power)
    # Main links to/from the central router.
    for endpoint in (N1, N2, N3, N4):
        topology.add_symmetric_link(
            endpoint, N5, _draw_link(conditions, rng), _draw_link(conditions, rng)
        )
    # Overhearing links: each destination hears "its" sender.  These are
    # radio propagation only — routing must still go through the router.
    topology.add_link(
        N1, N2,
        _draw_link(conditions, rng, attenuation=OVERHEAR_ATTENUATION),
        routable=False,
    )
    topology.add_link(
        N3, N4,
        _draw_link(conditions, rng, attenuation=OVERHEAR_ATTENUATION),
        routable=False,
    )
    # Weak cross links: each sender also faintly reaches the other
    # destination, creating interference during simultaneous transmissions.
    topology.add_link(
        N1, N4,
        _draw_link(conditions, rng, attenuation=CROSS_INTERFERENCE_ATTENUATION),
        routable=False,
    )
    topology.add_link(
        N3, N2,
        _draw_link(conditions, rng, attenuation=CROSS_INTERFERENCE_ATTENUATION),
        routable=False,
    )
    return topology
