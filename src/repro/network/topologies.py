"""Factories for the paper's three canonical topologies.

* :func:`alice_bob_topology` — Fig. 1: Alice and Bob exchanging packets
  through a router, out of each other's radio range.
* :func:`chain_topology` — Fig. 2: a single flow over a 3-hop chain
  N1 → N2 → N3 → N4.
* :func:`x_topology` — Fig. 11: two flows N1 → N4 and N3 → N2 crossing at
  the centre router N5, with the destinations overhearing the senders.

Each factory draws per-link attenuations, phase offsets and residual
carrier-frequency offsets from a :class:`ChannelConditions` description, so
repeated runs with different seeds reproduce the run-to-run variability the
paper's CDFs capture.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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


@dataclass(frozen=True)
class ChannelConditions:
    """Statistical description of the radio environment of a testbed run.

    Attributes
    ----------
    snr_db:
        Per-hop signal-to-noise ratio for the *main* links (the paper's
        testbed operates in the 20-40 dB WLAN regime, §8).
    mean_attenuation:
        Average amplitude gain of a main link.
    attenuation_jitter:
        Half-width of the uniform jitter applied to each link's attenuation.
    max_cfo:
        Maximum magnitude of the residual carrier frequency offset
        (radians per sample) between any transmitter/receiver pair.
    max_phase_drift:
        Maximum standard deviation (radians per sample) of the random-walk
        phase noise of a link's oscillator chain.  This is the slow channel
        variation that §6 cites as the reason naive signal subtraction is
        fragile; it is also the dominant source of residual BER for ANC
        decoding on real radios.
    overhear_attenuation:
        Amplitude gain of the weak "overhearing" cross links in the "X"
        topology (senders are further from the opposite destinations).
    tx_amplitude:
        Transmit amplitude all nodes use (the paper assumes equal powers).
    """

    snr_db: float = 30.0
    mean_attenuation: float = 0.8
    attenuation_jitter: float = 0.08
    max_cfo: float = 0.04
    max_phase_drift: float = 0.008
    overhear_attenuation: float = 0.60
    cross_interference_attenuation: float = 0.14
    tx_amplitude: float = DEFAULT_TX_AMPLITUDE

    def __post_init__(self) -> None:
        """Validate the channel statistics."""
        if self.mean_attenuation <= 0 or self.mean_attenuation > 1.5:
            raise ConfigurationError("mean_attenuation must be in (0, 1.5]")
        if self.attenuation_jitter < 0:
            raise ConfigurationError("attenuation_jitter must be non-negative")
        if self.max_cfo < 0:
            raise ConfigurationError("max_cfo must be non-negative")
        if self.max_phase_drift < 0:
            raise ConfigurationError("max_phase_drift must be non-negative")

    @property
    def noise_power(self) -> float:
        """Receiver noise power implied by the main-link SNR."""
        received_power = (self.mean_attenuation * self.tx_amplitude) ** 2
        return received_power / db_to_power_ratio(self.snr_db)


def _draw_link(
    conditions: ChannelConditions,
    rng: np.random.Generator,
    attenuation: Optional[float] = None,
) -> Link:
    """Draw one directed link's parameters from the channel conditions."""
    base = conditions.mean_attenuation if attenuation is None else attenuation
    jitter = conditions.attenuation_jitter
    drawn = float(np.clip(base + rng.uniform(-jitter, jitter), 0.05, 1.5))
    phase = float(rng.uniform(-np.pi, np.pi))
    cfo_magnitude = float(rng.uniform(0.25 * conditions.max_cfo, conditions.max_cfo))
    cfo = cfo_magnitude * (1.0 if rng.uniform() < 0.5 else -1.0)
    phase_drift = float(rng.uniform(0.0, conditions.max_phase_drift))
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
        _draw_link(conditions, rng, attenuation=conditions.overhear_attenuation),
        routable=False,
    )
    topology.add_link(
        N3, N4,
        _draw_link(conditions, rng, attenuation=conditions.overhear_attenuation),
        routable=False,
    )
    # Weak cross links: each sender also faintly reaches the other
    # destination, creating interference during simultaneous transmissions.
    topology.add_link(
        N1, N4,
        _draw_link(conditions, rng, attenuation=conditions.cross_interference_attenuation),
        routable=False,
    )
    topology.add_link(
        N3, N2,
        _draw_link(conditions, rng, attenuation=conditions.cross_interference_attenuation),
        routable=False,
    )
    return topology
