"""Amplify-and-forward relay node.

In the Alice–Bob and "X" topologies the router never decodes the collided
waveform; it re-amplifies whatever it received — signal, interference and
noise alike — to its transmit power budget and broadcasts it (§2, §7.5).
That noise amplification is why the paper measures a higher BER for the
Alice–Bob topology than for the chain, where the interfered signal is
decoded directly at the node that first hears it (§11.6).
"""

from __future__ import annotations

from repro.channel.relay import amplify_and_forward
from repro.constants import DEFAULT_TX_AMPLITUDE
from repro.node.node import Node
from repro.signal.samples import ComplexSignal


class RelayNode(Node):
    """A node that can rebroadcast received waveforms at its own power."""

    def amplify_and_forward(self, waveform: ComplexSignal) -> ComplexSignal:
        """Rescale a received waveform to this node's transmit power budget.

        The returned waveform (including the relay's received noise) is
        what the relay broadcasts in the next slot.
        """
        return amplify_and_forward(waveform, DEFAULT_TX_AMPLITUDE ** 2)
