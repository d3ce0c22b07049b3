"""Wireless channel models.

The paper approximates the effect of a wireless channel on a narrowband
signal as an attenuation plus a phase shift (§5.3, §6), with additive white
Gaussian noise at the receiver and an unknown time offset between
unsynchronised transmitters.  This package provides those effects as
composable channel stages, a :class:`Link` that bundles the per-hop
parameters, and :func:`superpose`, the one model of concurrent
transmissions arriving at one receiver.

Beyond the baseline flat channel, the *impairment subsystem* models the
real-channel imperfections the paper's decoding strategy leans on:
per-sender carrier frequency offset (:mod:`repro.channel.cfo`, the §6
mechanism), stochastic Rayleigh/Rician fading
(:mod:`repro.channel.fading`) and geometry-driven path loss
(:mod:`repro.channel.pathloss`), all declared through one
:class:`ImpairmentConfig` and stamped onto a topology with
:func:`apply_impairments`.  See ``docs/CHANNELS.md`` for the stage
catalogue and composition order.
"""

from repro.channel.model import Channel, ChannelChain
from repro.channel.flat import FlatFadingChannel
from repro.channel.awgn import AWGNChannel
from repro.channel.cfo import CarrierFrequencyOffsetChannel
from repro.channel.delay import DelayChannel
from repro.channel.fading import (
    FADING_KINDS,
    FADING_MODES,
    FadingChannel,
    RayleighFadingChannel,
    RicianFadingChannel,
    make_fading_channel,
)
from repro.channel.link import Link
from repro.channel.pathloss import PathLossModel
from repro.channel.relay import AmplifyAndForwardRelayChannel
from repro.channel.impairments import (
    IMPAIRMENT_STREAM,
    ImpairmentConfig,
    apply_impairments,
    impair_link,
)
from repro.channel.interference import OverlapModel, superpose

__all__ = [
    "AWGNChannel",
    "AmplifyAndForwardRelayChannel",
    "CarrierFrequencyOffsetChannel",
    "Channel",
    "ChannelChain",
    "DelayChannel",
    "FADING_KINDS",
    "FADING_MODES",
    "FadingChannel",
    "FlatFadingChannel",
    "IMPAIRMENT_STREAM",
    "ImpairmentConfig",
    "Link",
    "OverlapModel",
    "PathLossModel",
    "RayleighFadingChannel",
    "RicianFadingChannel",
    "apply_impairments",
    "impair_link",
    "make_fading_channel",
    "superpose",
]
