"""Wireless channel models.

The paper approximates the effect of a wireless channel on a narrowband
signal as an attenuation plus a phase shift (§5.3, §6), with additive white
Gaussian noise at the receiver and an unknown time offset between
unsynchronised transmitters.  A :class:`Link` holds one directed hop's
parameters and :meth:`Link.distort` applies them; :func:`superpose` is the
one model of concurrent transmissions arriving at one receiver, and the
one place receiver noise is drawn.

Beyond the baseline flat channel, the *impairment subsystem* models the
real-channel imperfections the paper's decoding strategy leans on:
per-sender carrier frequency offset (the §6 mechanism) and stochastic
Rayleigh/Rician fading (:mod:`repro.channel.fading`), both declared
through one :class:`ImpairmentConfig` and stamped onto a topology with
:func:`apply_impairments`.  Geometry-driven path loss is the link-gain
law of :func:`repro.network.generator.generate_geometric_mesh`.  See
``docs/CHANNELS.md`` for the link fields and the order ``distort``
applies them in.
"""

from repro.channel.fading import FADING_KINDS, FADING_MODES, fading_gains
from repro.channel.link import Link
from repro.channel.relay import amplify_and_forward
from repro.channel.impairments import (
    IMPAIRMENT_STREAM,
    ImpairmentConfig,
    apply_impairments,
    impair_link,
)
from repro.channel.interference import OverlapModel, superpose

__all__ = [
    "FADING_KINDS",
    "FADING_MODES",
    "IMPAIRMENT_STREAM",
    "ImpairmentConfig",
    "Link",
    "OverlapModel",
    "amplify_and_forward",
    "apply_impairments",
    "fading_gains",
    "impair_link",
    "superpose",
]
