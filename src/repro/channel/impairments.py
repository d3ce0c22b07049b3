"""The impairment subsystem: one declarative config, applied to a topology.

:class:`ImpairmentConfig` describes the *optional* real-channel
imperfections an experiment wants on top of the baseline flat channel —
per-sender carrier frequency offset (§6's exploited imperfection) and
stochastic Rayleigh/Rician fading (§6's "they do vary with time") — and
:func:`apply_impairments` stamps them onto every
:class:`~repro.channel.link.Link` of an already-built topology, as the
link's ``sender_cfo`` and ``fading*`` fields.  :meth:`Link.distort
<repro.channel.link.Link.distort>` applies them in the order documented in
``docs/CHANNELS.md``:

1. the sender's oscillator ramp (``sender_cfo``),
2. the deterministic flat path response,
3. the stochastic fade (:mod:`repro.channel.fading`).

Receiver noise comes after, once per receiver, in
:func:`~repro.channel.interference.superpose`.

Everything defaults to *off*, and a disabled config is a strict no-op: it
touches no link and consumes **zero** random draws, which is what keeps
the pre-impairment figure references and golden fixtures byte-identical
(and the engine's cache digests stable — see
:meth:`repro.experiments.config.ExperimentConfig.snapshot`).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Sequence

import numpy as np

from repro.channel.fading import check_fading
from repro.exceptions import ConfigurationError

if TYPE_CHECKING:  # import at type-check time only: topology imports Link
    from repro.channel.link import Link
    from repro.network.topology import Topology

#: Dedicated :meth:`ExperimentConfig.run_rng` stream for impairment draws,
#: disjoint from every stream any trial already uses (the figure trials
#: occupy 0–3 / 10–13 / 20–22, the SIR/SNR sweeps 30 / 40–42, and the
#: scenario families live at 400+).
IMPAIRMENT_STREAM = 61

#: Rician K-factor (dB) of an :class:`ImpairmentConfig` that sets none.
DEFAULT_RICIAN_K_DB = 6.0


@dataclass(frozen=True)
class ImpairmentConfig:
    """Optional channel impairments, declared as data.

    Attributes
    ----------
    sender_cfo:
        Magnitude (radians per sample, ``>= 0``) of the per-sender
        oscillator offset.  Sender offsets are spread linearly from
        ``+sender_cfo`` down to ``-sender_cfo`` in node-id order, so any
        two distinct radios get *distinct* oscillators — the relative
        offset §6 exploits is never zero for a colliding pair, whatever
        the topology (see :meth:`sender_offsets`).  ``0`` disables it.
    fading:
        Stochastic fading family applied to every link: ``"none"``,
        ``"rayleigh"`` or ``"rician"``.
    rician_k_db:
        Rician K-factor in dB.  Only Rician fading reads it, so any other
        family rejects a value away from :data:`DEFAULT_RICIAN_K_DB`.
    fading_mode:
        ``"block"`` (one fade per packet) or ``"drift"`` (in-packet
        Gauss–Markov evolution) — see :mod:`repro.channel.fading`.
    fading_doppler:
        Normalised fade rate for ``fading_mode="drift"``; must be 0 in
        block mode.
    """

    sender_cfo: float = 0.0
    fading: str = "none"
    rician_k_db: float = DEFAULT_RICIAN_K_DB
    fading_mode: str = "block"
    fading_doppler: float = 0.0

    def __post_init__(self) -> None:
        """Validate the impairment declaration: types first, then ranges."""
        for name in ("sender_cfo", "rician_k_db", "fading_doppler"):
            value = getattr(self, name)
            if (
                isinstance(value, bool)
                or not isinstance(value, numbers.Real)
                or not math.isfinite(value)
            ):
                raise ConfigurationError(f"{name} must be a finite number, got {value!r}")
        for name in ("fading", "fading_mode"):
            value = getattr(self, name)
            if not isinstance(value, str):
                raise ConfigurationError(f"{name} must be a string, got {value!r}")
        if not 0.0 <= self.sender_cfo < np.pi:
            raise ConfigurationError(
                "sender_cfo must lie in [0, pi) radians per sample"
            )
        check_fading(self.fading, self.fading_mode, self.fading_doppler, ConfigurationError)
        if self.rician_k_db != DEFAULT_RICIAN_K_DB and self.fading != "rician":
            raise ConfigurationError(
                f"rician_k_db is read only by Rician fading; set fading='rician' "
                f"or leave rician_k_db at {DEFAULT_RICIAN_K_DB}"
            )

    @property
    def enabled(self) -> bool:
        """Is any impairment active at all?  ``False`` means strict no-op."""
        return self.sender_cfo != 0.0 or self.fading != "none"

    def sender_offsets(self, senders: Sequence[int]) -> Dict[int, float]:
        """Deterministic, pairwise-distinct per-sender oscillator offsets.

        Offsets are spread linearly from ``+sender_cfo`` (first sender in
        the given sorted order) down to ``-sender_cfo`` (last), so every
        pair of distinct radios differs by at least
        ``2·sender_cfo/(n-1)`` — an alternating-sign scheme would hand
        *identical* oscillators to the actually-colliding senders of the
        chain and "X" topologies (nodes 1 and 3), which is exactly the
        phase-locked case the subsystem exists to avoid.  No randomness
        is consumed, so the ``cfo_sweep`` axis stays an exact Δf: in the
        three-node Alice–Bob exchange the two colliding senders differ
        by precisely ``sender_cfo``.
        """
        count = len(senders)
        if count < 2:
            return {sender: self.sender_cfo for sender in senders}
        return {
            sender: self.sender_cfo * (1.0 - 2.0 * index / (count - 1))
            for index, sender in enumerate(senders)
        }


def apply_impairments(
    topology: "Topology",
    impairments: ImpairmentConfig,
    rng: np.random.Generator,
) -> "Topology":
    """Stamp an impairment config onto every link of a topology, in place.

    A disabled config returns immediately without touching the topology
    or drawing from ``rng``.  When enabled:

    * every directed link out of a sender gets that sender's oscillator
      offset (:meth:`ImpairmentConfig.sender_offsets`) as
      ``Link.sender_cfo`` — one oscillator per radio, consistent across
      all of its outgoing links;
    * every link gets the fading family/mode/doppler fields, and Rician
      links additionally draw a per-link LOS phase from ``rng`` (links
      are visited in sorted ``(source, destination)`` order, so the draw
      sequence is deterministic).

    Returns the same topology object for chaining.
    """
    if not impairments.enabled:
        return topology
    offsets = impairments.sender_offsets(topology.nodes)
    for source, destination in sorted(topology.edges()):
        impair_link(
            topology.link(source, destination), offsets[source], impairments, rng
        )
    return topology


def impair_link(
    link: "Link",
    sender_offset: float,
    impairments: ImpairmentConfig,
    rng: np.random.Generator,
) -> "Link":
    """Stamp one link with a sender's oscillator offset and the fading fields.

    The single-link unit behind :func:`apply_impairments`, also used by
    experiments that build :class:`~repro.channel.link.Link` objects by
    hand (the Fig. 13 SIR sweep).  Rician links draw their LOS phase from
    ``rng``; everything else is deterministic.  Returns the same link.
    """
    if impairments.sender_cfo != 0.0:
        link.sender_cfo = sender_offset
    if impairments.fading != "none":
        link.fading = impairments.fading
        link.fading_k_db = impairments.rician_k_db
        link.fading_mode = impairments.fading_mode
        link.fading_doppler = impairments.fading_doppler
        if impairments.fading == "rician":
            link.fading_los_phase = float(rng.uniform(-np.pi, np.pi))
    return link
