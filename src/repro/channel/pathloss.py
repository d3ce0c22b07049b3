"""Log-distance path loss: link gains derived from node geometry.

The topology factories historically *hand-set* every link's attenuation
(``mean_attenuation`` plus jitter); the path-loss model derives it from
the node coordinates instead, so generated topologies get geometry-driven
SNR and SIR.  The model is the standard log-distance law

.. math::

    PL(d) = PL(d_0) + 10\\,n\\,\\log_{10}(d / d_0)  \\qquad (d \\ge d_0)

with reference distance ``d_0``, path-loss exponent ``n`` (2 in free
space, 2.7–4 indoors — the paper's testbed is an indoor 802.11-class
deployment, §8) and ``PL(d_0)`` expressed here as the *amplitude* gain at
the reference distance.  Distances at or below ``d_0`` see the reference
gain; the amplitude never falls below ``min_attenuation`` so a generated
:class:`~repro.channel.link.Link` always keeps a positive gain.

:func:`repro.network.generator.generate_geometric_mesh` feeds node
placements through this model, and the ``geometry_mesh`` scenario sweeps
traffic over the resulting meshes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from repro.exceptions import ChannelError

ArrayLike = Union[float, np.ndarray]


@dataclass(frozen=True)
class PathLossModel:
    """Log-distance path loss expressed as an amplitude gain law.

    Attributes
    ----------
    exponent:
        Path-loss exponent ``n`` (power decays as ``d^-n``); 2 is free
        space, 2.7 a typical indoor office value.
    reference_distance:
        Close-in reference distance ``d_0`` (same unit as the node
        coordinates — the generators use unit-square fractions).
    reference_attenuation:
        Amplitude gain at ``d_0`` (the "measured one metre" anchor of the
        log-distance model).
    min_attenuation:
        Floor on the returned amplitude gain; keeps far links representable
        as valid :class:`~repro.channel.link.Link` attenuations instead of
        underflowing to zero.
    """

    exponent: float = 2.7
    reference_distance: float = 0.1
    reference_attenuation: float = 0.95
    min_attenuation: float = 0.02

    def __post_init__(self) -> None:
        """Validate the model parameters."""
        if self.exponent <= 0:
            raise ChannelError("path-loss exponent must be positive")
        if self.reference_distance <= 0:
            raise ChannelError("reference_distance must be positive")
        if not 0.0 < self.reference_attenuation <= 1.5:
            raise ChannelError("reference_attenuation must lie in (0, 1.5]")
        if not 0.0 < self.min_attenuation <= self.reference_attenuation:
            raise ChannelError(
                "min_attenuation must lie in (0, reference_attenuation]"
            )

    def attenuation(self, distance: ArrayLike) -> ArrayLike:
        """Amplitude gain at ``distance`` (scalar or array, same shape out).

        Power follows ``(d_0/d)^n`` beyond the reference distance, so the
        amplitude follows ``(d_0/d)^{n/2}``; inside ``d_0`` the gain is
        pinned at the reference value.
        """
        arr = np.asarray(distance, dtype=float)
        if np.any(arr < 0):
            raise ChannelError("distance must be non-negative")
        ratio = self.reference_distance / np.maximum(arr, self.reference_distance)
        gain = self.reference_attenuation * np.power(ratio, self.exponent / 2.0)
        gain = np.maximum(gain, self.min_attenuation)
        if np.isscalar(distance) or np.ndim(distance) == 0:
            return float(gain)
        return gain
