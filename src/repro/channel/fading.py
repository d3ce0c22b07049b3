"""Stochastic small-scale fading: the Rayleigh and Rician gain processes.

The flat channel of §5.3 (one attenuation, one phase) describes a static
link; real links also fade as the multipath environment moves.
:func:`fading_gains` draws that fade from the two classical small-scale
distributions:

* **Rayleigh** — no line of sight; the complex gain is circularly
  symmetric Gaussian, ``g ~ CN(0, 1)``, so the envelope ``|g|`` is
  Rayleigh distributed with unit mean power.
* **Rician** — a line-of-sight ray of power ``K/(K+1)`` plus scattered
  energy of power ``1/(K+1)``; ``K`` (the K-factor) is given in dB and
  large ``K`` degenerates to the static flat channel.

The mean power gain is 1, so fading leaves the link budget to the path
attenuation.  Each family has two time structures:

* ``mode="block"`` — one gain per packet: the channel is constant over
  a packet and independent across packets, the standard block-fading
  abstraction;
* ``mode="drift"`` — the gain evolves *within* the packet as a
  first-order Gauss–Markov process with per-sample correlation
  ``ρ = 1 - doppler``, reproducing the slow variation §6 warns about
  ("they do vary with time").

All randomness comes from the ``rng`` handed in — in the simulator that
is the per-trial engine substream, so fades are reproducible and
independent of worker scheduling.
"""

from __future__ import annotations

from typing import Type

import numpy as np

from repro.exceptions import ReproError
from repro.utils.db import db_to_power_ratio

#: Time structures a fade supports.
FADING_MODES = ("block", "drift")

#: Fading families a link or impairment config may request.
FADING_KINDS = ("none", "rayleigh", "rician")


def check_fading(kind: str, mode: str, doppler: float, error: Type[ReproError]) -> None:
    """Raise ``error`` unless ``(kind, mode, doppler)`` declares a valid fade.

    The one rule set behind both :class:`~repro.channel.link.Link` and
    :class:`~repro.channel.impairments.ImpairmentConfig`.
    """
    if kind not in FADING_KINDS:
        raise error(f"unknown fading kind {kind!r}; choose from {FADING_KINDS}")
    if mode not in FADING_MODES:
        raise error(f"unknown fading mode {mode!r}; choose from {FADING_MODES}")
    if not 0.0 <= doppler < 1.0:
        raise error("fading_doppler must lie in [0, 1)")
    if mode == "block" and doppler != 0.0:
        raise error("block fading takes no doppler rate")


def fading_gains(
    kind: str,
    k_db: float,
    los_phase: float,
    mode: str,
    doppler: float,
    n_samples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw one packet's complex fade of a ``"rayleigh"`` or ``"rician"`` link.

    Returns a 0-d array (one gain) in block mode and an ``(n_samples,)``
    track in drift mode; either broadcasts over the signal with a single
    multiply.  A block fade draws its real part, then its imaginary part.
    A drift track draws one ``(2, n_samples)`` block and runs
    ``g[n] = ρ g[n-1] + sqrt(1-ρ²) w[n]`` from ``g[0] = w[0]``, which keeps
    every marginal at the scattered power while the autocorrelation decays
    as ``ρ^k``.  A Rician fade adds the LOS ray of phase ``los_phase``.
    """
    if kind == "rician":
        k_linear = db_to_power_ratio(k_db)
        los = complex(np.sqrt(k_linear / (k_linear + 1.0)) * np.exp(1j * los_phase))
        scattered = 1.0 / (k_linear + 1.0)
    else:
        los, scattered = 0.0 + 0.0j, 1.0
    std = np.sqrt(scattered / 2.0)
    if mode == "block":
        return np.asarray(los + complex(rng.normal(0.0, std) + 1j * rng.normal(0.0, std)))
    rho = 1.0 - doppler
    innovation_scale = np.sqrt(max(1.0 - rho * rho, 0.0))
    noise = rng.normal(0.0, std, (2, n_samples))
    gains = np.empty(n_samples, dtype=np.complex128)
    current = complex(noise[0, 0], noise[1, 0])
    gains[0] = current
    for index in range(1, n_samples):
        innovation = complex(noise[0, index], noise[1, index])
        current = rho * current + innovation_scale * innovation
        gains[index] = current
    return los + gains
