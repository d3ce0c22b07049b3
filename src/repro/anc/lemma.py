"""Lemma 6.1: the two possible phase pairs of an interfered sample.

A received interfered sample is ``y[n] = A e^{i theta[n]} + B e^{i phi[n]}``
(Eq. 2).  Knowing only ``y[n]``, ``A`` and ``B``, the pair
``(theta[n], phi[n])`` is determined up to a two-fold ambiguity — the two
ways a vector of length ``A`` and a vector of length ``B`` can sum to
``y[n]`` (Fig. 4).  This module computes both solutions, vectorised over a
whole block of samples:

.. math::

    theta[n] = \\arg(y[n] (A + B D \\pm i B \\sqrt{1 - D^2}))

    phi[n]   = \\arg(y[n] (B + A D \\mp i A \\sqrt{1 - D^2}))

with ``D = (|y[n]|^2 - A^2 - B^2) / (2AB)``.  The pairing of signs is
fixed: solution 1 takes the minus sign for ``theta`` and plus for ``phi``
(corresponding to ``sin(phi - theta) > 0``), solution 2 the opposite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from repro.signal.samples import ComplexSignal
from repro.utils.validation import ensure_complex_array, ensure_positive

SignalLike = Union[ComplexSignal, np.ndarray]


def _as_samples(signal: SignalLike) -> np.ndarray:
    if isinstance(signal, ComplexSignal):
        return signal.samples
    return ensure_complex_array(signal, "samples")


def _cosine(y: np.ndarray, a: float, b: float) -> np.ndarray:
    """The quantity ``D = cos(theta - phi)`` implied by each sample's magnitude.

    Values are clipped to ``[-1, 1]``: receiver noise routinely pushes the
    raw ratio slightly outside the valid range, and clipping is the
    maximum-likelihood projection back onto it.
    """
    magnitude_sq = np.abs(y) ** 2
    raw = (magnitude_sq - a ** 2 - b ** 2) / (2.0 * a * b)
    return np.clip(raw, -1.0, 1.0)


@dataclass(frozen=True)
class PhaseSolutions:
    """Both candidate phase pairs for every sample of an interfered block.

    Attributes
    ----------
    theta1, phi1:
        First solution pair (``sin(phi - theta) >= 0`` branch).
    theta2, phi2:
        Second solution pair (the mirror-image branch).
    cosine:
        The clipped ``D`` values; ``|D|`` close to 1 flags samples whose
        two solutions (nearly) coincide and therefore carry little
        information for disambiguation.
    """

    theta1: np.ndarray
    phi1: np.ndarray
    theta2: np.ndarray
    phi2: np.ndarray
    cosine: np.ndarray

    def __len__(self) -> int:
        """Number of samples solved."""
        return int(self.theta1.size)


def phase_solutions(
    samples: SignalLike,
    amplitude_a: float,
    amplitude_b: float,
) -> PhaseSolutions:
    """Compute both Lemma 6.1 solutions for every sample of a block.

    Parameters
    ----------
    samples:
        The received interfered complex samples ``y[n]``.
    amplitude_a:
        Received amplitude ``A`` of the *known* signal.
    amplitude_b:
        Received amplitude ``B`` of the *unknown* signal.

    Returns
    -------
    PhaseSolutions
        Candidate phases for each sample.  ``theta`` always refers to the
        signal of amplitude ``A`` and ``phi`` to the signal of amplitude
        ``B``, matching the paper's notation where Alice's own signal is
        the ``A`` component.
    """
    a = ensure_positive(amplitude_a, "amplitude_a")
    b = ensure_positive(amplitude_b, "amplitude_b")
    y = _as_samples(samples)
    if y.size == 0:
        empty = np.zeros(0, dtype=float)
        return PhaseSolutions(empty, empty, empty, empty, empty)
    cosine = _cosine(y, a, b)
    sine = np.sqrt(np.maximum(1.0 - cosine ** 2, 0.0))
    # The terms both branches share, each computed once:
    # y * (a + b*D -/+ i*b*sine) and y * (b + a*D +/- i*a*sine).
    theta_real = a + b * cosine
    theta_turn = 1j * b * sine
    phi_real = b + a * cosine
    phi_turn = 1j * a * sine
    # Branch 1: sin(phi - theta) = +sine.
    theta1 = np.angle(y * (theta_real - theta_turn))
    phi1 = np.angle(y * (phi_real + phi_turn))
    # Branch 2: sin(phi - theta) = -sine.
    theta2 = np.angle(y * (theta_real + theta_turn))
    phi2 = np.angle(y * (phi_real - phi_turn))
    return PhaseSolutions(theta1=theta1, phi1=phi1, theta2=theta2, phi2=phi2, cosine=cosine)

