"""Estimating the component amplitudes A and B of an interfered signal.

Section 6.2 of the paper: the receiver needs the two received amplitudes to
apply Lemma 6.1.  It estimates them from two energy statistics of the
interfered block:

* the mean energy ``mu = E[|y|^2] = A^2 + B^2`` (Eq. 5), because the cross
  term averages to zero for whitened (random) bit patterns, and
* ``sigma = (2/N) * sum_{|y|^2 > mu} |y|^2 = A^2 + B^2 + 4AB/pi`` (Eq. 6),
  the average energy of the samples that beat constructively.

Solving the two equations gives ``A`` and ``B`` up to the obvious
labelling ambiguity (which one is the known signal's amplitude); the
:func:`estimate_amplitudes_with_known` resolves the labelling with an
independent estimate of the known signal's amplitude, e.g. measured from
the interference-free head of the packet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from repro.exceptions import DecodingError
from repro.signal.samples import ComplexSignal
from repro.utils.validation import ensure_complex_array

SignalLike = Union[ComplexSignal, np.ndarray]


def _as_samples(signal: SignalLike) -> np.ndarray:
    if isinstance(signal, ComplexSignal):
        return signal.samples
    return ensure_complex_array(signal, "samples")


def mean_energy(samples: SignalLike) -> float:
    """The statistic ``mu`` of Eq. 5: the average per-sample energy."""
    y = _as_samples(samples)
    if y.size == 0:
        raise DecodingError("cannot estimate amplitudes from an empty block")
    return float(np.mean(np.abs(y) ** 2))


def sigma_statistic(samples: SignalLike, mu: Optional[float] = None) -> float:
    """The statistic ``sigma`` of Eq. 6.

    ``sigma`` is defined as ``(2/N) * sum`` of the sample energies that
    exceed the mean energy ``mu``; for a random relative phase this equals
    the conditional mean ``A^2 + B^2 + 4AB/pi`` because roughly half the
    samples land above the mean.
    """
    y = _as_samples(samples)
    if y.size == 0:
        raise DecodingError("cannot estimate amplitudes from an empty block")
    energy = np.abs(y) ** 2
    mean = mean_energy(y) if mu is None else float(mu)
    above = energy[energy > mean]
    if above.size == 0:
        # Degenerate case: perfectly constant energy (no interference beat).
        return mean
    return float(2.0 * np.sum(above) / energy.size)


@dataclass(frozen=True)
class AmplitudeEstimate:
    """Result of the A/B amplitude estimation.

    Attributes
    ----------
    amplitude_a:
        Estimated amplitude of the *known* signal (labelled A, as in the
        paper where Alice's own signal is the A component).
    amplitude_b:
        Estimated amplitude of the *unknown* signal.
    mu:
        The Eq. 5 statistic used for the estimate.
    sigma:
        The Eq. 6 statistic used for the estimate.
    """

    amplitude_a: float
    amplitude_b: float
    mu: float
    sigma: float

    @property
    def sir_db(self) -> float:
        """Signal-to-interference ratio (unknown over known), Eq. 9."""
        if self.amplitude_a <= 0 or self.amplitude_b <= 0:
            raise DecodingError("SIR undefined for non-positive amplitude estimates")
        return float(20.0 * np.log10(self.amplitude_b / self.amplitude_a))


def _solve_from_statistics(mu: float, sigma: float) -> Tuple[float, float]:
    """Solve Eqs. 5-6 for the (unordered) amplitude pair."""
    if mu <= 0:
        raise DecodingError("mean energy must be positive to estimate amplitudes")
    product = np.pi * max(sigma - mu, 0.0) / 4.0  # A * B
    # A^2 and B^2 are the roots of t^2 - mu * t + product^2 = 0.
    discriminant = mu ** 2 - 4.0 * product ** 2
    if discriminant < 0:
        # Noise pushed sigma beyond the feasible region (A = B case); the
        # best feasible answer is two equal amplitudes.
        equal = float(np.sqrt(mu / 2.0))
        return equal, equal
    root = np.sqrt(discriminant)
    larger_sq = (mu + root) / 2.0
    smaller_sq = (mu - root) / 2.0
    return float(np.sqrt(max(larger_sq, 0.0))), float(np.sqrt(max(smaller_sq, 0.0)))


def estimate_amplitudes_with_known(
    samples: SignalLike,
    known_amplitude_hint: float,
) -> AmplitudeEstimate:
    """Estimate A and B, assigning the label A to the known signal.

    Parameters
    ----------
    samples:
        The interfered (overlap-region) samples.
    known_amplitude_hint:
        An independent estimate of the known signal's received amplitude —
        in the receive pipeline this is the mean magnitude of the
        interference-free head (or tail) where only the known signal is
        present.  The hint only resolves the labelling ambiguity; the
        amplitudes themselves come from the Eq. 5-6 statistics.
    """
    if known_amplitude_hint <= 0:
        raise DecodingError("known amplitude hint must be positive")
    y = _as_samples(samples)
    mu = mean_energy(y)
    sigma = sigma_statistic(y, mu)
    larger, smaller = _solve_from_statistics(mu, sigma)
    if abs(larger - known_amplitude_hint) <= abs(smaller - known_amplitude_hint):
        amplitude_a, amplitude_b = larger, smaller
    else:
        amplitude_a, amplitude_b = smaller, larger
    return AmplitudeEstimate(
        amplitude_a=amplitude_a,
        amplitude_b=amplitude_b,
        mu=mu,
        sigma=sigma,
    )
