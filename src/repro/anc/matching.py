"""Resolving the per-sample phase ambiguity with the known signal (§6.3).

Lemma 6.1 yields *two* candidate phase pairs per sample, so across two
consecutive samples there are four candidate phase-difference pairs
(Eq. 7).  The receiver knows the phase differences of its own (or
overheard) signal, ``delta theta_s[n]``, and those survive the channel
unchanged because the constant phase offset ``gamma`` cancels in the
difference.  For each sample interval the matcher therefore picks the
candidate whose ``delta theta`` is closest to the known value (Eq. 8) and
outputs the paired ``delta phi`` — the unknown signal's phase difference —
from which the unknown bit is sliced (§6.4: ``delta phi >= 0`` means "1").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.anc.lemma import PhaseSolutions
from repro.exceptions import DecodingError
from repro.utils.angles import wrap_angle


@dataclass(frozen=True)
class MatchResult:
    """Output of the phase-difference matching step.

    Attributes
    ----------
    unknown_differences:
        The selected ``delta phi`` for every sample interval; slicing these
        at zero yields the unknown signal's bits.
    known_differences_selected:
        The ``delta theta`` of the winning candidate at every interval
        (diagnostic: how close the match was to the known sequence).
    match_errors:
        The Eq. 8 error of the winning candidate at every interval; large
        values flag intervals where even the best candidate disagreed with
        the known signal, i.e. likely bit errors.
    bits:
        Hard decisions on ``unknown_differences``.
    """

    unknown_differences: np.ndarray
    known_differences_selected: np.ndarray
    match_errors: np.ndarray
    bits: np.ndarray

    def __len__(self) -> int:
        """Number of decoded bits."""
        return int(self.bits.size)


def match_phase_differences(
    solutions: PhaseSolutions,
    known_differences: np.ndarray,
) -> MatchResult:
    """Pick the most plausible phase-difference pair for every sample interval.

    Parameters
    ----------
    solutions:
        The per-sample candidate phases from :func:`repro.anc.lemma.phase_solutions`
        for ``N + 1`` consecutive samples.
    known_differences:
        The known signal's phase differences for those ``N`` intervals
        (``delta theta_s``), e.g. ±pi/2 values regenerated from the bits of
        the packet the receiver previously sent or overheard.

    Returns
    -------
    MatchResult
        Selected unknown phase differences, diagnostics and hard bits.
    """
    known = np.asarray(known_differences, dtype=float)
    n_samples = len(solutions)
    if n_samples < 2:
        raise DecodingError("at least two samples are required to form phase differences")
    n_intervals = n_samples - 1
    if known.size != n_intervals:
        raise DecodingError(
            f"known_differences has {known.size} entries but the block has "
            f"{n_intervals} sample intervals"
        )

    theta = np.stack([solutions.theta1, solutions.theta2])  # shape (2, N+1)
    phi = np.stack([solutions.phi1, solutions.phi2])

    # Candidate differences for every (x, y) branch combination, flattened
    # to row 2x + y:  delta_theta[2x + y, n] = theta_x[n + 1] - theta_y[n].
    delta_theta = wrap_angle(theta[:, None, 1:] - theta[None, :, :-1]).reshape(4, n_intervals)
    errors = np.abs(wrap_angle(delta_theta - known))  # (4, N)
    best = np.argmin(errors, axis=0)

    # Only the winning delta phi is sliced; wrapping is elementwise, so it
    # is wrapped after the selection.
    selected = best * n_intervals + np.arange(n_intervals)
    delta_phi = phi[:, None, 1:] - phi[None, :, :-1]
    selected_phi = wrap_angle(delta_phi.take(selected))
    selected_theta = delta_theta.take(selected)
    selected_errors = errors.take(selected)

    bits = (selected_phi >= 0).astype(np.uint8)
    return MatchResult(
        unknown_differences=selected_phi,
        known_differences_selected=selected_theta,
        match_errors=selected_errors,
        bits=bits,
    )
