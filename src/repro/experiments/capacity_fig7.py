"""Figure 7: capacity bounds as functions of SNR.

Evaluates the Theorem 8.1 bounds over the figure's SNR range through the
:class:`~repro.experiments.engine.ExperimentEngine` (one trial per grid
point — the bounds are elementwise in SNR, so per-point evaluation is
bit-identical to evaluating the whole grid at once) and returns the
curve plus the headline observations the paper draws from the figure:
the crossover SNR below which amplify-and-forward hurts, and the
asymptotic 2x gain at high SNR.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.capacity.bounds import (
    DEFAULT_ALPHA,
    anc_capacity_lower_bound,
    crossover_snr_db,
    traditional_capacity_upper_bound,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.engine import ExperimentEngine, default_engine
from repro.results.model import ExperimentResult, Series, make_result


def run_capacity_point_trial(
    cfg: ExperimentConfig, snr_db: float, alpha: float = DEFAULT_ALPHA
) -> Tuple[float, float, float]:
    """Evaluate both Theorem 8.1 bounds and their ratio at one SNR.

    The engine passes the SNR value itself as the trial key; ``cfg`` is
    unused (the bounds are deterministic) but part of the engine's
    signature.  Returns ``(traditional, anc, gain)`` in b/s/Hz.  The gain
    is the guarded ratio of the two bounds, exactly as
    :func:`repro.capacity.bounds.capacity_gain` defines it — computed
    from the already-evaluated bounds instead of re-deriving them.
    """
    grid = np.asarray([float(snr_db)], dtype=float)
    traditional = float(np.atleast_1d(traditional_capacity_upper_bound(grid, alpha))[0])
    anc = float(np.atleast_1d(anc_capacity_lower_bound(grid, alpha))[0])
    gain = anc / traditional if traditional > 0 else 0.0
    return traditional, anc, gain


def run_capacity_experiment(
    config: Optional[ExperimentConfig] = None,
    engine: Optional[ExperimentEngine] = None,
    quick: bool = False,
) -> ExperimentResult:
    """Evaluate the Theorem 8.1 bounds over the Fig. 7 SNR range (0-55 dB).

    The bounds are closed-form information-theoretic expressions, not a
    waveform simulation, so the experiment reads no model field of the
    config (its registry entry declares none, and
    :func:`repro.api.run` rejects any that is set).  ``quick`` is unused
    (the grid is fixed).
    """
    cfg = config if config is not None else ExperimentConfig()
    grid = [float(v) for v in np.arange(0.0, 56.0, 1.0)]
    points = default_engine(engine).map(
        "fig07_capacity",
        run_capacity_point_trial,
        cfg,
        grid,
        params={"alpha": float(DEFAULT_ALPHA)},
    )
    curve = Series(
        "curve",
        ("snr_db", "traditional", "anc", "gain"),
        tuple((snr,) + tuple(point) for snr, point in zip(grid, points)),
    )
    scalars = {
        "crossover_db": crossover_snr_db(low_db=grid[0], high_db=grid[-1]),
        "asymptotic_gain": float(points[-1][2]),
    }
    return make_result("capacity", "figure", cfg, "capacity", [curve], scalars)
