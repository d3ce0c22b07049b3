"""Experiment runners that regenerate every figure in the paper's evaluation.

Each module reproduces one figure:

* :mod:`repro.experiments.capacity_fig7` — Fig. 7, capacity bounds vs SNR.
* :mod:`repro.experiments.alice_bob` — Fig. 9, Alice–Bob throughput-gain
  and BER CDFs.
* :mod:`repro.experiments.x_topology` — Fig. 10, the "X" topology.
* :mod:`repro.experiments.chain` — Fig. 12, the unidirectional chain.
* :mod:`repro.experiments.sir_sweep` — Fig. 13, BER versus
  signal-to-interference ratio.
* :mod:`repro.experiments.snr_sweep` — extension: measured gain and BER
  across operating SNR, compared against the Theorem 8.1 prediction.
* :mod:`repro.experiments.summary` — the §11.3 summary-of-results table.

Beyond the figures, scenario sweeps (:mod:`repro.experiments.scenarios`)
declare N-node workloads as data — topology generator + flows + sweep
axis — and run them through the same engine; the shipped scenarios —
:mod:`~repro.experiments.chain_sweep` (throughput gain vs chain length),
:mod:`~repro.experiments.mesh_sweep` (multi-flow random meshes),
:mod:`~repro.experiments.cfo_sweep` (BER vs carrier frequency offset),
:mod:`~repro.experiments.fading_sweep` (ANC vs digital under
Rayleigh/Rician fading), :mod:`~repro.experiments.geometry_mesh`
(path-loss meshes with placed nodes), :mod:`~repro.experiments.offered_load`
(event-driven goodput vs offered load, §8) and
:mod:`~repro.experiments.queueing_delay` (delay vs traffic burstiness) —
run from the CLI as ``python -m repro.cli <scenario>``.

Every testbed trial — the figures' and the sweeps' alike — draws its
network and runs its schemes through :mod:`repro.experiments.testbed`,
the one module that constructs protocols: one function draws the run
(SNR, overlap, topology, impairments) and one builder per protocol
family runs each scheme on its own random stream.

Figures and scenarios share one registry,
:data:`repro.experiments.runner.REGISTRY`, behind the public facade
:mod:`repro.api`.  Every experiment has one result path: its ``run_*``
function (signature ``(config, engine, quick)``) builds a typed
:class:`~repro.results.model.ExperimentResult` (tables + scalars +
config snapshot; ``api.run`` adds the engine metadata; lossless JSON/CSV
export) directly from its trial outputs, and
:func:`repro.results.render.render_text` formats the text from those
tables.  See ``docs/API.md``.

All runners are deterministic given an :class:`ExperimentConfig` seed and
scale from quick CI-sized runs to paper-scale runs by changing the config.
Their Monte-Carlo trials execute through the
:class:`~repro.experiments.engine.ExperimentEngine`, which fans them out
across process workers and caches completed trials to disk — pass
``engine=ExperimentEngine(workers=8, cache_dir=...)`` to any runner to
parallelise or resume a sweep with bit-identical results.
"""

from repro.experiments.config import ExperimentConfig
from repro.experiments.engine import EngineStats, ExperimentEngine
from repro.experiments.alice_bob import run_alice_bob_experiment
from repro.experiments.x_topology import run_x_topology_experiment
from repro.experiments.chain import run_chain_experiment
from repro.experiments.sir_sweep import SIRPoint, run_sir_sweep
from repro.experiments.snr_sweep import SNRPoint, run_snr_sweep
from repro.experiments.capacity_fig7 import run_capacity_experiment
from repro.experiments.summary import run_summary
from repro.experiments.runner import REGISTRY, ExperimentEntry
from repro.experiments.scenarios import ScenarioSpec, register_scenario, run_scenario
from repro.experiments import chain_sweep as _chain_sweep  # noqa: F401  (registers)
from repro.experiments import mesh_sweep as _mesh_sweep  # noqa: F401  (registers)
from repro.experiments import cfo_sweep as _cfo_sweep  # noqa: F401  (registers)
from repro.experiments import fading_sweep as _fading_sweep  # noqa: F401  (registers)
from repro.experiments import geometry_mesh as _geometry_mesh  # noqa: F401  (registers)
from repro.experiments import offered_load as _offered_load  # noqa: F401  (registers)
from repro.experiments import queueing_delay as _queueing_delay  # noqa: F401  (registers)

__all__ = [
    "EngineStats",
    "ExperimentConfig",
    "ExperimentEngine",
    "ExperimentEntry",
    "REGISTRY",
    "SIRPoint",
    "SNRPoint",
    "ScenarioSpec",
    "register_scenario",
    "run_scenario",
    "run_alice_bob_experiment",
    "run_capacity_experiment",
    "run_chain_experiment",
    "run_sir_sweep",
    "run_snr_sweep",
    "run_summary",
    "run_x_topology_experiment",
]
