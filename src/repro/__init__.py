"""Analog Network Coding (ANC) — a Python reproduction of
*Embracing Wireless Interference: Analog Network Coding* (Katti,
Gollakota, Katabi — SIGCOMM 2007).

The package is organised bottom-up:

* substrates: :mod:`repro.utils`, :mod:`repro.signal`,
  :mod:`repro.modulation`, :mod:`repro.channel`, :mod:`repro.scrambler`,
  :mod:`repro.coding`, :mod:`repro.framing`;
* the paper's contribution: :mod:`repro.anc` (interfered-MSK decoding);
* the system around it: :mod:`repro.node`, :mod:`repro.mac`,
  :mod:`repro.network`, :mod:`repro.protocols`;
* analysis and evaluation: :mod:`repro.capacity`, :mod:`repro.metrics`,
  :mod:`repro.experiments`.

Quickstart (structured results through the facade)::

    from repro import api
    from repro.experiments import ExperimentConfig
    from repro.results import render_text

    result = api.run("alice-bob", config=ExperimentConfig.quick())
    print(render_text(result))       # the classic text report
    print(result.to_json())          # machine-readable export

Each experiment module's ``run_*`` function returns the same result
(without the engine metadata ``api.run`` attaches)::

    from repro.experiments import ExperimentConfig, run_alice_bob_experiment

    result = run_alice_bob_experiment(ExperimentConfig.quick())
    print(result.get_series("gains"))
"""

from repro import constants, exceptions

__version__ = "1.0.0"

__all__ = ["api", "constants", "exceptions", "results", "__version__"]

#: Submodules resolved lazily so ``import repro`` stays lightweight.
_LAZY_SUBMODULES = ("api", "results")


def __getattr__(name):
    """Lazily import the heavyweight facade submodules on first access."""
    if name in _LAZY_SUBMODULES:
        import importlib

        return importlib.import_module(f"repro.{name}")
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
