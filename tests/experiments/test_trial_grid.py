"""Every testbed trial pinned bit-exact over a grid of runs and sweep values.

``trial_grid.json`` was written by the hand-built trials, each of which
drew its own topology and constructed its own protocols, before they were
folded into :mod:`repro.experiments.testbed`.  For each case below it
holds the SHA-256 digest of the trial's canonical output: every field of
every protocol run, with exact float reprs.  A change that moves one
random stream, one draw or one scheme parameter fails it.

The cases cover run indices 0 and 1 at every default sweep value (the
``chain_sweep``/``mesh_sweep``/``geometry_mesh`` stream bases depend on
the value), all six ``snr`` points, and one impaired run per trial so the
impairment stream is pinned too.

Regenerate (only when a change is meant to move numbers) with::

    PYTHONPATH=src python tests/experiments/test_trial_grid.py --write
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.channel.impairments import ImpairmentConfig
from repro.experiments.alice_bob import run_alice_bob_trial
from repro.experiments.chain import run_chain_trial
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import REGISTRY
from repro.experiments.snr_sweep import run_snr_point_trial
from repro.experiments.x_topology import run_x_topology_trial

FIXTURE = Path(__file__).with_name("trial_grid.json")

#: A low SNR range, so channel draws reach the outputs through lost packets.
CONFIG = ExperimentConfig(
    runs=2, packets_per_run=4, payload_bits=768, snr_db_range=(14.0, 20.0), seed=11
)
IMPAIRED = CONFIG.with_overrides(
    impairments=ImpairmentConfig(sender_cfo=0.01, fading="rayleigh")
)
#: The ``snr`` experiment's default grid and runs per point.
SNR_VALUES = (16.0, 20.0, 24.0, 28.0, 32.0, 36.0)
SNR_RUNS = 2
RUN_FIELDS = (
    "topology",
    "payload_bits",
    "packets_offered",
    "packets_delivered",
    "packets_lost",
    "air_time_samples",
    "slots_used",
    "packet_bers",
    "overlap_fractions",
    "redundancy_overhead",
)


def canonical(output):
    """The JSON-ready, exact form of one trial output."""
    if isinstance(output, (tuple, list)):
        return [canonical(item) for item in output]
    if isinstance(output, dict):
        return {str(key): canonical(value) for key, value in output.items()}
    if dataclasses.is_dataclass(output) and hasattr(output, "packet_bers"):
        return {name: canonical(getattr(output, name)) for name in RUN_FIELDS}
    if dataclasses.is_dataclass(output):
        return canonical(dataclasses.asdict(output))
    if isinstance(output, float):
        return float(output)
    return output


def digest(output) -> str:
    """SHA-256 of a trial output's canonical JSON."""
    text = json.dumps(canonical(output), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def scenario_case(name: str, cfg: ExperimentConfig, value, run: int):
    """One ``(value, run)`` cell of a registered scenario, called as the engine does."""
    spec = REGISTRY[name].run.args[0]
    return lambda: spec.trial_fn(cfg, (value, run))


def cases():
    """Every ``(case id, thunk)`` of the grid, in fixture order."""
    for label, cfg in (("plain", CONFIG), ("impaired", IMPAIRED)):
        runs = (0, 1) if cfg is CONFIG else (0,)
        for run in runs:
            yield f"{label}/alice-bob/run{run}", lambda c=cfg, r=run: run_alice_bob_trial(c, r)
            yield f"{label}/x/run{run}", lambda c=cfg, r=run: run_x_topology_trial(c, r)
            yield f"{label}/chain/run{run}", lambda c=cfg, r=run: run_chain_trial(c, r)
        points = range(len(SNR_VALUES)) if cfg is CONFIG else (0,)
        for point in points:
            yield f"{label}/snr/point{point}", lambda c=cfg, p=point: run_snr_point_trial(
                c, p, snr_db_values=SNR_VALUES, runs_per_point=SNR_RUNS
            )
        for name in ("chain_sweep", "mesh_sweep", "geometry_mesh", "cfo_sweep", "fading_sweep"):
            spec = REGISTRY[name].run.args[0]
            if cfg is CONFIG:
                values = spec.sweep_values
            elif name in ("cfo_sweep", "fading_sweep"):
                # These sweeps reject the impairment their axis sets.
                continue
            else:
                values = spec.sweep_values[1:2]
            for value in values:
                for run in runs:
                    yield f"{label}/{name}/{value}/run{run}", scenario_case(name, cfg, value, run)


CASES = list(cases())


def write() -> None:
    """Record the digest of every case (run from the repository root)."""
    entries = {case_id: digest(thunk()) for case_id, thunk in CASES}
    FIXTURE.write_text(json.dumps(entries, indent=1) + "\n")


@pytest.fixture(scope="module")
def fixture():
    return json.loads(FIXTURE.read_text())


def test_grid_covers_the_fixture(fixture):
    assert [case_id for case_id, _ in CASES] == list(fixture)


@pytest.mark.parametrize("case_id,thunk", CASES, ids=[case_id for case_id, _ in CASES])
def test_trial_matches_fixture(fixture, case_id, thunk, numpy_pin):
    assert digest(thunk()) == fixture[case_id], numpy_pin()


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    write()
