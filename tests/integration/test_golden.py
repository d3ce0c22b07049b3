"""Golden regression tests: scalar and batched runs against frozen fixtures.

The JSON files under ``tests/golden/`` (written by
``tools/make_golden.py``) freeze the full plain-text renderings of the
quick-scale fig09/fig10/fig12 reproductions.  Each test replays the same
experiment twice through ``api.run`` + ``render_text`` — once with the
scalar reference engine and once with the batched engine
(``batch_size > 1`` with worker blocks) — and requires the renderings to
match the fixture byte for byte.  This is what stops a future refactor of
the signal/modulation/anc layers from silently drifting the reference
renderings: the drift surfaces here as a readable diff rather than deep
inside a benchmark.

After an *intentional* change to the reproduced numbers, regenerate with
``PYTHONPATH=src python tools/make_golden.py`` and commit the new
fixtures alongside the change.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import api
from repro.experiments.config import ExperimentConfig
from repro.experiments.engine import ExperimentEngine
from repro.results import render_text

GOLDEN_DIR = Path(__file__).parent.parent / "golden"

#: Golden fixture name -> registry name of the experiment it freezes.
EXPERIMENTS = {
    "fig09_alice_bob": "alice-bob",
    "fig10_x_topology": "x",
    "fig12_chain": "chain",
}

#: Time-domain scenarios pinned as structured-result fixtures (quick
#: sweep) by tools/make_golden.py.
SCENARIO_FIXTURES = ("offered_load_sweep", "queueing_delay")


def _load_fixture(name: str) -> dict:
    path = GOLDEN_DIR / f"{name}.json"
    assert path.is_file(), (
        f"missing golden fixture {path}; regenerate with "
        "`PYTHONPATH=src python tools/make_golden.py`"
    )
    return json.loads(path.read_text())


def _fixture_config(fixture: dict, **overrides) -> ExperimentConfig:
    return ExperimentConfig(**{**fixture["config"], **overrides})


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_scalar_run_matches_golden(name):
    """The scalar reference path must reproduce the fixture byte for byte."""
    fixture = _load_fixture(name)
    result = api.run(
        EXPERIMENTS[name], config=_fixture_config(fixture), engine=ExperimentEngine(workers=1)
    )
    assert render_text(result) == fixture["render"], (
        f"{name} drifted from its golden rendering; if the change is "
        "intentional, regenerate with tools/make_golden.py"
    )


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_batched_run_matches_golden(name):
    """The batched path (worker blocks, batch_size > 1) must match too."""
    fixture = _load_fixture(name)
    config = _fixture_config(fixture, batch_size=2)
    result = api.run(
        EXPERIMENTS[name], config=config, engine=ExperimentEngine(workers=2, batch_size=2)
    )
    assert render_text(result) == fixture["render"], (
        f"{name} batched run drifted from the golden rendering: batching "
        "must be invisible in results"
    )


def _scenario_fixture(scenario: str) -> dict:
    return _load_fixture(f"scenario_{scenario}_quick")


def _normalized(result) -> dict:
    payload = result.to_dict()
    payload["meta"]["engine"]["elapsed_seconds"] = 0.0
    return payload


@pytest.mark.parametrize("scenario", SCENARIO_FIXTURES)
def test_scenario_serial_run_matches_golden(scenario):
    """A serial quick sweep must reproduce the whole structured result."""
    fixture = _scenario_fixture(scenario)
    config = ExperimentConfig(**fixture["config"])
    result = api.run(scenario, config=config, quick=True)
    assert _normalized(result) == fixture, (
        f"{scenario} drifted from its golden structured result; if the "
        "change is intentional, regenerate with tools/make_golden.py"
    )


@pytest.mark.parametrize("scenario", SCENARIO_FIXTURES)
def test_scenario_parallel_run_matches_golden(scenario):
    """Worker fan-out must be invisible: same series, scalars and digest."""
    fixture = _scenario_fixture(scenario)
    config = ExperimentConfig(**fixture["config"])
    result = api.run(
        scenario, config=config, engine=ExperimentEngine(workers=2), quick=True
    )
    payload = result.to_dict()
    assert payload["series"] == fixture["series"]
    assert payload["scalars"] == fixture["scalars"]
    assert payload["config_digest"] == fixture["config_digest"]


def test_fixture_metadata_is_consistent():
    """Every fixture names its experiment and carries the pinned config."""
    for name in EXPERIMENTS:
        fixture = _load_fixture(name)
        assert fixture["experiment"] == name
        assert fixture["config"]["seed"] == 7
        assert set(fixture["config"]) == {"runs", "packets_per_run", "payload_bits", "seed"}
        assert fixture["render"].startswith(f"=== {name} ===")
