"""Golden regression tests: serial and parallel runs against frozen fixtures.

The JSON files under ``tests/golden/`` (written by
``tools/make_golden.py``) freeze the full plain-text renderings of the
quick-scale fig09/fig10/fig12 reproductions.  Each test replays the same
experiment twice through ``api.run`` + ``render_text`` — once with the
serial reference engine and once with two worker processes — and
requires the renderings to match the fixture byte for byte.  This is what stops a future refactor of
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

import numpy as np
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


def _fixture_config(fixture: dict) -> ExperimentConfig:
    return ExperimentConfig(**fixture["config"])


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_scalar_run_matches_golden(name, numpy_pin):
    """The scalar reference path must reproduce the fixture byte for byte."""
    fixture = _load_fixture(name)
    result = api.run(
        EXPERIMENTS[name], config=_fixture_config(fixture), engine=ExperimentEngine(workers=1)
    )
    assert render_text(result) == fixture["render"], (
        f"{name} drifted from its golden rendering; if the change is "
        f"intentional, regenerate with tools/make_golden.py ({numpy_pin()})"
    )


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_parallel_run_matches_golden(name, numpy_pin):
    """The process-pool path (two workers) must match too."""
    fixture = _load_fixture(name)
    result = api.run(
        EXPERIMENTS[name],
        config=_fixture_config(fixture),
        engine=ExperimentEngine(workers=2),
    )
    assert render_text(result) == fixture["render"], (
        f"{name} parallel run drifted from the golden rendering: worker "
        f"processes must be invisible in results ({numpy_pin()})"
    )


def _scenario_fixture(scenario: str) -> dict:
    return _load_fixture(f"scenario_{scenario}_quick")


def _normalized(result) -> dict:
    payload = result.to_dict()
    payload["meta"]["engine"]["elapsed_seconds"] = 0.0
    return payload


@pytest.mark.parametrize("scenario", SCENARIO_FIXTURES)
def test_scenario_serial_run_matches_golden(scenario, numpy_pin):
    """A serial quick sweep must reproduce the whole structured result."""
    fixture = _scenario_fixture(scenario)
    config = ExperimentConfig(**fixture["config"])
    result = api.run(scenario, config=config, quick=True)
    assert _normalized(result) == fixture, (
        f"{scenario} drifted from its golden structured result; if the "
        f"change is intentional, regenerate with tools/make_golden.py ({numpy_pin()})"
    )


@pytest.mark.parametrize("scenario", SCENARIO_FIXTURES)
def test_scenario_parallel_run_matches_golden(scenario, numpy_pin):
    """Worker fan-out must be invisible: same series, scalars and digest."""
    fixture = _scenario_fixture(scenario)
    config = ExperimentConfig(**fixture["config"])
    result = api.run(
        scenario, config=config, engine=ExperimentEngine(workers=2), quick=True
    )
    payload = result.to_dict()
    assert payload["series"] == fixture["series"], numpy_pin()
    assert payload["scalars"] == fixture["scalars"], numpy_pin()
    assert payload["config_digest"] == fixture["config_digest"]


def test_fixture_metadata_is_consistent():
    """Every fixture names its experiment and carries the pinned config."""
    for name in EXPERIMENTS:
        fixture = _load_fixture(name)
        assert fixture["experiment"] == name
        assert fixture["config"]["seed"] == 7
        assert set(fixture["config"]) == {"runs", "packets_per_run", "payload_bits", "seed"}
        assert fixture["render"].startswith(f"=== {name} ===")


def test_numpy_pin_note_names_the_pin_and_the_version(numpy_pin):
    """A mismatch message says which numpy ran against which pin."""
    inside, outside = numpy_pin("2.4.99"), numpy_pin("2.5.0")
    assert "numpy==2.4.*" in inside and "2.4.99 satisfies" in inside
    assert "numpy==2.4.*" in outside and "2.5.0 is outside" in outside
    assert "NEP 19" in outside
    assert numpy_pin("2.40.1").startswith("numpy 2.40.1 is outside")
    assert numpy_pin() == numpy_pin(np.__version__)
