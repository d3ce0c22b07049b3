"""The receive chain's detector decisions pinned over two seeded grids.

``detector_grid.json`` holds, for every waveform below, what the first
two steps of :meth:`ReceivePipeline.receive` decided: the energy
detector's ``[start, end]`` and the variance detector's interfered flag
on that region, as ``[start, end, interfered]`` (``null`` when no packet
was detected, ``"empty"`` for a waveform with no samples).

* ``links``: every ``received`` waveform of ``tests/channel/test_link_grid.py``
  (distortion plus receiver noise) at two detector noise floors, so both
  thresholds fall on either side of the test signal.  It was recorded
  over that grid's 1,296 links, before links lost their propagation
  delay; the 648 delay-free links are checked against their records at
  their recorded index;
* ``receptions``: every reception of ``tests/anc/test_receive_grid.py``,
  with its own pipeline's noise floor.

Regenerate (only when a change is meant to move decisions) with::

    PYTHONPATH=src python tests/signal/test_detector_grid.py --write
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.anc.pipeline import ReceivePipeline
from repro.signal.energy import power_profile

TESTS = Path(__file__).resolve().parents[1]
FIXTURE = Path(__file__).with_name("detector_grid.json")

#: Detector noise floors the link-grid waveforms are judged at.
FLOORS = (1e-3, 0.05)


def _load(name: str, relative: str):
    spec = importlib.util.spec_from_file_location(name, TESTS / relative)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


link_grid = _load("detector_grid_links", "channel/test_link_grid.py")
receive_grid = _load("detector_grid_receptions", "anc/test_receive_grid.py")


def decision(pipeline: ReceivePipeline, waveform):
    """``[start, end, interfered]`` of one waveform, as ``receive`` decides it."""
    if len(waveform) == 0:
        return "empty"
    power = power_profile(waveform)
    detection = pipeline.energy_detector.detect(power)
    if not detection.detected:
        return None
    start, end = detection.start_index, detection.end_index
    return [start, end, pipeline._interfered(power[start:end])]


def link_decisions(floor: float) -> list:
    """The decision on every link-grid ``received`` waveform at one noise floor."""
    pipeline = ReceivePipeline(noise_power=floor, expected_payload_bits=192)
    decisions = []
    for position, (link, length) in enumerate(link_grid.grid()):
        rng = link_grid.np.random.default_rng(link_grid.recorded_index(position))
        waveform = link_grid.superpose(
            [(link_grid.signal(length), link, 0)], link.noise_power, rng, 0
        )
        decisions.append(decision(pipeline, waveform))
    return decisions


def reception_decision(kind: str, snr_db: float, seed: int):
    """The decision on one receive-grid reception."""
    pipeline, waveform = receive_grid.reception(kind, snr_db, seed)
    return decision(pipeline, waveform)


def write() -> None:
    """Record every decision (run from the repository root)."""
    fixture = {
        "links": {repr(floor): link_decisions(floor) for floor in FLOORS},
        "receptions": {
            case_id: reception_decision(*args)
            for case_id, *args in receive_grid.RECEIVE_CASES
        },
    }
    FIXTURE.write_text(json.dumps(fixture, separators=(",", ":")) + "\n")


@pytest.fixture(scope="module")
def fixture():
    return json.loads(FIXTURE.read_text())


def test_grid_reaches_every_decision(fixture):
    decisions = [d for floor in FLOORS for d in fixture["links"][repr(floor)]]
    decisions += list(fixture["receptions"].values())
    assert "empty" in decisions and None in decisions
    flags = {d[2] for d in decisions if isinstance(d, list)}
    assert flags == {True, False}


@pytest.mark.parametrize("floor", FLOORS)
def test_link_decisions_match_fixture(fixture, floor, numpy_pin):
    recorded = fixture["links"][repr(floor)]
    actual = link_decisions(floor)
    expected = [recorded[link_grid.recorded_index(position)] for position in range(len(actual))]
    mismatches = [index for index, pair in enumerate(zip(actual, expected)) if pair[0] != pair[1]]
    assert len(actual) == 648 and len(recorded) == 1296
    assert mismatches == [], numpy_pin()


def test_reception_decisions_match_fixture(fixture, numpy_pin):
    mismatches = [
        case_id
        for case_id, *args in receive_grid.RECEIVE_CASES
        if reception_decision(*args) != fixture["receptions"][case_id]
    ]
    assert len(fixture["receptions"]) == len(receive_grid.RECEIVE_CASES)
    assert mismatches == [], numpy_pin()


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    write()
