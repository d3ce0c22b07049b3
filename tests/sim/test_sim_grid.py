"""Every traffic-simulation outcome pinned exactly over a grid of runs.

``sim_grid.json`` holds, for each case below, the run's ``metrics()``
(exact float reprs), its event-trace digest, its executed event count and
its three loss counters.  A change that moves one random draw, one event,
one patience deadline or one retry fails it.

The grid is scheme × MAC policy × traffic model × offered load × SNR ×
run, at 24 frame-times: 144 runs.  The low SNR and the high load reach
payload losses, retry drops and queue tail drops.

Regenerate (only when a change is meant to move numbers) with::

    PYTHONPATH=src python tests/sim/test_sim_grid.py --write
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import pytest

from repro.network.topologies import ChannelConditions
from repro.sim.simulation import SimParams, TrafficSimulation

FIXTURE = Path(__file__).with_name("sim_grid.json")

SCHEMES = ("anc", "cope", "traditional")
MAC_POLICIES = ("csma", "scheduled")
TRAFFIC = ("poisson", "cbr", "bursty")
LOADS = (0.4, 1.2)
SNRS_DB = (6.0, 18.0)
RUNS = (0, 1)
DURATION_FRAMES = 24.0


def cases():
    """Every ``(case id, kwargs)`` of the grid, in fixture order."""
    for scheme, mac, traffic, load, snr, run in itertools.product(
        SCHEMES, MAC_POLICIES, TRAFFIC, LOADS, SNRS_DB, RUNS
    ):
        case_id = f"{scheme}/{mac}/{traffic}/load{load}/snr{snr:g}/run{run}"
        yield case_id, dict(
            scheme=scheme, mac=mac, traffic=traffic, load=load, snr=snr, run=run
        )


CASES = list(cases())


def outcome(scheme, mac, traffic, load, snr, run):
    """The pinned record of one simulation run."""
    params = SimParams(
        scheme=scheme,
        mac_policy=mac,
        traffic_model=traffic,
        arrival_rate=load,
        sim_duration_frames=DURATION_FRAMES,
    )
    report = TrafficSimulation(
        params, entropy=[7, 600, run], conditions=ChannelConditions(snr_db=snr)
    ).run()
    return {
        "metrics": report.metrics(),
        "trace_digest": report.trace_digest,
        "events": report.events,
        "queue_drops": report.queue_drops,
        "retry_drops": report.retry_drops,
        "losses": report.losses,
    }


def write() -> None:
    """Record every case (run from the repository root)."""
    lines = [
        f" {json.dumps(case_id)}: {json.dumps(outcome(**kwargs), sort_keys=True)}"
        for case_id, kwargs in CASES
    ]
    FIXTURE.write_text("{\n" + ",\n".join(lines) + "\n}\n")


@pytest.fixture(scope="module")
def fixture():
    return json.loads(FIXTURE.read_text())


def test_grid_covers_the_fixture(fixture):
    assert [case_id for case_id, _ in CASES] == list(fixture)


def test_grid_reaches_every_loss_path(fixture):
    for counter in ("losses", "retry_drops", "queue_drops"):
        assert sum(1 for entry in fixture.values() if entry[counter] > 0) >= 20, counter


@pytest.mark.parametrize("case_id,kwargs", CASES, ids=[case_id for case_id, _ in CASES])
def test_run_matches_fixture(fixture, case_id, kwargs, numpy_pin):
    assert outcome(**kwargs) == fixture[case_id], numpy_pin()


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    write()
