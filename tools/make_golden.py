#!/usr/bin/env python
"""Regenerate the golden regression fixtures under ``tests/golden/``.

Each JSON fixture freezes the full plain-text rendering (``api.run`` +
``render_text``) of one quick-scale figure reproduction (fig09
Alice-Bob, fig10 X topology, fig12 chain) at a pinned configuration.  ``tests/integration/test_golden.py``
replays the same experiments — through the serial engine and through two
worker processes — and requires byte-identical renderings, so any refactor
that silently drifts the reproduced numbers fails CI.  One
``render_<name>_quick.txt`` per registered experiment pins the
``render_text`` view of its JSON-round-tripped quick result
(``tests/results/test_results_render.py`` replays them).

Run from the repository root after an *intentional* change to the
reproduced numbers::

    PYTHONPATH=src python tools/make_golden.py

and commit the updated JSON files together with the change that justifies
them.  ``--output-dir DIR`` writes the fixtures somewhere else instead —
CI's golden-drift job regenerates into a temporary directory and diffs it
against ``tests/golden/``, so fixture regeneration can never silently
diverge from what is committed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import api  # noqa: E402
from repro.experiments.config import ExperimentConfig  # noqa: E402
from repro.experiments.runner import REGISTRY  # noqa: E402
from repro.results.model import ExperimentResult  # noqa: E402
from repro.results.render import render_text  # noqa: E402

GOLDEN_DIR = REPO_ROOT / "tests" / "golden"

#: The pinned quick-scale configuration every fixture is generated at.
GOLDEN_CONFIG_FIELDS = {"runs": 3, "packets_per_run": 4, "payload_bits": 512, "seed": 7}

#: The three figure experiments frozen as fixtures: fixture name ->
#: registry name.
GOLDEN_EXPERIMENTS = {
    "fig09_alice_bob": "alice-bob",
    "fig10_x_topology": "x",
    "fig12_chain": "chain",
}


#: The structured-result schema fixture: experiment and file name.
RESULT_FIXTURE_EXPERIMENT = "alice-bob"
RESULT_FIXTURE_NAME = "result_alice_bob_quick.json"

#: Time-domain scenarios frozen as structured-result fixtures (quick
#: sweep, serial engine).  ``tests/integration/test_golden.py`` replays
#: them serially (full-dict identity) and with a parallel engine
#: (series/scalars/digest identity).
GOLDEN_SCENARIOS = ("offered_load_sweep", "queueing_delay")


def scenario_fixture_name(scenario: str) -> str:
    """Fixture file name for one golden scenario."""
    return f"scenario_{scenario}_quick.json"


def render_fixture_name(name: str) -> str:
    """Text-fixture file name for one registered experiment."""
    return f"render_{name}_quick.txt"


def golden_config() -> ExperimentConfig:
    """The configuration the fixtures are pinned to."""
    return ExperimentConfig(**GOLDEN_CONFIG_FIELDS)


def normalized_result_dict(result) -> dict:
    """A result's ``to_dict`` with volatile fields pinned.

    Wall-clock timing is the only non-deterministic part of an
    :class:`~repro.results.model.ExperimentResult` produced by a serial
    cache-less engine; zeroing it makes the exported JSON reproducible,
    which is what lets ``tests/results/test_results_golden.py`` pin the
    whole schema byte-for-byte.
    """
    payload = result.to_dict()
    engine_meta = payload.get("meta", {}).get("engine")
    if engine_meta is not None:
        engine_meta["elapsed_seconds"] = 0.0
    return payload


def _describe(path: Path) -> str:
    """The path as printed: repo-relative when inside the repo."""
    try:
        return str(path.relative_to(REPO_ROOT))
    except ValueError:
        return str(path)


def main(argv=None) -> int:
    """Write one JSON fixture per golden experiment."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output-dir",
        type=Path,
        default=GOLDEN_DIR,
        help="directory to write the fixtures into (default: tests/golden/; "
        "CI's golden-drift job points this at a temp dir and diffs)",
    )
    args = parser.parse_args(argv)
    output_dir = args.output_dir
    output_dir.mkdir(parents=True, exist_ok=True)
    config = golden_config()
    for name, experiment in GOLDEN_EXPERIMENTS.items():
        payload = {
            "experiment": name,
            "config": GOLDEN_CONFIG_FIELDS,
            "render": render_text(api.run(experiment, config=config)),
        }
        path = output_dir / f"{name}.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {_describe(path)}")

    result = api.run(RESULT_FIXTURE_EXPERIMENT, config=config)
    path = output_dir / RESULT_FIXTURE_NAME
    path.write_text(
        json.dumps(normalized_result_dict(result), indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {_describe(path)}")

    for scenario in GOLDEN_SCENARIOS:
        result = api.run(scenario, config=config, quick=True)
        path = output_dir / scenario_fixture_name(scenario)
        path.write_text(
            json.dumps(normalized_result_dict(result), indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {_describe(path)}")

    for name in REGISTRY:
        result = api.run(name, config=config, quick=True)
        path = output_dir / render_fixture_name(name)
        path.write_text(render_text(ExperimentResult.from_json(result.to_json())) + "\n")
        print(f"wrote {_describe(path)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
