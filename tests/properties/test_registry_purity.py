"""A result is a pure function of (code, config, seed): not of order or workers.

Two fresh interpreters render every registered experiment at
``ExperimentConfig.quick()`` (``quick=True``): one in registry order on a
serial engine, the other in reverse order on two worker processes.  A
result that leaked state from an earlier experiment (a process-wide
cache, a shared generator) or from its worker placement would render
differently in one of them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro import api

SRC = Path(__file__).resolve().parents[2] / "src"

#: Renders every experiment named on argv and prints {name: sha256(render)}.
SCRIPT = """
import hashlib, json, sys
from repro import api
from repro.experiments import ExperimentConfig, ExperimentEngine
from repro.results import render_text

workers, names = int(sys.argv[1]), sys.argv[2:]
engine = ExperimentEngine(workers=workers)
digests = {}
for name in names:
    result = api.run(name, config=ExperimentConfig.quick(), engine=engine, quick=True)
    digests[name] = hashlib.sha256(render_text(result).encode()).hexdigest()
print(json.dumps(digests))
"""


def _render_digests(workers: int, names) -> dict:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    )}
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(workers), *names],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    return json.loads(completed.stdout)


def test_order_and_worker_count_do_not_move_a_render():
    names = api.list_experiments()
    assert len(names) == 14
    forward = _render_digests(1, names)
    backward = _render_digests(2, names[::-1])
    assert sorted(forward) == sorted(backward) == sorted(names)
    differing = [name for name in names if forward[name] != backward[name]]
    assert not differing, (
        f"{differing[0]} renders differently in reverse order on 2 workers "
        f"than in registry order on 1 (all differing: {differing})"
    )
