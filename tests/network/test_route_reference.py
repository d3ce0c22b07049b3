"""Routes and mesh bridges match networkx, the reference they replaced.

networkx is not a runtime dependency; it stays installed for these
tests only.  Every topology that the registry entries build at golden
size, plus a seeded generator sweep, is built in a subprocess in which
``import networkx`` fails.  That subprocess logs each topology's
``add_node`` / ``add_link`` calls.  Here each log is replayed twice:

* into a :class:`Topology`, whose :meth:`~Topology.shortest_path` is the
  candidate;
* into a ``networkx.DiGraph``, reduced to its routable links the way
  ``Topology.routable_graph()`` did before networkx left (nodes in
  insertion order, then routable edges in edge order), whose
  ``nx.shortest_path`` is the reference.

Every ordered node pair must get the same route, tie-breaks included.
The figure benchmarks build the same canonical topologies as the
registry entries (their structure does not depend on the seed), so the
registry runs cover them.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

from repro.channel.link import Link
from repro.exceptions import TopologyError
from repro.experiments.runner import REGISTRY
from repro.network.generator import _component_bridges
from repro.network.topology import Topology

REPO = Path(__file__).resolve().parents[2]
GOLDEN_DIR = REPO / "tests" / "golden"

#: Runs with networkx unimportable.  Prints one JSON document: each
#: registry entry's quick render, and the distinct construction logs of
#: the topologies the registry runs and the generator sweep build.
_BUILD_SCRIPT = """
import json, sys
sys.modules["networkx"] = None

import numpy as np
from repro import api
from repro.channel.link import Link
from repro.experiments import ExperimentConfig
from repro.experiments.runner import REGISTRY
from repro.network import generator
from repro.network.topologies import ChannelConditions, chain_topology
from repro.network.topology import Topology
from repro.results import ExperimentResult, render_text

logs = {}
add_node, add_link = Topology.add_node, Topology.add_link

def logged_node(self, node_id, *args, **kwargs):
    add_node(self, node_id, *args, **kwargs)
    logs.setdefault(self, []).append(["node", int(node_id)])

def logged_link(self, source, destination, link, routable=True):
    add_link(self, source, destination, link, routable)
    logs.setdefault(self, []).append(["link", int(source), int(destination), bool(routable)])

Topology.add_node, Topology.add_link = logged_node, logged_link

def distinct():
    found = sorted({json.dumps(log) for log in logs.values()})
    logs.clear()
    return [json.loads(log) for log in found]

config = ExperimentConfig(runs=3, packets_per_run=4, payload_bits=512, seed=7)
renders = {}
for name in REGISTRY:
    result = api.run(name, config=config, quick=True)
    renders[name] = render_text(ExperimentResult.from_json(result.to_json())) + "\\n"
for name in ("alice-bob", "x", "chain"):
    api.run(name, config=config)
registry = distinct()

conditions = ChannelConditions()
for seed in range(12):
    rng = np.random.default_rng(seed)
    chain_topology(conditions, rng, hops=2 + seed % 6)
    star = Topology()
    for node in range(3 + seed % 6):
        star.add_node(node)
    for leaf in range(1, 3 + seed % 6):
        star.add_symmetric_link(leaf, 0, Link())
for seed in range(60):
    rng = np.random.default_rng(seed)
    generator.generate_random_mesh(conditions, rng)
    generator.generate_geometric_mesh(conditions, rng)
print(json.dumps({"renders": renders, "registry": registry, "sweep": distinct()}))
"""


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """Renders and construction logs from the networkx-free subprocess."""
    completed = subprocess.run(
        [sys.executable, "-c", _BUILD_SCRIPT],
        env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
        cwd=tmp_path_factory.mktemp("no-networkx"),
        capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout)


def _replay(log):
    """The candidate topology and the reference routable graph of one log."""
    topology = Topology()
    full = nx.DiGraph()
    for entry in log:
        if entry[0] == "node":
            topology.add_node(entry[1])
            full.add_node(entry[1])
        else:
            _, source, destination, routable = entry
            topology.add_link(source, destination, Link(), routable=routable)
            full.add_edge(source, destination, routable=routable)
    reference = nx.DiGraph()
    reference.add_nodes_from(full.nodes)
    for source, destination, data in full.edges(data=True):
        if data["routable"]:
            reference.add_edge(source, destination)
    return topology, reference


def _compare_routes(logs):
    """Route mismatches, ordered pairs checked and pairs with tied routes."""
    mismatches, pairs, tied = [], 0, 0
    for log in logs:
        topology, reference = _replay(log)
        for source, destination in itertools.permutations(reference.nodes, 2):
            pairs += 1
            try:
                expected = nx.shortest_path(reference, source, destination)
            except nx.NetworkXNoPath:
                expected = None
            try:
                got = topology.shortest_path(source, destination)
            except TopologyError:
                got = None
            if got != expected:
                mismatches.append((log, source, destination, got, expected))
            elif expected is not None:
                routes = nx.all_shortest_paths(reference, source, destination)
                tied += len(list(itertools.islice(routes, 2))) == 2
    return mismatches, pairs, tied


def test_registry_runs_without_networkx(built):
    assert list(built["renders"]) == list(REGISTRY)
    for name, text in built["renders"].items():
        assert text == (GOLDEN_DIR / f"render_{name}_quick.txt").read_text(), name


@pytest.mark.parametrize("source", ["registry", "sweep"])
def test_routes_match_networkx(built, source):
    mismatches, pairs, tied = _compare_routes(built[source])
    assert mismatches == []
    # Ties are where the visiting order decides the route; without them
    # the comparison would prove nothing about it.
    assert tied > 0 and pairs > tied


def _reference_bridges(topology, positions):
    """Mesh bridges computed the way the generator did with networkx."""
    bridges = []
    undirected = nx.Graph()
    undirected.add_nodes_from(topology.nodes)
    undirected.add_edges_from(topology.edges())
    components = [sorted(c) for c in nx.connected_components(undirected)]
    while len(components) > 1:
        base = components[0]
        _, a, b = min(
            (float(np.linalg.norm(positions[x] - positions[y])), x, y)
            for other in components[1:]
            for x in base
            for y in other
        )
        bridges.append((a, b))
        undirected.add_edge(a, b)
        components = [sorted(c) for c in nx.connected_components(undirected)]
    return bridges


def test_component_bridges_match_networkx():
    bridged = 0
    for seed, nodes in itertools.product(range(40), (5, 12, 25)):
        rng = np.random.default_rng(seed)
        positions = {node: rng.uniform(0.0, 1.0, size=2) for node in range(1, nodes + 1)}
        topology = Topology()
        for node in positions:
            topology.add_node(node)
        for a, b in itertools.combinations(positions, 2):
            if np.linalg.norm(positions[a] - positions[b]) <= 0.1:
                topology.add_symmetric_link(a, b, Link())
        bridges = _component_bridges(topology, positions)
        assert bridges == _reference_bridges(topology, positions)
        bridged += len(bridges) > 1
    assert bridged > 100
