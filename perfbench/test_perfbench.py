"""Self-tests of the benchmark harness (no workload is run).

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

from __future__ import annotations

import importlib
import json
import threading
from pathlib import Path

import pytest

from perfbench import layers, run, spans
from perfbench.stats import percentile, quartiles
from perfbench.workloads import Outcome, text_digest

ROOT = Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def test_self_time_of_a_synthetic_nested_tree():
    # api [0,10] has two children that overlap, as jobs on two worker
    # threads do: coding [1,4] and coding [3,6]; the first has a
    # utils.pn child [2,3].
    tree = [
        (1, 0, "api", 0.0, 10.0),
        (2, 1, "coding", 1.0, 4.0),
        (3, 1, "coding", 3.0, 6.0),
        (4, 2, "utils.pn", 2.0, 3.0),
    ]
    totals = spans.self_times(tree)
    assert totals["api"].calls == 1
    assert totals["api"].self_s == pytest.approx(10.0 - 5.0)  # union [1,6]
    assert totals["coding"].calls == 2
    assert totals["coding"].self_s == pytest.approx((3.0 - 1.0) + 3.0)
    assert totals["utils.pn"].self_s == pytest.approx(1.0)
    assert spans.root_coverage(tree) == pytest.approx(10.0)


def test_covered_length_clips_and_merges():
    assert spans.covered_length([(0, 2), (1, 3), (5, 9)], 1, 6) == pytest.approx(3.0)
    assert spans.covered_length([], 0, 1) == 0.0


def test_wrapped_calls_nest_across_threads():
    tracer = spans.Tracer()
    inner = layers._wrap(lambda: None, "inner", None, tracer)

    def body():
        worker = threading.Thread(target=inner)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        inner()

    layers._wrap(body, "outer", None, tracer)()
    by_layer = {}
    for span_id, parent, layer, _, _ in tracer.spans:
        by_layer.setdefault(layer, []).append((span_id, parent))
    (outer_id, outer_parent), = by_layer["outer"]
    assert outer_parent == 0
    # A plain thread starts from an empty context; the same-thread call nests.
    assert sorted(parent for _, parent in by_layer["inner"]) == [0, outer_id]


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------
def test_percentile_needs_ten_samples_beyond_it():
    with pytest.raises(ValueError):
        percentile(list(range(99)), 90)
    assert percentile(list(range(100)), 90) == pytest.approx(89.1)
    with pytest.raises(ValueError):
        percentile(list(range(19)), 50)
    assert percentile(list(range(20)), 50) == pytest.approx(9.5)
    with pytest.raises(ValueError):
        percentile(list(range(1000)), 100)


def test_quartiles_report_any_sample():
    assert quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)


# ----------------------------------------------------------------------
# Output check and error_rate
# ----------------------------------------------------------------------
def test_perturbed_output_counts_in_error_rate():
    checker = run.Checker(reference=None)
    good = Outcome([text_digest("report")], packets=1)
    assert checker.add(good) == 0
    assert checker.add(good) == 0
    assert checker.add(Outcome([text_digest("report!")], packets=1)) == 1
    assert (checker.attempted, checker.failed) == (3, 1)
    assert checker.error_rate == pytest.approx(1 / 3)


def test_perturbed_job_counts_once():
    parts = [text_digest(str(i)) for i in range(4)]
    checker = run.Checker(reference=Outcome(parts, 0).digest)
    checker.add(Outcome(parts, 0))
    bad = list(parts)
    bad[2] = "status:failed"
    assert checker.add(Outcome(bad, 0)) == 1
    assert (checker.attempted, checker.failed) == (8, 1)


def test_output_off_the_reference_fails_every_operation():
    checker = run.Checker(reference=text_digest("recorded"))
    assert checker.add(Outcome(["a", "b"], 0)) == 2
    assert checker.add(Outcome(["a", "b"], 0)) == 2
    checker.add_error(3)
    assert (checker.attempted, checker.failed) == (7, 7)


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def _attribute(target):
    module = importlib.import_module(target.module)
    return vars(getattr(module, target.owner) if target.owner else module)[target.name]


def test_wrappers_are_transparent_and_removable():
    import repro.results
    from repro import api
    from repro.results.model import ExperimentResult

    before = [_attribute(target) for target in layers.TARGETS]
    plain = repro.results.render_text(api.run("capacity"))
    tracer = spans.Tracer()
    installed = layers.install(tracer)
    try:
        assert isinstance(vars(ExperimentResult)["from_json"], classmethod)
        result = ExperimentResult.from_json(api.run("capacity").to_json())
        traced = repro.results.render_text(result)
    finally:
        installed.uninstall()
    assert traced == plain
    assert {"api", "results"} <= {span[2] for span in tracer.spans}
    assert all(_attribute(t) is b for t, b in zip(layers.TARGETS, before))


# ----------------------------------------------------------------------
# BENCHMARK.json agrees with what the harness prints
# ----------------------------------------------------------------------
def test_manifest_lists_the_reported_metrics():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in manifest["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in manifest["per_layer"]] == layers.metric_names()
    for metric in manifest["end_to_end"] + manifest["per_layer"]:
        assert metric["unit"] == run.unit_of(metric["name"])
    assert sorted(w["name"] for w in manifest["workloads"]) == sorted(
        run.WORKLOADS
    )
