"""How much work resuming a stored campaign job costs: one read, no parse.

``CampaignRunner`` checks each stored job with ``ResultStore.holds``: it
reads the entry once, verifies its seal and compares its identity line
with the job's experiment and config digest.  It never parses the JSON
document or rebuilds the ``ExperimentResult``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import ResultStore
from repro.results.model import ExperimentResult

JOBS = 12

SPEC = CampaignSpec(
    "alice-bob", base={"runs": 1, "packets_per_run": 1}, axes={"seed": list(range(JOBS))}
)


def _fake_result(job):
    """A schema-valid stand-in for a computed experiment result."""
    return ExperimentResult(
        name=job.experiment, kind="figure", config=job.config.snapshot(),
        scalars={"seed": float(job.config.seed)},
    )


def _must_not_run(job):
    raise AssertionError(f"stored job {job.index} was recomputed")


@pytest.fixture
def counts(monkeypatch):
    """Calls of ``json.loads`` and ``ExperimentResult.from_json``, and reads per path."""
    tally = {"json.loads": 0, "from_json": 0, "reads": {}}
    loads = json.loads
    from_json = ExperimentResult.from_json.__func__
    read_bytes = Path.read_bytes

    def counted_loads(*args, **kwargs):
        tally["json.loads"] += 1
        return loads(*args, **kwargs)

    def counted_from_json(cls, text):
        tally["from_json"] += 1
        return from_json(cls, text)

    def counted_read_bytes(path):
        tally["reads"][path] = tally["reads"].get(path, 0) + 1
        return read_bytes(path)

    monkeypatch.setattr(json, "loads", counted_loads)
    monkeypatch.setattr(ExperimentResult, "from_json", classmethod(counted_from_json))
    monkeypatch.setattr(Path, "read_bytes", counted_read_bytes)
    return tally


def test_resume_reads_each_entry_once_and_parses_nothing(tmp_path, counts):
    jobs = SPEC.jobs()
    CampaignRunner(store=tmp_path, concurrency=1, job_fn=_fake_result).run_jobs(SPEC, jobs)
    counts.update({"json.loads": 0, "from_json": 0, "reads": {}})

    store = ResultStore(tmp_path)
    report = CampaignRunner(store=store, concurrency=1, job_fn=_must_not_run).run_jobs(SPEC, jobs)
    assert report.cached == JOBS
    assert report.store_stats == {"hits": JOBS, "misses": 0, "puts": 0, "races": 0, "corrupt": 0}
    assert counts["json.loads"] == 0
    assert counts["from_json"] == 0
    assert counts["reads"] == {store.path(job.digest): 1 for job in jobs}


def test_counters_see_a_full_read(tmp_path, counts):
    """The counters are live: ``ResultStore.get`` parses, once per entry."""
    jobs = SPEC.jobs()
    CampaignRunner(store=tmp_path, concurrency=1, job_fn=_fake_result).run_jobs(SPEC, jobs)
    counts.update({"json.loads": 0, "from_json": 0, "reads": {}})

    store = ResultStore(tmp_path)
    assert all(store.get(job.digest) is not None for job in jobs)
    assert counts["from_json"] == JOBS
    assert counts["json.loads"] == JOBS
    assert counts["reads"] == {store.path(job.digest): 1 for job in jobs}
