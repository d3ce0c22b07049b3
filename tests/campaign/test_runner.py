"""Tests for the asyncio campaign runner: retries, resume, the CLI."""

import json
import threading

import pytest

from repro import api
from repro.campaign.runner import CampaignRunner
from repro.cli import main
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import ResultStore
from repro.exceptions import ConfigurationError
from repro.results.model import SCHEMA_VERSION, ExperimentResult


def toy_spec(seeds=(1, 2, 3, 4), **overrides):
    """A tiny alice-bob grid; tests inject job_fn so nothing real runs."""
    kwargs = dict(
        experiment="alice-bob",
        base={"runs": 1, "packets_per_run": 2, "payload_bits": 64},
        axes={"seed": tuple(seeds)},
        quick=True,
        name="runner-unit",
    )
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


def fake_result(job):
    """A schema-valid stand-in for a computed experiment result."""
    return ExperimentResult(
        name=job.experiment,
        kind="figure",
        config=job.config.snapshot(),
        scalars={"seed": float(job.config.seed)},
    )


class TestPolicyValidation:
    def test_bad_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            CampaignRunner(concurrency=0)
        with pytest.raises(ConfigurationError):
            CampaignRunner(retries=-1)
        with pytest.raises(ConfigurationError):
            CampaignRunner(backoff=-0.1)


class TestExecution:
    def test_all_jobs_complete_and_store(self, tmp_path):
        store = ResultStore(tmp_path)
        runner = CampaignRunner(store=store, concurrency=2, job_fn=fake_result)
        report = runner.run_sync(toy_spec())
        assert report.completed == 4 and report.cached == 0 and report.failed == 0
        assert len(store.digests()) == 4

    @pytest.mark.parametrize("store", [None, ResultStore(None)], ids=["none", "rootless"])
    def test_storeless_campaign_computes_everything_and_counts_nothing(self, store):
        runner = CampaignRunner(store=store, concurrency=2, job_fn=fake_result)
        for _ in range(2):
            report = runner.run_sync(toy_spec())
            assert report.completed == 4 and report.cached == 0
            assert report.store_stats == {
                "hits": 0, "misses": 0, "puts": 0, "races": 0, "corrupt": 0,
            }

    def test_concurrency_bound_respected(self, tmp_path):
        active = {"now": 0, "peak": 0}
        lock = threading.Lock()

        def tracked(job):
            with lock:
                active["now"] += 1
                active["peak"] = max(active["peak"], active["now"])
            try:
                return fake_result(job)
            finally:
                with lock:
                    active["now"] -= 1

        runner = CampaignRunner(store=tmp_path, concurrency=2, job_fn=tracked)
        report = runner.run_sync(toy_spec(seeds=tuple(range(1, 9))))
        assert report.completed == 8
        assert active["peak"] <= 2

    def test_results_recorded_in_grid_order(self, tmp_path):
        runner = CampaignRunner(store=tmp_path, concurrency=4, job_fn=fake_result)
        report = runner.run_sync(toy_spec())
        assert [o.job.index for o in report.outcomes] == [0, 1, 2, 3]


class TestRetries:
    def test_flaky_job_retried_to_success(self, tmp_path):
        calls = {}
        lock = threading.Lock()

        def flaky(job):
            with lock:
                calls[job.digest] = calls.get(job.digest, 0) + 1
                attempt = calls[job.digest]
            if job.config.seed == 2 and attempt < 3:
                raise RuntimeError(f"injected failure {attempt}")
            return fake_result(job)

        events = []
        runner = CampaignRunner(
            store=tmp_path, concurrency=2, retries=2, backoff=0.0,
            job_fn=flaky, progress=events.append,
        )
        report = runner.run_sync(toy_spec(seeds=(1, 2)))
        assert report.completed == 2 and report.failed == 0
        flaky_outcome = next(o for o in report.outcomes if o.job.config.seed == 2)
        assert flaky_outcome.attempts == 3
        retries = [e for e in events if e["event"] == "retry"]
        assert len(retries) == 2
        assert "injected failure" in retries[0]["error"]

    def test_exhausted_retries_fail_without_sinking_campaign(self, tmp_path):
        def doomed(job):
            if job.config.seed == 2:
                raise RuntimeError("always broken")
            return fake_result(job)

        store = ResultStore(tmp_path)
        runner = CampaignRunner(
            store=store, concurrency=2, retries=1, backoff=0.0, job_fn=doomed
        )
        report = runner.run_sync(toy_spec(seeds=(1, 2, 3)))
        assert report.completed == 2 and report.failed == 1
        failure = report.failures()[0]
        assert failure.attempts == 2
        assert "always broken" in failure.error
        # The failed job must not be stored (a re-run retries it).
        assert len(store.digests()) == 2

    def test_backoff_doubles(self, tmp_path):
        events = []

        def doomed(job):
            raise RuntimeError("nope")

        runner = CampaignRunner(
            store=tmp_path, concurrency=1, retries=2, backoff=0.01,
            job_fn=doomed, progress=events.append,
        )
        report = runner.run_sync(toy_spec(seeds=(1,)))
        assert report.failed == 1
        delays = [e["delay_seconds"] for e in events if e["event"] == "retry"]
        assert delays == [0.01, 0.02]


class TestResume:
    def test_rerun_serves_everything_from_store(self, tmp_path):
        runner = CampaignRunner(store=tmp_path, concurrency=2, job_fn=fake_result)
        assert runner.run_sync(toy_spec()).completed == 4

        def must_not_run(job):
            raise AssertionError("stored job was recomputed")

        rerun = CampaignRunner(store=tmp_path, concurrency=2, job_fn=must_not_run)
        report = rerun.run_sync(toy_spec())
        assert report.cached == 4 and report.completed == 0 and report.failed == 0

    def test_thousand_job_resume_zero_recompute(self, tmp_path):
        # The acceptance criterion: a killed 1000-job campaign re-run
        # completes with zero recomputation.  The store is pre-populated
        # (as if the first run finished all jobs before dying) and the
        # injected executor asserts nothing executes.
        spec = toy_spec(seeds=tuple(range(1, 1001)))
        jobs = spec.jobs()
        assert len(jobs) == 1000
        store = ResultStore(tmp_path)
        for job in jobs:
            store.put(job.digest, fake_result(job))

        def must_not_run(job):
            raise AssertionError("stored job was recomputed")

        runner = CampaignRunner(store=tmp_path, concurrency=8, job_fn=must_not_run)
        report = runner.run_sync(spec)
        assert report.total == 1000
        assert report.cached == 1000 and report.completed == 0 and report.failed == 0
        # Store accounting: 1000 hits for this handle, zero new puts.
        assert report.store_stats["hits"] == 1000
        assert report.store_stats["puts"] == 0

    def test_partial_store_computes_only_the_gap(self, tmp_path):
        spec = toy_spec(seeds=tuple(range(1, 11)))
        jobs = spec.jobs()
        store = ResultStore(tmp_path)
        for job in jobs[:7]:
            store.put(job.digest, fake_result(job))
        executed = []
        lock = threading.Lock()

        def counting(job):
            with lock:
                executed.append(job.config.seed)
            return fake_result(job)

        runner = CampaignRunner(store=tmp_path, concurrency=4, job_fn=counting)
        report = runner.run_sync(spec)
        assert report.cached == 7 and report.completed == 3
        assert sorted(executed) == [j.config.seed for j in jobs[7:]]

    def test_superset_campaign_reuses_stored_results(self, tmp_path):
        executed = []
        lock = threading.Lock()

        def counting(job):
            with lock:
                executed.append(job.config.seed)
            return fake_result(job)

        runner = CampaignRunner(store=tmp_path, concurrency=2, job_fn=counting)
        assert runner.run_sync(toy_spec(seeds=(1, 2))).completed == 2
        # A superset grid: the overlap must come from the store.
        report = runner.run_sync(toy_spec(seeds=(1, 2, 3), name="superset"))
        assert report.cached == 2 and report.completed == 1
        assert sorted(executed) == [1, 2, 3]


class TestReport:
    def test_report_shapes(self, tmp_path):
        runner = CampaignRunner(store=tmp_path, concurrency=2, job_fn=fake_result)
        report = runner.run_sync(toy_spec(seeds=(1, 2)))
        payload = report.as_dict()
        assert payload["total"] == 2
        assert payload["campaign"] == toy_spec(seeds=(1, 2)).campaign_id()
        assert len(payload["jobs"]) == 2
        assert "campaign runner-unit" in report.summary()
        with pytest.raises(ConfigurationError):
            report.count("bogus")


class TestLocalCampaign:
    def test_run_campaign_reports_and_stores_results(self, tmp_path):
        report = api.run_campaign(toy_spec(seeds=(1, 2)), store=tmp_path, concurrency=2)
        assert report.completed == 2 and report.cached == 0 and report.failed == 0
        store = ResultStore(tmp_path)
        results = [store.get(outcome.job.digest) for outcome in report.outcomes]
        assert all(r.schema_version == SCHEMA_VERSION for r in results)
        assert [r.config["seed"] for r in results] == [1, 2]

    def test_rerun_under_another_name_is_idempotent(self, tmp_path):
        runner = CampaignRunner(store=tmp_path, concurrency=2, job_fn=fake_result)
        first = runner.run_sync(toy_spec())

        def must_not_run(job):
            raise AssertionError("stored job was recomputed")

        rerun = CampaignRunner(store=tmp_path, concurrency=2, job_fn=must_not_run)
        again = rerun.run_sync(toy_spec(name="other-label"))
        assert again.as_dict()["campaign"] == first.as_dict()["campaign"]
        assert again.cached == 4 and again.completed == 0
        assert len(ResultStore(tmp_path).digests()) == 4

    def test_fetch_single_result_by_digest(self, tmp_path):
        spec = toy_spec()
        CampaignRunner(store=tmp_path, job_fn=fake_result).run_sync(spec)
        store = ResultStore(tmp_path)
        for job in spec.jobs():
            result = store.get(job.digest)
            assert result.scalars["seed"] == float(job.config.seed)
            assert json.loads(store.path(job.digest).read_text())["scalars"] == result.scalars

    def test_digest_outside_grid_is_a_miss(self, tmp_path):
        CampaignRunner(store=tmp_path, job_fn=fake_result).run_sync(toy_spec())
        store = ResultStore(tmp_path)
        assert store.get("ab" * 32) is None
        assert "ab" * 32 not in store

    def test_progress_events_account_for_every_job(self, tmp_path):
        events = []
        runner = CampaignRunner(
            store=tmp_path, concurrency=2, job_fn=fake_result, progress=events.append
        )
        spec = toy_spec(seeds=(5, 6, 7))
        runner.run_sync(spec)
        digests = [job.digest for job in spec.jobs()]
        for digest in digests:
            kinds = [e["event"] for e in events if e["digest"] == digest]
            assert kinds == ["started", "completed"]
        events.clear()
        runner.run_sync(spec)
        assert sorted(e["digest"] for e in events) == sorted(digests)
        assert {e["event"] for e in events} == {"cached"}


class TestCampaignCommand:
    def test_sharded_run_then_resume(self, tmp_path, capsys):
        spec_path = tmp_path / "grid.json"
        spec_path.write_text(toy_spec(seeds=(1, 2, 3)).to_json())
        store = str(tmp_path / "store")
        payloads = []
        for shard in ("0", "1"):
            report = tmp_path / f"shard{shard}.json"
            argv = ["campaign", "run", str(spec_path), "--store", store,
                    "--shard-index", shard, "--shard-count", "2",
                    "--format", "json", "--output", str(report)]
            assert main(argv) == 0
            payloads.append(json.loads(report.read_text()))
        assert [p["total"] for p in payloads] == [2, 1]
        assert sum(p["completed"] for p in payloads) == 3
        assert len(ResultStore(store).digests()) == 3
        assert main(["campaign", "run", str(spec_path), "--store", store]) == 0
        assert "0 computed, 3 from store, 0 failed" in capsys.readouterr().out

    def test_bad_spec_is_clean_error(self, tmp_path, capsys):
        spec_path = tmp_path / "grid.json"
        spec_path.write_text(json.dumps({"experiment": "chain_sweep",
                                         "base": {"arrival_rate": 0.5}}))
        assert main(["campaign", "run", str(spec_path)]) == 2
        assert "ignores the traffic knob" in capsys.readouterr().err

    def test_malformed_spec_is_clean_error(self, tmp_path, capsys):
        spec_path = tmp_path / "grid.json"
        spec_path.write_text(json.dumps({"bogus": True}))
        assert main(["campaign", "run", str(spec_path)]) == 2
        assert "unknown key(s): bogus" in capsys.readouterr().err
