"""Tests for the campaign runner: execute once, resume, the CLI."""

import json
import multiprocessing
import re
import shutil
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro import api
from repro.campaign.runner import CampaignRunner
from repro.experiments import engine as engine_module
from repro.cli import main
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import ResultStore
from repro.exceptions import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.results.model import SCHEMA_VERSION, ExperimentResult
from repro.results.render import render_text


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


class TestExecution:
    def test_all_jobs_complete_and_store(self, tmp_path):
        store = ResultStore(tmp_path)
        runner = CampaignRunner(store=store, concurrency=2, job_fn=fake_result)
        report = runner.run(toy_spec())
        assert report.completed == 4 and report.cached == 0 and report.failed == 0
        assert len(store.digests()) == 4

    @pytest.mark.parametrize("store", [None, ResultStore(None)], ids=["none", "rootless"])
    def test_storeless_campaign_computes_everything_and_counts_nothing(self, store):
        runner = CampaignRunner(store=store, concurrency=2, job_fn=fake_result)
        for _ in range(2):
            report = runner.run(toy_spec())
            assert report.completed == 4 and report.cached == 0
            assert report.store_stats == {
                "hits": 0, "misses": 0, "puts": 0, "races": 0, "corrupt": 0,
            }

    def test_results_recorded_in_grid_order(self, tmp_path):
        runner = CampaignRunner(store=tmp_path, concurrency=4, job_fn=fake_result)
        report = runner.run(toy_spec())
        assert [o.job.index for o in report.outcomes] == [0, 1, 2, 3]


class TestFailure:
    def test_failing_job_runs_once_and_is_recorded(self, tmp_path, capsys, monkeypatch):
        calls = []

        def doomed(job):
            calls.append(job.config.seed)
            if job.config.seed == 2:
                raise RuntimeError("always broken")
            return fake_result(job)

        spec = toy_spec(seeds=(1, 2, 3))
        events = []
        store = ResultStore(tmp_path)
        runner = CampaignRunner(store=store, job_fn=doomed, progress=events.append)
        report = runner.run(spec)
        assert calls == [1, 2, 3]
        assert report.completed == 2 and report.failed == 1
        failure = report.failures()[0]
        assert failure.job.config.seed == 2
        assert "always broken" in failure.error
        assert [e["error"] for e in events if e["event"] == "failed"] == [failure.error]
        # The failed job is not stored, so a re-run executes it again.
        assert len(store.digests()) == 2
        assert failure.job.digest not in store

        # `campaign run` executes through api.run and exits 1 on a failure.
        jobs = {job.config: job for job in spec.jobs()}
        monkeypatch.setattr(api, "run", lambda name, config, engine, quick: doomed(jobs[config]))
        spec_path = tmp_path / "grid.json"
        spec_path.write_text(spec.to_json())
        assert main(["campaign", "run", str(spec_path), "--store", str(tmp_path)]) == 1
        assert calls == [1, 2, 3, 2]
        assert "0 computed, 2 from store, 1 failed" in capsys.readouterr().out


class TestResume:
    def test_rerun_serves_everything_from_store(self, tmp_path):
        runner = CampaignRunner(store=tmp_path, concurrency=2, job_fn=fake_result)
        assert runner.run(toy_spec()).completed == 4

        def must_not_run(job):
            raise AssertionError("stored job was recomputed")

        rerun = CampaignRunner(store=tmp_path, concurrency=2, job_fn=must_not_run)
        report = rerun.run(toy_spec())
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
        report = runner.run(spec)
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

        def counting(job):
            executed.append(job.config.seed)
            return fake_result(job)

        runner = CampaignRunner(store=tmp_path, concurrency=4, job_fn=counting)
        report = runner.run(spec)
        assert report.cached == 7 and report.completed == 3
        assert sorted(executed) == [j.config.seed for j in jobs[7:]]

    def test_superset_campaign_reuses_stored_results(self, tmp_path):
        executed = []

        def counting(job):
            executed.append(job.config.seed)
            return fake_result(job)

        runner = CampaignRunner(store=tmp_path, concurrency=2, job_fn=counting)
        assert runner.run(toy_spec(seeds=(1, 2))).completed == 2
        # A superset grid: the overlap must come from the store.
        report = runner.run(toy_spec(seeds=(1, 2, 3), name="superset"))
        assert report.cached == 2 and report.completed == 1
        assert sorted(executed) == [1, 2, 3]


class TestOnePool:
    """A campaign starts one process pool for all its jobs and leaves no worker."""

    #: runs=2 gives every job two trials, so concurrency 2 needs the pool.
    SPEC = toy_spec(base={"runs": 2, "packets_per_run": 2, "payload_bits": 64})

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        """Run the 4-job grid at concurrency 1 and 2, counting the pools started."""
        pools = []

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        outcome = {}
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine_module, "ProcessPoolExecutor", CountingPool)
            for concurrency in (1, 2):
                store = ResultStore(tmp_path_factory.mktemp(f"concurrency{concurrency}"))
                report = api.run_campaign(self.SPEC, store=store, concurrency=concurrency)
                outcome[concurrency] = {
                    "report": report,
                    "children": multiprocessing.active_children(),
                    "results": [store.get(job.digest) for job in self.SPEC.jobs()],
                }
        outcome["pools"] = pools
        return outcome

    def test_one_pool_for_the_grid(self, runs):
        assert runs[2]["report"].completed == 4 and runs[2]["report"].failed == 0
        assert runs["pools"] == [2]

    def test_stored_renders_equal_serial(self, runs):
        for concurrency in (1, 2):
            results = runs[concurrency]["results"]
            assert all(r.meta["engine"]["workers"] == concurrency for r in results)
        assert [render_text(r) for r in runs[2]["results"]] == [
            render_text(r) for r in runs[1]["results"]
        ]

    def test_no_worker_outlives_the_campaign(self, runs):
        assert runs[2]["children"] == []


def _nan_cell(text):
    payload = json.loads(text)
    payload["series"][0]["rows"][0][0] = float("nan")
    return json.dumps(payload)


def _object_cell(text):
    payload = json.loads(text)
    payload["series"][0]["rows"][0][0] = {"nested": 1}
    return json.dumps(payload)


def _document(path):
    """A stored entry's document part (after its seal and identity lines)."""
    return path.read_bytes().split(b"\n", 2)[2]


def _edit_first_scalar(text):
    """Change the first scalar's value: still valid JSON and a valid result."""
    edited, count = re.subn(
        r'("scalars": \{\s*"[^"]+": )(-?[0-9][0-9.eE+-]*)',
        lambda match: match.group(1) + repr(float(match.group(2)) + 1.0),
        text,
        count=1,
    )
    assert count == 1
    return edited


class TestCorruptEntry:
    """A stored entry is sealed, so a damaged document is recomputed, never served."""

    @pytest.fixture(scope="class")
    def stored(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("stored")
        assert api.run_campaign(toy_spec(), store=root, concurrency=1).completed == 4
        return root

    @pytest.mark.parametrize(
        "damage",
        [lambda text: text[: len(text) // 2], _nan_cell, _object_cell],
        ids=["invalid-json", "nan-cell", "object-cell"],
    )
    def test_damaged_document_is_recomputed(self, stored, tmp_path, damage):
        root = tmp_path / "store"
        shutil.copytree(stored, root)
        victim = toy_spec().jobs()[2]
        path = ResultStore(root).path(victim.digest)
        original = ResultStore(stored).get(victim.digest)
        seal, identity, document = path.read_text().split("\n", 2)
        path.write_text("\n".join((seal, identity, damage(document))))

        report = api.run_campaign(toy_spec(), store=root, concurrency=1)
        assert [o.status for o in report.outcomes] == ["cached", "cached", "completed", "cached"]
        assert report.store_stats["corrupt"] == 1
        assert render_text(ResultStore(root).get(victim.digest)) == render_text(original)

    def test_edited_scalar_is_recomputed(self, stored, tmp_path):
        root = tmp_path / "store"
        shutil.copytree(stored, root)
        victim = toy_spec().jobs()[1]
        path = ResultStore(root).path(victim.digest)
        original = ResultStore(stored).get(victim.digest)
        path.write_text(_edit_first_scalar(path.read_text()))

        report = api.run_campaign(toy_spec(), store=root, concurrency=1)
        assert [o.status for o in report.outcomes] == ["cached", "completed", "cached", "cached"]
        assert report.store_stats["corrupt"] == 1
        assert render_text(ResultStore(root).get(victim.digest)) == render_text(original)

    def test_document_of_another_job_is_recomputed(self, stored, tmp_path, caplog):
        root = tmp_path / "store"
        shutil.copytree(stored, root)
        seed_1, seed_2 = toy_spec().jobs()[:2]
        store = ResultStore(root)
        shutil.copyfile(store.path(seed_1.digest), store.path(seed_2.digest))

        report = api.run_campaign(toy_spec(), store=root, concurrency=1)
        assert [o.status for o in report.outcomes] == ["cached", "completed", "cached", "cached"]
        assert report.store_stats["corrupt"] == 1
        assert "SealError" in caplog.text
        stored_2 = ResultStore(root).get(seed_2.digest)
        assert stored_2.seed == 2
        assert ExperimentConfig.from_snapshot(stored_2.config) == seed_2.config


class TestReport:
    def test_report_shapes(self, tmp_path):
        runner = CampaignRunner(store=tmp_path, concurrency=2, job_fn=fake_result)
        report = runner.run(toy_spec(seeds=(1, 2)))
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
        first = runner.run(toy_spec())

        def must_not_run(job):
            raise AssertionError("stored job was recomputed")

        rerun = CampaignRunner(store=tmp_path, concurrency=2, job_fn=must_not_run)
        again = rerun.run(toy_spec(name="other-label"))
        assert again.as_dict()["campaign"] == first.as_dict()["campaign"]
        assert again.cached == 4 and again.completed == 0
        assert len(ResultStore(tmp_path).digests()) == 4

    def test_fetch_single_result_by_digest(self, tmp_path):
        spec = toy_spec()
        CampaignRunner(store=tmp_path, job_fn=fake_result).run(spec)
        store = ResultStore(tmp_path)
        for job in spec.jobs():
            result = store.get(job.digest)
            assert result.scalars["seed"] == float(job.config.seed)
            assert json.loads(_document(store.path(job.digest)))["scalars"] == result.scalars

    def test_digest_outside_grid_is_a_miss(self, tmp_path):
        CampaignRunner(store=tmp_path, job_fn=fake_result).run(toy_spec())
        store = ResultStore(tmp_path)
        assert store.get("ab" * 32) is None
        assert "ab" * 32 not in store

    def test_progress_events_account_for_every_job(self, tmp_path):
        events = []
        runner = CampaignRunner(
            store=tmp_path, concurrency=2, job_fn=fake_result, progress=events.append
        )
        spec = toy_spec(seeds=(5, 6, 7))
        runner.run(spec)
        digests = [job.digest for job in spec.jobs()]
        for digest in digests:
            kinds = [e["event"] for e in events if e["digest"] == digest]
            assert kinds == ["started", "completed"]
        events.clear()
        runner.run(spec)
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
        assert "does not read the config field(s) arrival_rate" in capsys.readouterr().err

    def test_malformed_spec_is_clean_error(self, tmp_path, capsys):
        spec_path = tmp_path / "grid.json"
        spec_path.write_text(json.dumps({"bogus": True}))
        assert main(["campaign", "run", str(spec_path)]) == 2
        assert "unknown key(s): bogus" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "base",
        [
            {"overlap_range": [0.8]},
            {"snr_db_range": 25},
            {"impairments": {"bogus": 1}},
            {"impairments": {"sender_cfo": "x"}},
            {"impairments": {"fading_doppler": "x"}},
            {"impairments": {"fading": "rician", "rician_k_db": "x"}},
            {"impairments": {"rician_k_db": "x"}},
            {"impairments": {"rician_k_db": 10.0}},
        ],
        ids=[
            "range_one_end",
            "range_scalar",
            "impairment_key",
            "cfo_string",
            "doppler_string",
            "rician_k_string",
            "k_string_without_fading",
            "k_set_without_rician",
        ],
    )
    def test_malformed_base_value_is_clean_error(self, tmp_path, capsys, base):
        spec_path = tmp_path / "grid.json"
        spec_path.write_text(json.dumps({"experiment": "alice-bob", "base": base}))
        assert main(["campaign", "run", str(spec_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("anc-repro: error: ")
        assert "Traceback" not in err
