"""Tests for the parallel, resumable :class:`ExperimentEngine`.

Covers the three guarantees the experiment runners rely on:

* serial (``workers=1``) and parallel (``workers>1``) execution produce
  bit-identical results, because every trial's randomness is keyed by its
  trial index rather than by execution order;
* completed trials cached to disk are reused on resume, and only the
  missing trials are recomputed;
* the cache is keyed by the full (experiment, trial function, config,
  params) digest, so changing any of them invalidates it.
"""

from __future__ import annotations

import multiprocessing
import os
import re
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro import api
from repro.exceptions import ConfigurationError
from repro.experiments.alice_bob import run_alice_bob_experiment, run_alice_bob_trial
from repro.experiments import engine as engine_module
from repro.experiments.config import ExperimentConfig
from repro.experiments.engine import ExperimentEngine, _key_token, default_engine
from repro.experiments.runner import REGISTRY
from repro.experiments.sir_sweep import sir_points
from repro.experiments.snr_sweep import snr_points
from repro.results.render import render_text
from repro.store import content_digest


def _draw_trial(cfg: ExperimentConfig, key: int) -> float:
    """Toy trial: one deterministic draw from the key's substream."""
    return float(cfg.run_rng(key, stream=0).uniform())


def _echo_trial(cfg: ExperimentConfig, key, scale: float = 1.0):
    """Toy trial echoing its key (scaled), for ordering/params tests."""
    return (key, scale)


def _failing_trial(cfg: ExperimentConfig, key: int) -> float:
    """Toy trial that always raises."""
    raise RuntimeError(f"trial {key} exploded")


def _exit_worker(cfg: ExperimentConfig, key: int) -> float:
    """Toy trial that kills the worker process running it."""
    os._exit(1)


def _none_trial(cfg: ExperimentConfig, key: int) -> None:
    """Toy trial whose legitimate result is ``None``."""
    return None


def _trial_file(engine: ExperimentEngine, digest: str, key):
    """Where ``engine`` caches trial ``key`` of the task with ``digest``."""
    return engine.store.path(content_digest({"task": digest, "key": _key_token(key)}, 64))


@pytest.fixture
def quick_config() -> ExperimentConfig:
    return ExperimentConfig.quick(seed=11)


class TestMapBasics:
    def test_results_in_key_order(self, quick_config):
        engine = ExperimentEngine()
        results = engine.map("toy", _echo_trial, quick_config, [4, 2, 9])
        assert [r[0] for r in results] == [4, 2, 9]

    def test_params_are_forwarded(self, quick_config):
        engine = ExperimentEngine()
        results = engine.map(
            "toy", _echo_trial, quick_config, [0, 1], params={"scale": 2.5}
        )
        assert all(r[1] == 2.5 for r in results)

    def test_duplicate_keys_rejected(self, quick_config):
        with pytest.raises(ConfigurationError):
            ExperimentEngine().map("toy", _echo_trial, quick_config, [1, 1])

    def test_invalid_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentEngine(workers=0)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_trial_errors_propagate(self, quick_config, workers):
        with ExperimentEngine(workers=workers) as engine:
            with pytest.raises(RuntimeError, match="exploded"):
                engine.map("toy", _failing_trial, quick_config, range(2))

    def test_stats_recorded(self, quick_config):
        engine = ExperimentEngine()
        engine.map("toy", _draw_trial, quick_config, range(5))
        stats = engine.last_stats
        assert stats.total_trials == 5
        assert stats.executed_trials == 5
        assert stats.cached_trials == 0
        assert stats.workers == 1

    def test_default_engine_fallback(self):
        engine = ExperimentEngine(workers=1)
        assert default_engine(engine) is engine
        assert default_engine(None).workers == 1


class TestSerialParallelEquivalence:
    def test_toy_trials_identical(self, quick_config):
        serial = ExperimentEngine(workers=1).map(
            "toy", _draw_trial, quick_config, range(6)
        )
        with ExperimentEngine(workers=2) as engine:
            parallel = engine.map("toy", _draw_trial, quick_config, range(6))
        assert serial == parallel

    def test_alice_bob_report_bit_identical(self, quick_config):
        serial = run_alice_bob_experiment(quick_config, engine=ExperimentEngine(workers=1))
        with ExperimentEngine(workers=2) as engine:
            parallel = run_alice_bob_experiment(quick_config, engine=engine)
        # Exact equality, not approx: parallel execution must reproduce the
        # serial result tables bit for bit.
        assert serial == parallel
        assert render_text(serial) == render_text(parallel)

    def test_sir_sweep_bit_identical(self, quick_config):
        kwargs = dict(sir_db_values=(-3.0, 1.0), packets_per_point=2)
        serial = sir_points(quick_config, engine=ExperimentEngine(workers=1), **kwargs)
        with ExperimentEngine(workers=2) as engine:
            parallel = sir_points(quick_config, engine=engine, **kwargs)
        assert serial == parallel


class TestDispatch:
    """One future per trial must be invisible in results, caching and order."""

    def test_parallel_run_matches_serial_and_caches_per_trial(self, quick_config, tmp_path):
        reference = ExperimentEngine().map("toy", _draw_trial, quick_config, range(7))
        with ExperimentEngine(workers=2, cache_dir=tmp_path) as parallel:
            assert parallel.map("toy", _draw_trial, quick_config, range(7)) == reference
        assert parallel.last_stats.executed_trials == 7
        # A serial engine reuses every trial the pool wrote.
        resumed = ExperimentEngine(cache_dir=tmp_path)
        assert resumed.map("toy", _draw_trial, quick_config, range(7)) == reference
        assert resumed.last_stats.cached_trials == 7
        assert resumed.last_stats.executed_trials == 0

    def test_interrupted_run_persists_per_trial(self, quick_config, tmp_path):
        """An interruption must not lose the trials completed before it."""

        def _fail_on_two(cfg, key):
            if key == 2:
                raise RuntimeError("boom")
            return key

        # Module-level picklability is not needed on the in-process path.
        engine = ExperimentEngine(cache_dir=tmp_path)
        with pytest.raises(RuntimeError):
            engine.map("toy", _fail_on_two, quick_config, range(4))
        digest = ExperimentEngine.task_digest("toy", _fail_on_two, quick_config)
        cached = sorted(tmp_path.rglob("*.pkl"))
        assert cached == sorted(_trial_file(engine, digest, key) for key in (0, 1))

    def test_single_pending_trial_stays_in_process(self, quick_config):
        # A local function cannot be pickled, so this passes only if the
        # engine does not start a pool for one trial.
        def _local(cfg, key):
            return key

        assert ExperimentEngine(workers=2).map("toy", _local, quick_config, [5]) == [5]

    def test_one_pool_across_calls_until_closed(self, quick_config, monkeypatch):
        pools = []

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(engine_module, "ProcessPoolExecutor", CountingPool)
        reference = ExperimentEngine().map("toy", _draw_trial, quick_config, range(3))
        with ExperimentEngine(workers=2) as engine:
            for _ in range(3):
                assert engine.map("toy", _draw_trial, quick_config, range(3)) == reference
            assert pools == [2] and multiprocessing.active_children()
        assert multiprocessing.active_children() == []
        # A closed engine starts a new pool when it is used again.
        with engine:
            assert engine.map("toy", _draw_trial, quick_config, range(3)) == reference
        assert pools == [2, 2] and multiprocessing.active_children() == []

    def test_broken_pool_is_replaced(self, quick_config):
        reference = ExperimentEngine().map("toy", _draw_trial, quick_config, range(3))
        with ExperimentEngine(workers=2) as engine:
            with pytest.raises(BrokenProcessPool):
                engine.map("toy", _exit_worker, quick_config, range(2))
            assert engine.map("toy", _draw_trial, quick_config, range(3)) == reference


class TestResume:
    def test_second_run_fully_cached(self, quick_config, tmp_path):
        first = ExperimentEngine(cache_dir=tmp_path)
        results = first.map("toy", _draw_trial, quick_config, range(4))
        assert first.last_stats.executed_trials == 4

        second = ExperimentEngine(cache_dir=tmp_path)
        resumed = second.map("toy", _draw_trial, quick_config, range(4))
        assert resumed == results
        assert second.last_stats.cached_trials == 4
        assert second.last_stats.executed_trials == 0

    def test_partial_resume_recomputes_only_missing(self, quick_config, tmp_path):
        engine = ExperimentEngine(cache_dir=tmp_path)
        results = engine.map("toy", _draw_trial, quick_config, range(4))
        digest = engine.last_stats.digest
        _trial_file(engine, digest, 2).unlink()

        resumed = ExperimentEngine(cache_dir=tmp_path)
        assert resumed.map("toy", _draw_trial, quick_config, range(4)) == results
        assert resumed.last_stats.cached_trials == 3
        assert resumed.last_stats.executed_trials == 1

    def test_corrupt_cache_entry_recomputed(self, quick_config, tmp_path):
        engine = ExperimentEngine(cache_dir=tmp_path)
        results = engine.map("toy", _draw_trial, quick_config, range(2))
        digest = engine.last_stats.digest
        _trial_file(engine, digest, 1).write_bytes(b"torn write")

        resumed = ExperimentEngine(cache_dir=tmp_path)
        assert resumed.map("toy", _draw_trial, quick_config, range(2)) == results
        assert resumed.last_stats.executed_trials == 1

    def test_truncated_cache_entry_recomputed(self, quick_config, tmp_path):
        """A torn write that is a *prefix* of a valid pickle still recomputes.

        Unlike random garbage, a truncated pickle begins with a valid
        opcode stream and only fails at EOF — the resume path must treat
        that as a miss, not crash mid-resume.
        """
        engine = ExperimentEngine(cache_dir=tmp_path)
        results = engine.map("toy", _draw_trial, quick_config, range(3))
        digest = engine.last_stats.digest
        victim = _trial_file(engine, digest, 1)
        valid = victim.read_bytes()
        assert len(valid) > 2
        victim.write_bytes(valid[: len(valid) // 2])

        resumed = ExperimentEngine(cache_dir=tmp_path)
        assert resumed.map("toy", _draw_trial, quick_config, range(3)) == results
        assert resumed.last_stats.cached_trials == 2
        assert resumed.last_stats.executed_trials == 1

    def test_empty_cache_entry_recomputed(self, quick_config, tmp_path):
        """Zero-byte files (crash between create and write) are misses too."""
        engine = ExperimentEngine(cache_dir=tmp_path)
        results = engine.map("toy", _draw_trial, quick_config, range(2))
        digest = engine.last_stats.digest
        _trial_file(engine, digest, 0).write_bytes(b"")

        resumed = ExperimentEngine(cache_dir=tmp_path)
        assert resumed.map("toy", _draw_trial, quick_config, range(2)) == results
        assert resumed.last_stats.executed_trials == 1

    def test_none_results_are_cacheable(self, quick_config, tmp_path):
        engine = ExperimentEngine(cache_dir=tmp_path)
        assert engine.map("toy", _none_trial, quick_config, range(2)) == [None, None]
        resumed = ExperimentEngine(cache_dir=tmp_path)
        assert resumed.map("toy", _none_trial, quick_config, range(2)) == [None, None]
        assert resumed.last_stats.cached_trials == 2
        assert resumed.last_stats.executed_trials == 0

    def test_experiment_resume_matches_uncached_run(self, quick_config, tmp_path):
        kwargs = dict(snr_db_values=(20.0, 30.0), runs_per_point=1)
        cached_engine = ExperimentEngine(cache_dir=tmp_path)
        first = snr_points(quick_config, engine=cached_engine, **kwargs)
        resumed = snr_points(quick_config, engine=ExperimentEngine(cache_dir=tmp_path), **kwargs)
        uncached = snr_points(quick_config, engine=ExperimentEngine(), **kwargs)
        assert first == resumed == uncached


class TestCacheKeying:
    def test_config_change_invalidates_cache(self, quick_config, tmp_path):
        engine = ExperimentEngine(cache_dir=tmp_path)
        engine.map("toy", _draw_trial, quick_config, range(3))

        reseeded = quick_config.with_overrides(seed=99)
        engine.map("toy", _draw_trial, reseeded, range(3))
        assert engine.last_stats.cached_trials == 0
        assert engine.last_stats.executed_trials == 3

    def test_params_change_invalidates_cache(self, quick_config, tmp_path):
        engine = ExperimentEngine(cache_dir=tmp_path)
        engine.map("toy", _echo_trial, quick_config, range(3), params={"scale": 1.0})
        engine.map("toy", _echo_trial, quick_config, range(3), params={"scale": 2.0})
        assert engine.last_stats.cached_trials == 0

    def test_digest_stable_across_instances(self, quick_config):
        first = ExperimentEngine.task_digest("toy", _draw_trial, quick_config)
        second = ExperimentEngine.task_digest("toy", _draw_trial, quick_config)
        assert first == second

    @pytest.mark.parametrize("marker", [object(), np.arange(5000, dtype=np.float64)])
    def test_non_json_param_rejected_by_name(self, quick_config, marker):
        """A param digested through its repr would bake in a memory address.

        numpy's repr also elides the middle of large arrays, so an ndarray
        param is refused rather than keyed by a lossy repr.
        """
        with pytest.raises(ConfigurationError, match="trial param 'marker'"):
            ExperimentEngine.task_digest(
                "toy", _echo_trial, quick_config, params={"scale": 1.0, "marker": marker}
            )


class TestTrialKeys:
    """Regression tests for the historical cache-file collisions.

    An old sanitising file name mapped distinct keys to one cache file —
    ``"a/b"`` and ``"a_b"`` both became ``a_b``; ``("a", "b")`` and
    ``("a_b",)`` both became ``t_a_b`` — so on resume one key could be
    served another key's cached result.  Trials are now stored under a
    digest of an injective key encoding.
    """

    @pytest.mark.parametrize(
        "left, right",
        [
            ("a/b", "a_b"),
            (("a", "b"), ("a_b",)),
            (("a", "b"), ("a", "b", "")),
            (1, "00000001"),
            (1, 1.0),
            ("a b", "a.b"),
        ],
    )
    def test_distinct_keys_get_distinct_tokens(self, left, right):
        assert _key_token(left) != _key_token(right)

    def test_store_entries_are_fixed_length_hex(self, quick_config, tmp_path):
        ExperimentEngine(cache_dir=tmp_path).map(
            "toy", _echo_trial, quick_config, [("x" * 500, "y/z", 3, 2.5)]
        )
        (entry,) = tmp_path.rglob("*.pkl")
        assert re.fullmatch(r"[0-9a-f]{64}", entry.stem)

    def test_bool_keys_rejected(self, quick_config):
        # bool is an int subclass; allowing it would alias True with 1.
        with pytest.raises(ConfigurationError):
            ExperimentEngine().map("toy", _echo_trial, quick_config, [True])

    @pytest.mark.parametrize(
        "key", [None, b"raw", ("ok", [1])], ids=["none", "bytes", "nested_list"]
    )
    def test_unencodable_keys_rejected(self, quick_config, key):
        with pytest.raises(ConfigurationError, match="trial keys must be int, float, str or tuple"):
            ExperimentEngine().map("toy", _echo_trial, quick_config, [key])

    def test_colliding_keys_resume_to_their_own_results(self, quick_config, tmp_path):
        """Keys an old file name merged (or that compare equal) stay apart."""
        keys = ["a/b", "a_b", ("a", "b"), ("a_b",), 1, 1.0]
        engine = ExperimentEngine(cache_dir=tmp_path)
        results = engine.map("toy", _echo_trial, quick_config, keys)
        assert [repr(r[0]) for r in results] == [repr(key) for key in keys]

        resumed = ExperimentEngine(cache_dir=tmp_path)
        again = resumed.map("toy", _echo_trial, quick_config, keys)
        assert [repr(r[0]) for r in again] == [repr(key) for key in keys]
        assert resumed.last_stats.cached_trials == len(keys)
        assert resumed.last_stats.executed_trials == 0


class TestRunnerRegistry:
    def test_registry_covers_every_cli_experiment(self):
        assert api.list_experiments(kind="figure") == [
            "capacity", "alice-bob", "x", "chain", "sir", "snr", "summary",
        ]

    def test_get_runner_unknown_name(self):
        with pytest.raises(ConfigurationError):
            api.get_experiment("does-not-exist")

    def test_capacity_runner_renders(self, quick_config):
        result = REGISTRY["capacity"].run(quick_config, ExperimentEngine(), False)
        assert "crossover" in render_text(result)

    def test_alice_bob_runner_matches_direct_call(self, quick_config):
        via_registry = api.run("alice-bob", config=quick_config)
        direct = run_alice_bob_experiment(quick_config)
        assert REGISTRY["alice-bob"].run is run_alice_bob_experiment
        assert via_registry.series == direct.series
        assert render_text(via_registry) == render_text(direct)


class TestTrialFunctionsAreEngineCompatible:
    def test_trial_function_is_picklable_toplevel(self):
        import pickle

        assert pickle.loads(pickle.dumps(run_alice_bob_trial)) is run_alice_bob_trial

    def test_trial_matches_experiment_runs(self, quick_config):
        traditional, cope, anc = run_alice_bob_trial(quick_config, 0)
        runs = run_alice_bob_experiment(quick_config).get_series("runs").records()
        first_run = {r["scheme"]: r["throughput"] for r in runs if r["run"] == 0}
        assert first_run == {
            "traditional": traditional.throughput,
            "cope": cope.throughput,
            "anc": anc.throughput,
        }
