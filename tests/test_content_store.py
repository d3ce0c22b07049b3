"""Tests for the one content-addressed store both caches share.

* a corrupt entry — a trial pickle or a campaign document — is a
  logged, counted miss that is recomputed and republished;
* entries are keyed by the package's source: an unedited package (even
  at another path) hits, and a one-line edit makes every entry miss;
* entries are keyed by the runtime too: another numpy or Python minor
  version makes every entry miss.
"""

from __future__ import annotations

import json
import logging
import os
import shutil
import subprocess
import sys
from collections import namedtuple
from pathlib import Path

import numpy
import pytest

import repro
from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import CampaignSpec
from repro.experiments.config import ExperimentConfig
from repro.experiments.engine import ExperimentEngine
from repro.results.model import ExperimentResult
from repro.store import source_fingerprint


def _draw_trial(cfg: ExperimentConfig, key: int) -> float:
    """Toy trial: one deterministic draw from the key's substream."""
    return float(cfg.run_rng(key, stream=0).uniform())


def _fake_result(job):
    """A schema-valid stand-in for a computed experiment result."""
    return ExperimentResult(
        name=job.experiment, kind="figure", config=job.config.snapshot(),
        scalars={"seed": float(job.config.seed)},
    )


def _trial_side(root):
    """Cache three toy trials; return the rerun as (stats, recomputed)."""
    config = ExperimentConfig.quick(seed=3)
    ExperimentEngine(cache_dir=root).map("toy", _draw_trial, config, range(3))

    def rerun():
        engine = ExperimentEngine(cache_dir=root)
        engine.map("toy", _draw_trial, config, range(3))
        return engine.store.stats.as_dict(), engine.last_stats.executed_trials

    return ".pkl", rerun


def _campaign_side(root):
    """Store three toy campaign jobs; return the rerun as (stats, recomputed)."""
    spec = CampaignSpec(
        "alice-bob", base={"runs": 1, "packets_per_run": 1}, axes={"seed": [1, 2, 3]}
    )
    CampaignRunner(store=root, job_fn=_fake_result).run(spec)

    def rerun():
        report = CampaignRunner(store=root, job_fn=_fake_result).run(spec)
        return report.store_stats, report.completed

    return ".json", rerun


@pytest.mark.parametrize(
    "side, garbage, error",
    [
        (_trial_side, b"\x80\x04garbled", "UnpicklingError"),
        (_campaign_side, b"{not json", "ConfigurationError"),
        (_campaign_side, b"\x00garbage\xff", "UnicodeDecodeError"),
    ],
    ids=["trial_pickle", "campaign_json", "campaign_not_utf8"],
)
def test_corrupt_entry_is_a_logged_counted_miss_and_recomputed(
    tmp_path, caplog, side, garbage, error
):
    suffix, rerun = side(tmp_path)
    victim = sorted(tmp_path.rglob(f"*{suffix}"))[1]
    victim.write_bytes(garbage)

    with caplog.at_level(logging.WARNING, logger="repro.store"):
        stats, recomputed = rerun()
    assert recomputed == 1
    assert stats == {"hits": 2, "misses": 1, "puts": 1, "races": 0, "corrupt": 1}
    warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1
    assert str(victim) in warnings[0].getMessage()
    assert error in warnings[0].getMessage()

    # The recomputed value was republished: the next run is all hits.
    stats, recomputed = rerun()
    assert recomputed == 0 and stats["hits"] == 3 and stats["corrupt"] == 0


def _alice_bob_engine_meta(package_parent: Path, cache: Path, cwd: Path) -> dict:
    """Run a small cached alice-bob from ``package_parent``; its engine meta."""
    env = dict(os.environ, PYTHONPATH=str(package_parent))
    completed = subprocess.run(
        [sys.executable, "-m", "repro.cli", "alice-bob", "--runs", "2",
         "--packets", "2", "--payload-bits", "512", "--cache-dir", str(cache),
         "--format", "json"],
        env=env, cwd=cwd, capture_output=True, text=True, check=True, timeout=300,
    )
    return json.loads(completed.stdout)["meta"]["engine"]


def test_code_edit_misses_and_unedited_rerun_hits(tmp_path):
    package = Path(repro.__file__).resolve().parent
    copy = tmp_path / "copy"
    shutil.copytree(package, copy / "repro", ignore=shutil.ignore_patterns("__pycache__"))
    cache = tmp_path / "cache"

    first = _alice_bob_engine_meta(copy, cache, tmp_path)
    assert first["total_trials"] > 0
    assert first["executed_trials"] == first["total_trials"]

    # The same source at another path reads every trial from the cache.
    unedited = _alice_bob_engine_meta(package.parent, cache, tmp_path)
    assert unedited["cached_trials"] == unedited["total_trials"]
    assert unedited["digests"] == first["digests"]

    # A comment appended to one module changes the source fingerprint.
    with (copy / "repro" / "constants.py").open("a") as handle:
        handle.write("\n# edited\n")
    edited = _alice_bob_engine_meta(copy, cache, tmp_path)
    assert edited["digests"] == first["digests"]
    assert edited["cached_trials"] == 0
    assert edited["executed_trials"] == edited["total_trials"]


_VersionInfo = namedtuple("_VersionInfo", "major minor micro releaselevel serial")

#: One way to move each runtime component the fingerprint hashes.
RUNTIME_BUMPS = {
    "numpy": (numpy, "__version__", "0.0.1"),
    "python": (sys, "version_info", _VersionInfo(sys.version_info.major, 99, 0, "final", 0)),
}


@pytest.fixture
def fresh_fingerprint():
    """Recompute the memoised fingerprint before and after the test."""
    source_fingerprint.cache_clear()
    yield
    source_fingerprint.cache_clear()


@pytest.mark.parametrize("component", sorted(RUNTIME_BUMPS))
def test_fingerprint_hashes_the_runtime(monkeypatch, fresh_fingerprint, component):
    before = source_fingerprint()
    monkeypatch.setattr(*RUNTIME_BUMPS[component])
    source_fingerprint.cache_clear()
    assert source_fingerprint() != before


@pytest.mark.parametrize("side", [_trial_side, _campaign_side], ids=["trial", "campaign"])
def test_numpy_upgrade_misses_every_entry(tmp_path, monkeypatch, fresh_fingerprint, side):
    _, rerun = side(tmp_path)
    monkeypatch.setattr(numpy, "__version__", "0.0.1")
    source_fingerprint.cache_clear()
    stats, recomputed = rerun()
    assert recomputed == 3 and stats["hits"] == 0 and stats["misses"] == 3

    # Back on the original runtime, the original entries are still there.
    monkeypatch.undo()
    source_fingerprint.cache_clear()
    stats, recomputed = rerun()
    assert recomputed == 0 and stats["hits"] == 3
