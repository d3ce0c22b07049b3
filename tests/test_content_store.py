"""Tests for the one content-addressed store both caches share.

* a corrupt entry — a trial pickle or a campaign document — is a
  logged, counted miss that is recomputed and republished, whether its
  seal fails (garbage, a flipped bit, an entry copied under another key)
  or its sealed payload fails to decode;
* entries are keyed by the package's source: an unedited package (even
  at another path) hits, and a one-line edit makes every entry miss;
* entries are keyed by the runtime too: another numpy or Python minor
  version makes every entry miss.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import pickle
import shutil
import struct
import subprocess
import sys
from collections import namedtuple
from pathlib import Path

import numpy
import pytest

import repro
from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import ResultStore
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


TRIAL_CONFIG = ExperimentConfig.quick(seed=3)


def _trial_side(root):
    """Cache three toy trials; return the rerun as (stats, recomputed)."""
    ExperimentEngine(cache_dir=root).map("toy", _draw_trial, TRIAL_CONFIG, range(3))

    def rerun():
        engine = ExperimentEngine(cache_dir=root)
        engine.map("toy", _draw_trial, TRIAL_CONFIG, range(3))
        return engine.store.stats.as_dict(), engine.last_stats.executed_trials

    return ".pkl", rerun


CAMPAIGN_SPEC = CampaignSpec(
    "alice-bob", base={"runs": 1, "packets_per_run": 1}, axes={"seed": [1, 2, 3]}
)


def _campaign_side(root):
    """Store three toy campaign jobs; return the rerun as (stats, recomputed)."""
    CampaignRunner(store=root, job_fn=_fake_result).run(CAMPAIGN_SPEC)

    def rerun():
        report = CampaignRunner(store=root, job_fn=_fake_result).run(CAMPAIGN_SPEC)
        return report.store_stats, report.completed

    return ".json", rerun


def _campaign_read_side(root):
    """The campaign side, read back through ``ResultStore.get``'s full parse."""
    suffix, _ = _campaign_side(root)

    def rerun():
        store = ResultStore(root)
        recomputed = 0
        for job in CAMPAIGN_SPEC.jobs():
            if store.get(job.digest) is None:
                store.put(job.digest, _fake_result(job))
                recomputed += 1
        return store.stats.as_dict(), recomputed

    return suffix, rerun


def _sealed(victim, payload):
    """``payload`` under the seal line of the key ``victim`` is stored at."""
    key = victim.name[: -len(victim.suffix)]
    seal = hashlib.sha256(key.encode() + b"\0" + payload).hexdigest()
    return seal.encode() + b"\n" + payload


def _with_identity(garbage):
    """A campaign payload: a well-formed identity line, then ``garbage``."""
    return json.dumps(["alice-bob", "0" * 20]).encode() + b"\n" + garbage


@pytest.mark.parametrize(
    "side, garbage, seal, error",
    [
        (_trial_side, b"\x80\x04garbled", False, "SealError"),
        (_campaign_side, b"{not json", False, "SealError"),
        (_trial_side, b"\x80\x04garbled", True, "UnpicklingError"),
        (_campaign_read_side, _with_identity(b"{not json"), True, "ConfigurationError"),
        (_campaign_read_side, _with_identity(b"\x00garbage\xff"), True, "UnicodeDecodeError"),
    ],
    ids=["trial_unsealed", "campaign_unsealed", "trial_pickle", "campaign_json",
         "campaign_not_utf8"],
)
def test_corrupt_entry_is_a_logged_counted_miss_and_recomputed(
    tmp_path, caplog, side, garbage, seal, error
):
    suffix, rerun = side(tmp_path)
    victim = sorted(tmp_path.rglob(f"*{suffix}"))[1]
    victim.write_bytes(_sealed(victim, garbage) if seal else garbage)

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


def _flip_a_float_bit(victim):
    """Flip the lowest mantissa bit of the pickled trial value in place."""
    raw = victim.read_bytes()
    for key in range(3):
        packed = struct.pack(">d", _draw_trial(TRIAL_CONFIG, key))
        if raw.count(packed) == 1:
            flipped = packed[:-1] + bytes([packed[-1] ^ 1])
            damaged = raw.replace(packed, flipped)
            # Still a pickle, of another float (pickles open with PROTO 0x80).
            assert pickle.loads(damaged[damaged.index(b"\x80"):]) == struct.unpack(">d", flipped)[0]
            victim.write_bytes(damaged)
            return
    raise AssertionError(f"no trial value found in {victim}")


def _copy_another_entry(victim):
    """Overwrite the entry with another key's stored bytes."""
    donor = next(p for p in sorted(victim.parent.parent.rglob(f"*{victim.suffix}"))
                 if p != victim)
    shutil.copyfile(donor, victim)


@pytest.mark.parametrize(
    "side, damage",
    [
        (_trial_side, _flip_a_float_bit),
        (_trial_side, _copy_another_entry),
        (_campaign_side, _copy_another_entry),
    ],
    ids=["trial_float_bit", "trial_copied", "campaign_copied"],
)
def test_decodable_damage_fails_the_seal(tmp_path, caplog, side, damage):
    """Damage that still decodes to a plausible value is caught by the seal."""
    suffix, rerun = side(tmp_path)
    victim = sorted(tmp_path.rglob(f"*{suffix}"))[1]
    damage(victim)

    with caplog.at_level(logging.WARNING, logger="repro.store"):
        stats, recomputed = rerun()
    assert recomputed == 1
    assert stats == {"hits": 2, "misses": 1, "puts": 1, "races": 0, "corrupt": 1}
    assert "SealError" in caplog.text


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
