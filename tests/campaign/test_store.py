"""Tests for the content-addressed result store: format, atomicity, concurrency."""

import hashlib
import json
import multiprocessing
import os
import shutil

import pytest

from repro.campaign.spec import CampaignSpec
from repro.campaign.store import ResultStore
from repro.exceptions import ConfigurationError
from repro.results.model import ExperimentResult
from repro.store import source_fingerprint

DIGEST = "ab" * 32
OTHER = "cd" * 32


def toy_result(tag="toy"):
    """A minimal valid result document."""
    return ExperimentResult(
        name=tag, kind="figure", config={"runs": 1}, scalars={"value": 1.0}
    )


def sealed(key, payload):
    """``payload`` under its seal line: SHA-256 hex of key, NUL, payload."""
    seal = hashlib.sha256(key.encode() + b"\0" + payload).hexdigest()
    return seal.encode() + b"\n" + payload


def entry_parts(path):
    """A stored entry's seal line, identity line and document, as bytes."""
    return path.read_bytes().split(b"\n", 2)


class TestBasics:
    def test_miss_then_hit(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get(DIGEST) is None
        assert store.put(DIGEST, toy_result())
        loaded = store.get(DIGEST)
        assert loaded is not None and loaded.name == "toy"
        assert store.stats.as_dict() == {
            "hits": 1, "misses": 1, "puts": 1, "races": 0, "corrupt": 0,
        }

    def test_layout_fans_by_prefix_under_the_source_fingerprint(self, tmp_path):
        store = ResultStore(tmp_path)
        tree = tmp_path / source_fingerprint()[:16]
        assert store.path(DIGEST) == tree / DIGEST[:2] / f"{DIGEST}.json"

    def test_entries_of_other_source_trees_are_ignored(self, tmp_path):
        stale = tmp_path / ("0" * 16) / DIGEST[:2] / f"{DIGEST}.json"
        stale.parent.mkdir(parents=True)
        stale.write_text(toy_result().to_json())
        store = ResultStore(tmp_path)
        assert store.get(DIGEST) is None and DIGEST not in store
        assert store.digests() == []

    def test_contains_len_iter(self, tmp_path):
        store = ResultStore(tmp_path)
        assert DIGEST not in store and len(store) == 0
        store.put(DIGEST, toy_result())
        assert DIGEST in store
        assert list(store) == [DIGEST]

    def test_invalid_digest_rejected(self, tmp_path):
        store = ResultStore(tmp_path)
        for bad in ("", "XYZ", "../escape", "ab/cd", "short"):
            with pytest.raises(ConfigurationError):
                store.path(bad)

    def test_second_put_keeps_winner(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.put(DIGEST, toy_result("first"))
        assert not store.put(DIGEST, toy_result("second"))
        assert store.get(DIGEST).name == "first"
        assert store.stats.races == 1

    def test_hit_must_hold_the_jobs_experiment_and_config(self, tmp_path):
        job = CampaignSpec(
            experiment="x", base={"runs": 1}, axes={"seed": (1, 2)}, name="own"
        ).jobs()[0]
        own = ExperimentResult(name="x", kind="figure", config=job.config.snapshot())
        other_experiment = ExperimentResult(name="alice-bob", kind="figure", config=own.config)
        other_config = ExperimentResult(name="x", kind="figure", config={**own.config, "seed": 2})
        for index, foreign in enumerate((other_experiment, other_config)):
            store = ResultStore(tmp_path / str(index))
            store.put(job.digest, foreign)
            assert store.get(job.digest) is not None
            assert not store.holds(job.digest, job)
            assert job.digest not in store
            assert store.stats.corrupt == 1
            store.put(job.digest, own)
            assert store.holds(job.digest, job)
            assert store.get(job.digest).config == own.config

    def test_holds_never_parses_the_document(self, tmp_path):
        job = CampaignSpec(experiment="x", base={"runs": 1}, axes={"seed": (1,)}).jobs()[0]
        store = ResultStore(tmp_path)
        store.put(job.digest, ExperimentResult(name="x", kind="figure", config=job.config.snapshot()))
        _, identity, _ = entry_parts(store.path(job.digest))
        # Only Store.put writes seals; a sealed entry is trusted to be the
        # codec's output, so the resume check reads no further than its
        # identity line.
        store.path(job.digest).write_bytes(sealed(job.digest, identity + b"\n{not json"))
        assert store.holds(job.digest, job)
        assert store.get(job.digest) is None and store.stats.corrupt == 1

    def test_corrupt_document_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.path(DIGEST)
        path.parent.mkdir(parents=True)
        path.write_text("{not json")
        assert store.get(DIGEST) is None
        assert store.stats.misses == 1 and store.stats.hits == 0
        assert store.stats.corrupt == 1

    def test_wrong_schema_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(DIGEST, toy_result())
        _, identity, document = entry_parts(store.path(DIGEST))
        doc = json.loads(document)
        doc["schema_version"] = "anc-repro.result/999"
        # Sealed correctly, so the schema check itself rejects it.
        payload = identity + b"\n" + json.dumps(doc).encode()
        store.path(DIGEST).write_bytes(sealed(DIGEST, payload))
        assert store.get(DIGEST) is None
        assert store.stats.corrupt == 1 and DIGEST not in store

    def test_identity_line_must_match_the_document(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(DIGEST, toy_result())
        _, _, document = entry_parts(store.path(DIGEST))
        foreign = json.dumps(["other", toy_result().config_digest]).encode()
        store.path(DIGEST).write_bytes(sealed(DIGEST, foreign + b"\n" + document))
        assert store.get(DIGEST) is None
        assert store.stats.corrupt == 1 and DIGEST not in store

    def test_stored_document_is_the_exact_json_export(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(DIGEST, toy_result())
        seal, identity, document = entry_parts(store.path(DIGEST))
        assert document.decode() == toy_result().to_json()
        assert json.loads(identity) == ["toy", toy_result().config_digest]
        assert store.path(DIGEST).read_bytes() == sealed(DIGEST, identity + b"\n" + document)
        assert len(seal) == 64

    def test_edited_document_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(DIGEST, toy_result())
        path = store.path(DIGEST)
        text = path.read_text()
        # Still valid JSON and a valid result: only the seal catches it.
        path.write_text(text.replace('"value": 1.0', '"value": 2.0'))
        assert path.read_text() != text
        assert store.get(DIGEST) is None
        assert store.stats.corrupt == 1 and DIGEST not in store

    def test_entry_copied_under_another_digest_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(DIGEST, toy_result())
        store.path(OTHER).parent.mkdir(parents=True)
        shutil.copyfile(store.path(DIGEST), store.path(OTHER))
        assert store.get(OTHER) is None
        assert store.stats.corrupt == 1 and OTHER not in store
        assert store.get(DIGEST).name == "toy"

    def test_no_temp_litter_after_put(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(DIGEST, toy_result())
        leftovers = [p for p in store.path(DIGEST).parent.iterdir() if p.suffix != ".json"]
        assert leftovers == []

    def test_non_result_value_rejected(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(ConfigurationError, match="must be ExperimentResult, got dict"):
            store.put(DIGEST, toy_result().to_dict())
        assert DIGEST not in store
        assert store.stats.puts == 0

    def test_absent_root_is_an_empty_store(self, tmp_path):
        store = ResultStore(tmp_path / "never-created")
        assert store.digests() == []
        assert len(store) == 0
        assert store.get(DIGEST) is None

    def test_rootless_store_remembers_nothing(self):
        store = ResultStore(None)
        assert store.put(DIGEST, toy_result())
        assert store.get(DIGEST) is None
        assert DIGEST not in store
        assert store.path(DIGEST) is None and store.digests() == []
        assert set(store.stats.as_dict().values()) == {0}


class TestConcurrency:
    def test_two_processes_one_winner_no_torn_reads(self, tmp_path):
        ctx = multiprocessing.get_context("spawn")
        digests = [f"{i:02x}" * 32 for i in range(8)]
        workers = [
            ctx.Process(target=_hammer_many, args=(str(tmp_path), digests, tag))
            for tag in ("alpha", "beta")
        ]
        for w in workers:
            w.start()
        # Read concurrently while the writers race: every observed
        # document must be complete and schema-valid (atomic publish).
        reader = ResultStore(tmp_path)
        while any(w.is_alive() for w in workers):
            for digest in digests:
                result = reader.get(digest)
                if result is not None:
                    assert result.name in ("alpha", "beta")
        assert reader.stats.corrupt == 0
        for w in workers:
            w.join(timeout=60)
            assert w.exitcode == 0
        # Exactly one winner per digest, and it parses.
        for digest in digests:
            result = ResultStore(tmp_path).get(digest)
            assert result is not None
            assert result.name in ("alpha", "beta")
        assert len(ResultStore(tmp_path).digests()) == len(digests)


def _hammer_many(root, digests, tag):
    """Worker: publish every digest repeatedly."""
    store = ResultStore(root)
    for _ in range(20):
        for digest in digests:
            store.put(digest, toy_result(tag))


class TestCrashSafety:
    def test_reader_never_sees_partial_write(self, tmp_path):
        # Simulate the moment before os.replace: a temp file next to the
        # final path must be invisible to the store's read path.
        store = ResultStore(tmp_path)
        path = store.path(DIGEST)
        path.parent.mkdir(parents=True)
        (path.parent / "pending.tmp").write_text('{"half": ')
        assert store.get(DIGEST) is None
        assert store.digests() == []
        assert os.listdir(path.parent) == ["pending.tmp"]
