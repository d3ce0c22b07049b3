"""Tests for the content-addressed result store: atomicity, concurrency."""

import json
import logging
import multiprocessing
import os

import pytest

from repro.campaign.store import NullResultStore, ResultStore
from repro.exceptions import ConfigurationError
from repro.results.model import ExperimentResult

DIGEST = "ab" * 32


def toy_result(tag="toy"):
    """A minimal valid result document."""
    return ExperimentResult(
        name=tag, kind="figure", config={"runs": 1}, scalars={"value": 1.0}
    )


class TestBasics:
    def test_miss_then_hit(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get(DIGEST) is None
        assert store.put(DIGEST, toy_result())
        loaded = store.get(DIGEST)
        assert loaded is not None and loaded.name == "toy"
        assert store.stats.as_dict() == {"hits": 1, "misses": 1, "puts": 1, "races": 0}

    def test_layout_fans_by_prefix(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.path(DIGEST) == tmp_path / DIGEST[:2] / f"{DIGEST}.json"

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

    def test_corrupt_document_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.path(DIGEST)
        path.parent.mkdir(parents=True)
        path.write_text("{not json")
        assert store.get(DIGEST) is None
        assert store.stats.misses == 1 and store.stats.hits == 0

    @pytest.mark.parametrize(
        "garbage, error",
        [(b"{not json", "ConfigurationError"), (b"\x00garbage\xff", "UnicodeDecodeError")],
    )
    def test_corrupt_document_logs_one_warning(self, tmp_path, caplog, garbage, error):
        store = ResultStore(tmp_path)
        store.put(DIGEST, toy_result())
        store.path(DIGEST).write_bytes(garbage)
        with caplog.at_level(logging.WARNING, logger="repro.campaign.store"):
            assert store.get(DIGEST) is None
        assert store.stats.as_dict() == {"hits": 0, "misses": 1, "puts": 1, "races": 0}
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1
        message = warnings[0].getMessage()
        assert str(store.path(DIGEST)) in message
        assert error in message

    def test_wrong_schema_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(DIGEST, toy_result())
        doc = json.loads(store.get_raw(DIGEST))
        doc["schema_version"] = "anc-repro.result/999"
        store.path(DIGEST).write_text(json.dumps(doc))
        assert store.get(DIGEST) is None

    def test_get_raw_returns_exact_bytes(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(DIGEST, toy_result())
        assert store.get_raw(DIGEST) == store.path(DIGEST).read_text()

    def test_no_temp_litter_after_put(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(DIGEST, toy_result())
        leftovers = [p for p in (tmp_path / DIGEST[:2]).iterdir() if p.suffix != ".json"]
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

    def test_null_store_remembers_nothing(self):
        store = NullResultStore()
        assert store.put(DIGEST, toy_result())
        assert store.get(DIGEST) is None
        assert DIGEST not in store
        assert store.stats.as_dict() == {"hits": 0, "misses": 0, "puts": 0, "races": 0}


def _hammer(root, digest, tag, count):
    """Worker: repeatedly publish under one digest (racing its sibling)."""
    store = ResultStore(root)
    for _ in range(count):
        store.put(digest, toy_result(tag))


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
        observed = 0
        while any(w.is_alive() for w in workers):
            for digest in digests:
                raw = reader.get_raw(digest)
                if raw is not None:
                    result = ExperimentResult.from_json(raw)
                    assert result.name in ("alpha", "beta")
                    observed += 1
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
