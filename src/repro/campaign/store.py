"""Content-addressed shared result store for campaign jobs.

The engine caches single trials; campaigns need one level up: whole
:class:`~repro.results.model.ExperimentResult` documents keyed by the
job's content digest (:func:`repro.campaign.spec.job_digest`), so

* a re-run of a killed campaign loads every completed job from disk and
  recomputes nothing;
* two campaigns whose grids overlap — or two workers sharding one grid —
  share results instead of duplicating work;
* a stored result reads back from the exact ``anc-repro.result/1`` JSON
  document that was written, with no re-serialization drift.

:class:`ResultStore` is the codec and the ``ExperimentResult`` type
check over :class:`repro.store.Store`, which owns the layout, the seal,
the atomic publish, the corrupt-entry handling and the counters (see
:mod:`repro.store`).  Entries are keyed by the source tree too, so a
code edit makes every stored job miss.

A stored payload is one identity line, ``["<name>", "<config_digest>"]``
(JSON, so no name can end it early), followed by the unchanged
:meth:`~repro.results.model.ExperimentResult.to_json` document.  The
campaign runner's resume check, :meth:`ResultStore.holds`, verifies the
seal and compares the identity line with the job's experiment and
config digest; it never parses the document.  That is sound because
only :meth:`repro.store.Store.put` writes seals, and it seals only the
encoding of an ``ExperimentResult`` that exists — one validated when it
was built and serialized with ``allow_nan=False``.  :meth:`ResultStore.get`
still parses and validates the whole document for every caller that
wants the result.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, List, Optional, Union

from repro.exceptions import ConfigurationError
from repro.results.model import ExperimentResult, config_digest
from repro.store import Stats, Store

if TYPE_CHECKING:
    from repro.campaign.spec import CampaignJob


class JobMismatchError(ValueError):
    """A stored identity line that is not the expected one."""


def _identity(name: str, digest: str) -> bytes:
    """The identity line of a result named ``name`` with config ``digest``."""
    return (json.dumps([name, digest]) + "\n").encode("ascii")


def _decode(payload: bytes) -> ExperimentResult:
    line, newline, document = payload.partition(b"\n")
    result = ExperimentResult.from_json(document.decode("utf-8"))
    if line + newline != _identity(result.name, result.config_digest):
        raise JobMismatchError("identity line does not match the stored document")
    return result


def _encode(result: ExperimentResult) -> bytes:
    return _identity(result.name, result.config_digest) + result.to_json().encode("utf-8")


class ResultStore:
    """Digest-keyed store of ``anc-repro.result/1`` JSON documents.

    Instances are cheap handles over the directory; any number of
    processes may share one root concurrently.

    Parameters
    ----------
    root:
        Store directory, created on first write; ``None`` for a store
        that remembers nothing (a store-less campaign).
    """

    def __init__(self, root: Optional[Union[str, Path]]) -> None:
        """Bind a store handle to its root directory."""
        self._store = Store(root, ".json")

    @property
    def stats(self) -> Stats:
        """Traffic counters of this handle (not shared across processes)."""
        return self._store.stats

    def path(self, digest: str) -> Optional[Path]:
        """Filesystem path a digest's document lives at."""
        return self._store.path(digest)

    def get(self, digest: str) -> Optional[ExperimentResult]:
        """Load one stored result; ``None`` (a miss) when absent or corrupt.

        An entry that fails its seal, is not UTF-8, not JSON, not a valid
        result or not the result its identity line names is a logged,
        counted corrupt miss: the caller recomputes the job and can never
        be handed a half-written or foreign file.
        """
        return self._store.get(digest, _decode)

    def holds(self, digest: str, job: "CampaignJob") -> bool:
        """Is ``job``'s result stored under ``digest``?  (The resume check.)

        Verifies the entry's seal and compares its identity line with the
        job's experiment and config digest, without parsing the document.
        An entry that fails either check is a logged, counted corrupt
        miss (:class:`JobMismatchError` for an identity mismatch), so the
        runner recomputes the job.
        """
        expected = _identity(job.experiment, config_digest(job.config.snapshot()))

        def check(payload: bytes) -> bool:
            """Require the payload to open with ``job``'s identity line."""
            if not payload.startswith(expected):
                raise JobMismatchError(f"stored result is not job {job.index}'s result")
            return True

        return self._store.get(digest, check) is not None

    def put(self, digest: str, result: ExperimentResult) -> bool:
        """Publish one result under its digest; ``False`` if already present.

        Atomic: readers never see a torn write.  If the digest is already
        stored the existing document wins and this call is a no-op.
        """
        if not isinstance(result, ExperimentResult):
            raise ConfigurationError(
                f"store values must be ExperimentResult, got {type(result).__name__}"
            )
        return self._store.put(digest, result, _encode)

    def __contains__(self, digest: str) -> bool:
        """Membership test (does not touch the hit/miss counters)."""
        return digest in self._store

    def digests(self) -> List[str]:
        """Every digest currently stored, sorted (a full directory scan)."""
        return self._store.keys()

    def __iter__(self) -> Iterator[str]:
        """Iterate the stored digests (sorted)."""
        return iter(self.digests())

    def __len__(self) -> int:
        """Number of stored documents."""
        return len(self.digests())
