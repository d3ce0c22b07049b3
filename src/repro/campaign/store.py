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

:class:`ResultStore` is the JSON codec and the ``ExperimentResult`` type
check over :class:`repro.store.Store`, which owns the layout, the atomic
publish, the corrupt-entry handling and the counters (see
:mod:`repro.store`).  Entries are keyed by the source tree too, so a
code edit makes every stored job miss.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Iterator, List, Optional, Union

from repro.exceptions import ConfigurationError
from repro.results.model import ExperimentResult, _jsonify
from repro.store import Stats, Store

if TYPE_CHECKING:
    from repro.campaign.spec import CampaignJob


class JobMismatchError(ValueError):
    """A valid result document stored under another job's digest."""


def _decode(raw: bytes) -> ExperimentResult:
    return ExperimentResult.from_json(raw.decode("utf-8"))


def _encode(result: ExperimentResult) -> bytes:
    return result.to_json().encode("utf-8")


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

    def get(self, digest: str, job: Optional["CampaignJob"] = None) -> Optional[ExperimentResult]:
        """Load one stored result; ``None`` (a miss) when absent or corrupt.

        A document that is not UTF-8, not JSON or not a valid result is a
        logged, counted corrupt miss: the caller recomputes the job and
        can never be handed a half-written or foreign file.  Given the
        ``job`` the digest belongs to, a valid document whose experiment
        or config is not that job's (one copied onto another job's path,
        say) is corrupt in the same way.
        """
        if job is None:
            return self._store.get(digest, _decode)
        expected = _jsonify(job.config.snapshot())

        def decode_job(raw: bytes) -> ExperimentResult:
            """Decode one document and require it to be ``job``'s result."""
            result = _decode(raw)
            if result.name != job.experiment or result.config != expected:
                raise JobMismatchError(f"stored document is not job {job.index}'s result")
            return result

        return self._store.get(digest, decode_job)

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
