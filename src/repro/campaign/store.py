"""Content-addressed shared result store for campaign jobs.

The PR 1 engine cache is *trial*-grained (one pickle per Monte-Carlo
trial, keyed by an engine digest).  Campaigns need one level up: a store
of whole :class:`~repro.results.model.ExperimentResult` documents keyed
by the job's content digest (:func:`repro.campaign.spec.job_digest`), so

* a re-run of a killed campaign loads every completed job from disk and
  recomputes nothing;
* two campaigns whose grids overlap — or two workers sharding one grid —
  share results instead of duplicating work;
* a stored result reads back as the exact ``anc-repro.result/1`` JSON
  document that was written, with no re-serialization drift.

Concurrency model: writes go to a temp file in the final directory and
are published with :func:`os.replace` — atomic on POSIX — so a reader
either sees a complete document or nothing; *torn reads are impossible*.
When two workers race on the same digest the content-addressing makes
the race benign (both wrote byte-identical content — same digest, same
deterministic experiment), so last-rename-wins is a correct "one winner".
Reads of a corrupt or schema-incompatible document log a warning, count
as a miss, and the job simply recomputes.
"""

from __future__ import annotations

import logging
import os
import re
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

from repro.exceptions import ConfigurationError
from repro.results.model import ExperimentResult

_DIGEST = re.compile(r"^[0-9a-f]{16,64}$")

logger = logging.getLogger(__name__)


def _check_digest(digest: str) -> str:
    """Validate a store key (hex digest) before it touches the filesystem."""
    if not isinstance(digest, str) or not _DIGEST.match(digest):
        raise ConfigurationError(
            f"invalid store digest {digest!r}: expected 16-64 lowercase hex chars"
        )
    return digest


@dataclass
class StoreStats:
    """Counters of one :class:`ResultStore` instance's traffic.

    Attributes
    ----------
    hits:
        Successful :meth:`ResultStore.get` reads (valid stored document).
    misses:
        Reads that found nothing (or an unreadable/corrupt document).
    puts:
        Documents this instance published.
    races:
        Puts that found the digest already present and kept the existing
        winner instead of re-publishing.
    """

    hits: int = 0
    misses: int = 0
    puts: int = 0
    races: int = 0

    def as_dict(self) -> Dict[str, int]:
        """JSON-ready counter view (for campaign reports)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "races": self.races,
        }


class ResultStore:
    """Digest-keyed store of ``anc-repro.result/1`` JSON documents.

    Layout: ``<root>/<digest[:2]>/<digest>.json`` — the two-character fan
    keeps directories small for thousand-job campaigns.  Instances are
    cheap handles over the directory; any number of processes may share
    one root concurrently (see the module docstring for why that is safe).

    Parameters
    ----------
    root:
        Store directory; created on first write.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        """Bind a store handle to its root directory."""
        self.root = Path(root)
        #: Traffic counters of this handle (not shared across processes).
        self.stats = StoreStats()

    def path(self, digest: str) -> Path:
        """Filesystem path a digest's document lives at."""
        digest = _check_digest(digest)
        return self.root / digest[:2] / f"{digest}.json"

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def get(self, digest: str) -> Optional[ExperimentResult]:
        """Load one stored result; ``None`` (a miss) when absent or corrupt.

        A document that fails decoding, JSON parsing or schema validation
        counts as a miss — the caller recomputes and republished content
        heals the store — so a half-written or foreign file can never
        poison a campaign; a warning names the document and the error
        type.
        """
        raw = self.get_raw(digest)
        if raw is None:
            return None
        try:
            return ExperimentResult.from_json(raw)
        except ConfigurationError as error:
            self.stats.hits -= 1
            self._corrupt(digest, error)
            return None

    def get_raw(self, digest: str) -> Optional[str]:
        """Load one stored document as its exact JSON text (or ``None``).

        These are the bytes that were stored, not a re-serialization;
        :meth:`get` parses them.  A document that is not UTF-8 text is
        corrupt and reads as a miss.
        """
        path = self.path(digest)
        try:
            raw = path.read_text()
        except OSError:
            self.stats.misses += 1
            return None
        except UnicodeDecodeError as error:
            self._corrupt(digest, error)
            return None
        self.stats.hits += 1
        return raw

    def _corrupt(self, digest: str, error: Exception) -> None:
        """Count a corrupt document as a miss and log which one it was."""
        self.stats.misses += 1
        logger.warning(
            "corrupt campaign-store document %s (%s); recomputing the job",
            self.path(digest), type(error).__name__,
        )

    def __contains__(self, digest: str) -> bool:
        """Membership test (does not touch the hit/miss counters)."""
        return self.path(digest).is_file()

    def digests(self) -> List[str]:
        """Every digest currently stored, sorted (a full directory scan)."""
        if not self.root.is_dir():
            return []
        found = []
        for fan in sorted(self.root.iterdir()):
            if fan.is_dir():
                found.extend(entry.stem for entry in sorted(fan.glob("*.json")))
        return found

    def __iter__(self) -> Iterator[str]:
        """Iterate the stored digests (sorted)."""
        return iter(self.digests())

    def __len__(self) -> int:
        """Number of stored documents."""
        return len(self.digests())

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def put(self, digest: str, result: ExperimentResult) -> bool:
        """Publish one result under its digest; ``False`` if already present.

        Atomic: the document is serialized to a temp file in the target
        directory and renamed into place, so concurrent readers never see
        a torn write.  If the digest is already stored the existing
        document wins and this call is a no-op (content addressing makes
        the two byte-equivalent in a correct campaign).
        """
        if not isinstance(result, ExperimentResult):
            raise ConfigurationError(
                f"store values must be ExperimentResult, got {type(result).__name__}"
            )
        path = self.path(digest)
        if path.is_file():
            self.stats.races += 1
            return False
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = result.to_json()
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(payload)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stats.puts += 1
        return True


@dataclass
class _NullStats:
    """Stats stand-in for :class:`NullResultStore` (always zero)."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    races: int = 0

    def as_dict(self) -> Dict[str, int]:
        """JSON-ready zero counters."""
        return {"hits": 0, "misses": 0, "puts": 0, "races": 0}


@dataclass
class NullResultStore:
    """A store that remembers nothing — every get misses, every put drops.

    Used when a campaign runs without a store directory: the runner's
    dedupe/resume logic stays on one code path.
    """

    stats: _NullStats = field(default_factory=_NullStats)

    def get(self, digest: str) -> Optional[ExperimentResult]:
        """Always a miss."""
        return None

    def get_raw(self, digest: str) -> Optional[str]:
        """Always a miss."""
        return None

    def put(self, digest: str, result: ExperimentResult) -> bool:
        """Accept and discard."""
        return True

    def __contains__(self, digest: str) -> bool:
        """Nothing is ever stored."""
        return False
