"""One content-addressed store for every cache in the reproduction.

A cached value is only sound if it is a pure function of everything
that produced it: the code, the configuration and the seed.  The callers
put the configuration and the seed into the key (through
:func:`content_digest`); this module adds the code.  Every entry lives
under a directory named by :func:`source_fingerprint`, a hash of the
package's own source files and of the Python and numpy versions, so
an in-place edit of any module or an upgrade of the runtime makes every
old entry miss — there is nothing to clear and no version to bump.

Two caches read and write through :class:`Store`:

* the engine's trial cache (:mod:`repro.experiments.engine`) — one
  pickled trial result per key;
* the campaign result store (:mod:`repro.campaign.store`) — one
  ``anc-repro.result/1`` JSON document per job digest.

Layout: ``<root>/<fingerprint[:16]>/<key[:2]>/<key><suffix>``.  Writes
go to a temp file in the final directory and are published with
:func:`os.replace` — atomic on POSIX — so a reader sees a complete entry
or nothing, and any number of processes (or machines with the same
source on a shared disk) may share one root.  A key that is already
present keeps its first writer and the later put is counted as a race;
content addressing makes the two byte-equivalent.  An entry that fails
to decode is logged, counted as ``corrupt``, removed and read as a miss,
so the caller recomputes and republishes it.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import os
import re
import sys
import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

import numpy

from repro.exceptions import ConfigurationError

_KEY = re.compile(r"^[0-9a-f]{16,64}$")

logger = logging.getLogger(__name__)


def content_digest(payload: Any, length: int = 64) -> str:
    """SHA-256 hex of ``json.dumps(payload, sort_keys=True)``, truncated.

    The one digest every content key in the package is built from; each
    caller decides what goes into its payload.  Raises ``TypeError`` or
    ``ValueError`` when the payload is not JSON-serializable.
    """
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:length]


@functools.lru_cache(maxsize=None)
def source_fingerprint() -> str:
    """SHA-256 over the runtime and the package's own ``*.py`` files.

    The runtime is the Python minor version and the numpy version, whose
    numerics the results depend on.  Route ties are decided by package
    source (:meth:`~repro.network.topology.Topology.shortest_path`), so
    the files cover them.
    Files are hashed in sorted relative-path order, each as its path,
    its length and its bytes, so the fingerprint depends on what the
    code says and not on where it is installed or when it was touched.
    Computed once per process.
    """
    package = Path(__file__).resolve().parent
    sources = sorted(
        (path.relative_to(package).as_posix(), path) for path in package.rglob("*.py")
    )
    runtime = (
        f"python {sys.version_info.major}.{sys.version_info.minor}\0"
        f"numpy {numpy.__version__}\0"
    )
    hasher = hashlib.sha256(runtime.encode("utf-8"))
    for name, path in sources:
        data = path.read_bytes()
        hasher.update(f"{name}\0{len(data)}\0".encode("utf-8"))
        hasher.update(data)
    return hasher.hexdigest()


def _check_key(key: str) -> str:
    """Validate a store key (hex digest) before it touches the filesystem."""
    if not isinstance(key, str) or not _KEY.match(key):
        raise ConfigurationError(
            f"invalid store digest {key!r}: expected 16-64 lowercase hex chars"
        )
    return key


@dataclass
class Stats:
    """Counters of one :class:`Store` handle's traffic.

    Attributes
    ----------
    hits:
        Reads that returned a decoded entry.
    misses:
        Reads that found nothing, or an entry that failed to decode.
    puts:
        Entries this handle published.
    races:
        Puts that found the key already present and kept the first writer.
    corrupt:
        Misses caused by an entry that failed to decode (also in ``misses``).
    """

    hits: int = 0
    misses: int = 0
    puts: int = 0
    races: int = 0
    corrupt: int = 0

    def as_dict(self) -> Dict[str, int]:
        """JSON-ready counter view (for campaign reports)."""
        return asdict(self)


class Store:
    """Key-addressed entries under a source-fingerprinted root.

    Parameters
    ----------
    root:
        Store directory, created on first write; ``None`` makes a store
        that remembers nothing and counts nothing.
    suffix:
        File suffix of every entry (``".pkl"``, ``".json"``).
    """

    def __init__(self, root: Optional[Union[str, Path]], suffix: str) -> None:
        """Bind a handle to its root; nothing touches the disk yet."""
        self.root = Path(root) if root is not None else None
        self.suffix = suffix
        #: Traffic counters of this handle (not shared across processes).
        self.stats = Stats()

    @functools.cached_property
    def _tree(self) -> Optional[Path]:
        """The directory holding this source tree's entries (resolved once)."""
        if self.root is None:
            return None
        return self.root / source_fingerprint()[:16]

    def path(self, key: str) -> Optional[Path]:
        """Filesystem path a key's entry lives at (``None`` without a root)."""
        key = _check_key(key)
        tree = self._tree
        if tree is None:
            return None
        return tree / key[:2] / f"{key}{self.suffix}"

    def __contains__(self, key: str) -> bool:
        """Membership test (does not touch the counters)."""
        path = self.path(key)
        return path is not None and path.is_file()

    def keys(self) -> List[str]:
        """Every key currently stored for this source tree, sorted."""
        tree = self._tree
        if tree is None or not tree.is_dir():
            return []
        return sorted(
            entry.name[: -len(self.suffix)] for entry in tree.glob(f"*/*{self.suffix}")
        )

    def get(self, key: str, decode: Callable[[bytes], Any]) -> Any:
        """Decode one stored entry; ``None`` (a miss) when absent or corrupt.

        Any exception ``decode`` raises marks the entry corrupt: it is
        logged with its path and error type, counted, removed so that the
        recomputed value can be published, and read as a miss.
        """
        path = self.path(key)
        if path is None:
            return None
        try:
            raw = path.read_bytes()
        except OSError:
            self.stats.misses += 1
            return None
        try:
            value = decode(raw)
        except Exception as error:
            self.stats.misses += 1
            self.stats.corrupt += 1
            logger.warning(
                "corrupt store entry %s (%s); recomputing it", path, type(error).__name__
            )
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.stats.hits += 1
        return value

    def put(self, key: str, value: Any, encode: Callable[[Any], bytes]) -> bool:
        """Publish ``encode(value)`` under ``key``; ``False`` on a race.

        A key that is already stored keeps its first writer and the call
        only counts a race.  Without a root the value is dropped and
        nothing is counted.
        """
        path = self.path(key)
        if path is None:
            return True
        if path.is_file():
            self.stats.races += 1
            return False
        data = encode(value)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stats.puts += 1
        return True
