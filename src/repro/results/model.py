"""The typed result object model: :class:`ExperimentResult` and its tables.

Every experiment in the reproduction — the seven figure runners and the
registered scenario sweeps — ultimately produces numbers: per-run gain
samples, BER distributions, sweep series, headline scalars.  Until this
module existed those numbers were trapped inside rendered plain-text
tables; downstream tooling had to re-parse what the repo had just
formatted.  :class:`ExperimentResult` is the stable programmatic contract
instead:

* **tables** — named :class:`Series` (columns + rows of JSON scalars)
  hold the per-run and aggregated data each experiment reports;
* **scalars** — headline numbers (mean overlap, crossover SNR, ...);
* **metadata** — experiment name, a config snapshot plus digest, the
  master seed, engine cache/timing statistics, and a versioned schema
  tag so readers can detect incompatible exports;
* **lossless serialization** — ``to_dict``/``from_dict`` round-trip
  exactly (``from_dict(to_dict(r)) == r``), with JSON and sectioned-CSV
  exports layered on top.

Each experiment builds its result directly from its trial outputs
(through :func:`make_result`), and plain text is formatted from these
tables by :func:`repro.results.render.render_text`.  See ``docs/API.md``
for the schema reference.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

import repro
from repro.exceptions import ConfigurationError
from repro.store import content_digest

#: Versioned schema tag embedded in every export.  Bump the trailing
#: integer on any backward-incompatible change to the serialized layout;
#: readers (``from_dict``) reject exports whose tag they do not know.
SCHEMA_VERSION = "anc-repro.result/1"

#: Scalar cell types a :class:`Series` may hold (the JSON scalar types).
Cell = Union[int, float, str, bool, None]


def _is_cell(value: Any) -> bool:
    """Is ``value`` a permitted series cell (a *finite* JSON scalar)?

    NaN and infinities are rejected: strict JSON cannot carry them, and a
    NaN would silently break the ``from_dict(to_dict(r)) == r`` guarantee
    (``NaN != NaN``).  Producers that can yield non-finite values (e.g. a
    capacity crossover outside the swept grid) omit the entry instead.
    """
    if isinstance(value, float):
        return math.isfinite(value)
    return value is None or isinstance(value, (bool, int, str))


def _jsonify(value: Any) -> Any:
    """Recursively coerce tuples to lists so equality survives JSON I/O."""
    if isinstance(value, Mapping):
        return {str(key): _jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    if _is_cell(value):
        return value
    raise ConfigurationError(
        "result metadata must be finite JSON-serializable scalars/lists/maps, "
        f"got {value!r}"
    )


def config_digest(config_snapshot: Mapping[str, Any]) -> str:
    """Stable short digest of a config snapshot (for result identity)."""
    return content_digest(_jsonify(config_snapshot), 20)


class Record(Mapping):
    """One row of a :class:`Series`, viewed as an immutable mapping.

    Records compare equal to plain dicts with the same items, support
    ``record["column"]`` access, and preserve the series' column order.
    """

    __slots__ = ("_values",)

    def __init__(self, columns: Sequence[str], row: Sequence[Cell]) -> None:
        """Bind one row of cells to its column names."""
        self._values: Dict[str, Cell] = dict(zip(columns, row))

    def __getitem__(self, key: str) -> Cell:
        """Cell value of one column."""
        return self._values[key]

    def __iter__(self) -> Iterator[str]:
        """Iterate the column names in series order."""
        return iter(self._values)

    def __len__(self) -> int:
        """Number of columns."""
        return len(self._values)

    def __repr__(self) -> str:
        """Debug rendering (mapping-style)."""
        return f"Record({self._values!r})"


@dataclass(frozen=True)
class Series:
    """One named table of an :class:`ExperimentResult`.

    Attributes
    ----------
    name:
        Table identifier within the result (e.g. ``"gains"``).
    columns:
        Column names, in presentation order.
    rows:
        The data, one tuple of JSON scalars per row; every row must have
        exactly one cell per column.
    """

    name: str
    columns: Tuple[str, ...]
    rows: Tuple[Tuple[Cell, ...], ...] = ()

    def __post_init__(self) -> None:
        """Normalise nested sequences to tuples and validate the shape."""
        object.__setattr__(self, "columns", tuple(str(c) for c in self.columns))
        object.__setattr__(self, "rows", tuple(tuple(row) for row in self.rows))
        if not self.name:
            raise ConfigurationError("a series needs a non-empty name")
        if not self.columns:
            raise ConfigurationError(f"series {self.name!r} needs at least one column")
        if len(set(self.columns)) != len(self.columns):
            raise ConfigurationError(f"series {self.name!r} has duplicate column names")
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ConfigurationError(
                    f"series {self.name!r}: row {row!r} does not match "
                    f"columns {self.columns!r}"
                )
            for value in row:
                if not _is_cell(value):
                    raise ConfigurationError(
                        f"series {self.name!r}: cell {value!r} is not a finite JSON scalar"
                    )

    def __len__(self) -> int:
        """Number of rows."""
        return len(self.rows)

    def column(self, name: str) -> List[Cell]:
        """All values of one column, in row order."""
        try:
            index = self.columns.index(name)
        except ValueError:
            raise ConfigurationError(
                f"series {self.name!r} has no column {name!r}; "
                f"columns are {', '.join(self.columns)}"
            ) from None
        return [row[index] for row in self.rows]

    def records(self) -> List[Record]:
        """Every row as a :class:`Record` mapping."""
        return [Record(self.columns, row) for row in self.rows]

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data representation (JSON-ready)."""
        return {
            "name": self.name,
            "columns": list(self.columns),
            "rows": [list(row) for row in self.rows],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Series":
        """Rebuild a series from :meth:`to_dict` output (lossless)."""
        try:
            return cls(
                name=payload["name"],
                columns=tuple(payload["columns"]),
                rows=tuple(tuple(row) for row in payload["rows"]),
            )
        except KeyError as missing:
            raise ConfigurationError(f"series payload is missing key {missing}") from None


@dataclass(frozen=True)
class ExperimentResult:
    """Typed, serializable outcome of one experiment run.

    Attributes
    ----------
    name:
        Registry name of the experiment (e.g. ``"alice-bob"``,
        ``"chain_sweep"``) — the same name :func:`repro.api.run` accepts.
    kind:
        ``"figure"`` for the paper-figure runners, ``"scenario"`` for
        registered scenario sweeps.
    config:
        JSON snapshot of the :class:`~repro.experiments.config.ExperimentConfig`
        the run used.
    config_digest:
        Short stable digest of ``config`` (cheap identity check).
    seed:
        The master random seed (also present in ``config``; duplicated as
        a first-class field because it is the key replication knob).
    series:
        The result tables, keyed by series name, in presentation order.
    scalars:
        Headline scalar results (e.g. ``mean_overlap``, ``crossover_db``).
    meta:
        Free-form metadata: the renderer tag, engine cache/timing
        statistics, sweep parameters, library version.
    schema_version:
        Serialization schema tag (see :data:`SCHEMA_VERSION`).
    """

    name: str
    kind: str
    config: Mapping[str, Any]
    config_digest: str = ""
    seed: int = 0
    series: Mapping[str, Series] = field(default_factory=dict)
    scalars: Mapping[str, float] = field(default_factory=dict)
    meta: Mapping[str, Any] = field(default_factory=dict)
    schema_version: str = SCHEMA_VERSION

    def __post_init__(self) -> None:
        """Normalise containers to JSON-clean dicts and fill the digest."""
        object.__setattr__(self, "config", _jsonify(dict(self.config)))
        object.__setattr__(self, "scalars", {
            str(key): value for key, value in dict(self.scalars).items()
        })
        for key, value in self.scalars.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ConfigurationError(f"scalar {key!r} must be a number, got {value!r}")
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigurationError(
                    f"scalar {key!r} must be finite (got {value!r}); omit "
                    "undefined scalars instead of storing NaN/inf"
                )
        object.__setattr__(self, "meta", _jsonify(dict(self.meta)))
        series = dict(self.series)
        for key, table in series.items():
            if not isinstance(table, Series):
                raise ConfigurationError(f"series {key!r} must be a Series instance")
            if table.name != key:
                raise ConfigurationError(
                    f"series key {key!r} does not match table name {table.name!r}"
                )
        object.__setattr__(self, "series", series)
        if not self.config_digest:
            object.__setattr__(self, "config_digest", config_digest(self.config))

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    def get_series(self, name: str) -> Series:
        """Look up one result table by name."""
        try:
            return self.series[name]
        except KeyError:
            raise ConfigurationError(
                f"result {self.name!r} has no series {name!r}; "
                f"available: {', '.join(self.series) or '(none)'}"
            ) from None

    def with_meta(self, **entries: Any) -> "ExperimentResult":
        """A copy with extra metadata entries merged in."""
        merged = dict(self.meta)
        merged.update(entries)
        return replace(self, meta=merged)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Lossless plain-data representation (JSON-ready).

        ``from_dict(to_dict(result)) == result`` holds exactly: every
        container is already JSON-clean and every cell is a JSON scalar.
        """
        return {
            "schema_version": self.schema_version,
            "name": self.name,
            "kind": self.kind,
            "config": dict(self.config),
            "config_digest": self.config_digest,
            "seed": self.seed,
            "series": [table.to_dict() for table in self.series.values()],
            "scalars": dict(self.scalars),
            "meta": dict(self.meta),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ExperimentResult":
        """Rebuild a result from :meth:`to_dict` output (lossless).

        Raises :class:`~repro.exceptions.ConfigurationError` when the
        payload's schema tag is missing or unknown, so readers fail loudly
        on exports from an incompatible version instead of mis-parsing.
        """
        version = payload.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ConfigurationError(
                f"unsupported result schema {version!r} (expected {SCHEMA_VERSION!r})"
            )
        try:
            tables = [Series.from_dict(entry) for entry in payload["series"]]
            return cls(
                name=payload["name"],
                kind=payload["kind"],
                config=payload["config"],
                config_digest=payload["config_digest"],
                seed=payload["seed"],
                series={table.name: table for table in tables},
                scalars=payload["scalars"],
                meta=payload["meta"],
                schema_version=version,
            )
        except KeyError as missing:
            raise ConfigurationError(f"result payload is missing key {missing}") from None

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Serialize to a strict RFC-compliant JSON document.

        ``allow_nan=False`` is defensive: construction already rejects
        non-finite numbers, so a violation here means a bug upstream.
        """
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False, allow_nan=False)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentResult":
        """Parse a result from :meth:`to_json` output."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise ConfigurationError(f"invalid result JSON: {error}") from None
        if not isinstance(payload, dict):
            raise ConfigurationError("result JSON must be an object")
        return cls.from_dict(payload)

    def to_csv(self) -> str:
        """Serialize to sectioned CSV (schema-versioned, machine-readable).

        Layout: a header section of ``key,value`` pairs (schema version,
        name, kind, digest, seed), a ``[scalars]`` section, then one
        ``[series <name>]`` section per table with a column-header row
        followed by the data rows.  Floats are written with ``repr``-exact
        precision, so a reader recovers the same values JSON would carry.
        """
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["schema_version", self.schema_version])
        writer.writerow(["name", self.name])
        writer.writerow(["kind", self.kind])
        writer.writerow(["config_digest", self.config_digest])
        writer.writerow(["seed", self.seed])
        writer.writerow(["[scalars]"])
        writer.writerow(["key", "value"])
        for key, value in self.scalars.items():
            writer.writerow([key, repr(float(value))])
        for table in self.series.values():
            writer.writerow([f"[series {table.name}]"])
            writer.writerow(list(table.columns))
            for row in table.rows:
                writer.writerow([
                    repr(cell) if isinstance(cell, float) and not isinstance(cell, bool)
                    else ("" if cell is None else cell)
                    for cell in row
                ])
        return buffer.getvalue()


def make_result(
    name: str,
    kind: str,
    config: Any,
    renderer: str,
    series: Iterable[Series],
    scalars: Optional[Mapping[str, float]] = None,
    **meta: Any,
) -> ExperimentResult:
    """Assemble one experiment's result from its tables.

    ``config`` is the run's :class:`~repro.experiments.config.ExperimentConfig`;
    its snapshot and seed are recorded.  ``meta`` starts with the
    ``renderer`` tag :func:`~repro.results.render.render_text` dispatches
    on and the library version, followed by the extra ``meta`` entries in
    the order given.
    """
    return ExperimentResult(
        name=name,
        kind=kind,
        config=config.snapshot(),
        seed=int(config.seed),
        series={table.name: table for table in series},
        scalars=dict(scalars or {}),
        meta={"renderer": renderer, "version": repro.__version__, **meta},
    )
