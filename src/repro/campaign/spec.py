"""Declarative sweep grids: :class:`CampaignSpec` and its job expansion.

A *campaign* is a whole family of experiment runs declared as data: one
experiment name, a base configuration, and one or more *axes* — config
fields with a list of values each.  The spec expands into the cartesian
product of the axes, in a deterministic order, with a stable
content-addressing digest per job, so that

* the same spec always expands to the same jobs in the same order (the
  grid can be sharded across workers or machines with
  :meth:`CampaignSpec.jobs` and every shard agrees on the numbering);
* a job's digest identifies its *content* — experiment, quick flag and
  the full config snapshot — so two campaigns whose grids overlap share
  results through the :class:`~repro.campaign.store.ResultStore` instead
  of recomputing the overlap.

Validation happens up front, at spec construction and expansion time:
axis names must be real :class:`~repro.experiments.config.ExperimentConfig`
fields, every expanded job's config is checked against the target
experiment's ``reads`` declaration
(:func:`~repro.experiments.runner.check_reads`, the same check
:func:`repro.api.run` applies), and every expanded config is audited to
round-trip through
``ExperimentConfig.from_snapshot(config.snapshot())`` so omission rules
in :meth:`~repro.experiments.config.ExperimentConfig.snapshot` can never
make two distinct grid points collide on one digest.

See ``docs/CAMPAIGNS.md`` for the JSON grid-spec format and worked
examples.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.exceptions import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import check_reads
from repro.store import content_digest

#: Schema tag of the serialized spec (and the job-digest payload).  Bump
#: on any change that alters digests, so old stores are never misread.
CAMPAIGN_SCHEMA = "anc-repro.campaign/1"

#: Config fields campaigns may set (every ExperimentConfig field).
CONFIG_FIELDS = tuple(f.name for f in fields(ExperimentConfig))


def _jsonable_axis_value(value: Any) -> bool:
    """Is ``value`` usable as an axis point (a JSON scalar or flat list)?"""
    if isinstance(value, (bool, int, float, str)) or value is None:
        return True
    if isinstance(value, (list, tuple)):
        return all(isinstance(item, (bool, int, float, str)) for item in value)
    return False


def job_digest(experiment: str, quick: bool, snapshot: Mapping[str, Any]) -> str:
    """Content digest of one job: experiment + quick flag + config snapshot.

    ``snapshot`` is the job config's
    :meth:`~repro.experiments.config.ExperimentConfig.snapshot`.  The
    digest is the store key: any config field that survives the snapshot
    forks it, and the snapshot's omission rules are audited to be
    injective by :func:`audit_snapshot_roundtrip`, so distinct configs can
    never share a digest.
    """
    payload = {
        "schema": CAMPAIGN_SCHEMA,
        "experiment": experiment,
        "quick": bool(quick),
        "config": snapshot,
    }
    return content_digest(payload)


def audit_snapshot_roundtrip(config: ExperimentConfig, snapshot: Mapping[str, Any]) -> None:
    """Assert one config survives its snapshot round-trip unchanged.

    ``snapshot`` is ``config.snapshot()``, the payload the job digest is
    taken from.  ``snapshot()`` omits default-valued knobs so historical
    digests stay stable; that omission is only safe for content
    addressing if it is *injective* — every field an experiment ``reads``
    (and every other field) must reconstruct to an equal config.  A
    failure here means two distinct grid points would collide on one
    digest, so it raises instead of letting a campaign silently dedupe
    wrong results.
    """
    rebuilt = ExperimentConfig.from_snapshot(snapshot)
    if rebuilt != config:
        raise ConfigurationError(
            "config does not round-trip through snapshot(): "
            f"{config!r} reconstructed as {rebuilt!r}; a snapshot omission "
            "rule is lossy and campaign digests could collide"
        )


@dataclass(frozen=True)
class CampaignJob:
    """One expanded grid point of a campaign.

    Attributes
    ----------
    index:
        Position in the campaign's deterministic expansion order.
    experiment:
        The :func:`repro.api.run` name the job executes.
    quick:
        Whether scenario sweeps run at their thinned smoke-test axis.
    overrides:
        The ``(field, value)`` pairs this job's axes contributed, in
        axis-name order — what distinguishes it from the base config.
    config:
        The fully built, validated :class:`ExperimentConfig`.
    digest:
        Content digest (:func:`job_digest`) — the result-store key.
    """

    index: int
    experiment: str
    quick: bool
    overrides: Tuple[Tuple[str, Any], ...]
    config: ExperimentConfig
    digest: str

    def describe(self) -> Dict[str, Any]:
        """JSON-ready one-line description (for reports and progress events)."""
        return {
            "index": self.index,
            "experiment": self.experiment,
            "digest": self.digest,
            "overrides": {name: value for name, value in self.overrides},
        }


@dataclass(frozen=True)
class CampaignSpec:
    """A declarative sweep grid over one experiment.

    Attributes
    ----------
    experiment:
        Any name :func:`repro.api.run` accepts (figure or scenario).
    base:
        Config-field overrides applied to every job before its axis
        values (e.g. ``{"runs": 2, "packets_per_run": 2}``).
    axes:
        Mapping of config-field name to the values it sweeps.  The grid
        is the cartesian product of all axes; expansion iterates axes in
        sorted-name order, last axis fastest.
    quick:
        Scenario sweeps only: thin the sweep axis to smoke-test values.
    name:
        Optional human label carried through campaign reports; defaults
        to the experiment name.  Not part of any digest.
    """

    experiment: str
    base: Mapping[str, Any] = field(default_factory=dict)
    axes: Mapping[str, Tuple[Any, ...]] = field(default_factory=dict)
    quick: bool = False
    name: str = ""

    def __post_init__(self) -> None:
        """Validate field names, axis values and every job's ``reads`` contract."""
        object.__setattr__(self, "base", dict(self.base))
        object.__setattr__(
            self, "axes", {str(k): tuple(v) for k, v in dict(self.axes).items()}
        )
        object.__setattr__(self, "name", str(self.name) or self.experiment)
        from repro import api

        entry = api.get_experiment(self.experiment)
        unknown = sorted((set(self.base) | set(self.axes)) - set(CONFIG_FIELDS))
        if unknown:
            raise ConfigurationError(
                f"campaign sets unknown config field(s) {', '.join(unknown)}; "
                f"valid fields are {', '.join(CONFIG_FIELDS)}"
            )
        overlap = sorted(set(self.base) & set(self.axes))
        if overlap:
            raise ConfigurationError(
                f"campaign field(s) {', '.join(overlap)} appear in both "
                "base and axes; an axis already overrides the base"
            )
        for axis, values in self.axes.items():
            if not values:
                raise ConfigurationError(f"axis {axis!r} has no values")
            if not all(_jsonable_axis_value(v) for v in values):
                raise ConfigurationError(
                    f"axis {axis!r} values must be JSON scalars (or flat "
                    "lists for tuple-typed fields); got "
                    f"{[v for v in values if not _jsonable_axis_value(v)]!r}"
                )
        # The grid is built once; jobs() audits and digests these configs.
        object.__setattr__(self, "_grid", tuple(self._expand()))
        # Enforce the reads contract at declaration time: the per-run
        # check in repro.api.run would catch it too, but only once a job
        # runs — a 1000-job grid that fails on job one is a spec bug.
        for _, config in self._grid:
            check_reads(entry, config)

    # ------------------------------------------------------------------
    # Expansion
    # ------------------------------------------------------------------
    @property
    def axis_names(self) -> Tuple[str, ...]:
        """Axis names in expansion order (sorted; last varies fastest)."""
        return tuple(sorted(self.axes))

    @property
    def total_jobs(self) -> int:
        """Number of grid points the spec expands to."""
        total = 1
        for values in self.axes.values():
            total *= len(values)
        return total

    def jobs(self, shard_index: int = 0, shard_count: int = 1) -> List[CampaignJob]:
        """Expand the grid into its (optionally sharded) job list.

        Expansion is deterministic: axes iterate in sorted-name order
        with the last axis varying fastest, and jobs are numbered in that
        order.  Shard ``i`` of ``n`` takes jobs ``i, i+n, i+2n, ...`` —
        round-robin, so every shard sees a representative slice of the
        grid and the union over shards is exactly the full grid.

        Every job's config was validated when the spec was built
        (construction runs the normal ``ExperimentConfig`` checks); here
        its one snapshot is audited for the round-trip
        (:func:`audit_snapshot_roundtrip`) and digested, and the digests
        are checked for uniqueness — duplicate grid points (e.g. a
        repeated axis value) raise instead of silently deduping.
        """
        if shard_count < 1 or not 0 <= shard_index < shard_count:
            raise ConfigurationError(
                f"invalid shard {shard_index}/{shard_count}: need "
                "0 <= shard_index < shard_count"
            )
        jobs: List[CampaignJob] = []
        seen: Dict[str, int] = {}
        for index, (overrides, config) in enumerate(self._grid):
            snapshot = config.snapshot()
            audit_snapshot_roundtrip(config, snapshot)
            digest = job_digest(self.experiment, self.quick, snapshot)
            if digest in seen:
                raise ConfigurationError(
                    f"duplicate grid point: jobs {seen[digest]} and {index} "
                    f"expand to the same config (digest {digest[:12]}); "
                    "check the axes for repeated values"
                )
            seen[digest] = index
            jobs.append(
                CampaignJob(
                    index=index,
                    experiment=self.experiment,
                    quick=self.quick,
                    overrides=overrides,
                    config=config,
                    digest=digest,
                )
            )
        return [job for job in jobs if job.index % shard_count == shard_index]

    def _expand(self) -> Iterator[Tuple[Tuple[Tuple[str, Any], ...], ExperimentConfig]]:
        """Each grid point's axis overrides and built config, in job order."""
        base_config = ExperimentConfig.from_snapshot(dict(self.base))
        names = self.axis_names
        for values in itertools.product(*(self.axes[name] for name in names)):
            overrides = tuple(zip(names, values))
            yield overrides, base_config.with_overrides(
                **{name: ExperimentConfig.coerce_field(name, value) for name, value in overrides}
            )

    def campaign_id(self) -> str:
        """Stable content id of the whole campaign (spec digest, 20 hex).

        Content-addressed like job digests: the same grid always yields
        the same id, whatever its display ``name`` (deliberately
        excluded).
        """
        payload = dict(self.to_dict())
        payload.pop("name", None)
        return content_digest(payload, 20)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (the spec-file format)."""
        return {
            "schema": CAMPAIGN_SCHEMA,
            "experiment": self.experiment,
            "name": self.name,
            "quick": self.quick,
            "base": dict(self.base),
            "axes": {name: list(values) for name, values in self.axes.items()},
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Serialize the spec to its JSON spec-file format."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "CampaignSpec":
        """Rebuild a spec from :meth:`to_dict` output (or a spec file).

        The ``schema`` tag is optional on input (hand-written spec files
        may omit it) but rejected when present and unknown.
        """
        if not isinstance(payload, Mapping):
            raise ConfigurationError("campaign spec must be a JSON object")
        schema = payload.get("schema", CAMPAIGN_SCHEMA)
        if schema != CAMPAIGN_SCHEMA:
            raise ConfigurationError(
                f"unsupported campaign schema {schema!r} "
                f"(expected {CAMPAIGN_SCHEMA!r})"
            )
        unknown = sorted(
            set(payload) - {"schema", "experiment", "name", "quick", "base", "axes"}
        )
        if unknown:
            raise ConfigurationError(
                f"campaign spec has unknown key(s): {', '.join(unknown)}"
            )
        try:
            experiment = payload["experiment"]
        except KeyError:
            raise ConfigurationError(
                "campaign spec is missing the 'experiment' key"
            ) from None
        quick = payload.get("quick", False)
        if not isinstance(quick, bool):
            raise ConfigurationError(
                f"campaign 'quick' must be true or false, got {quick!r}"
            )
        base = payload.get("base", {})
        if not isinstance(base, Mapping):
            raise ConfigurationError("campaign 'base' must be an object")
        axes = payload.get("axes", {})
        if not isinstance(axes, Mapping):
            raise ConfigurationError("campaign 'axes' must be an object")
        for axis, values in axes.items():
            if not isinstance(values, (list, tuple)):
                raise ConfigurationError(
                    f"campaign axis {axis!r} must be a list of values, got {values!r}"
                )
        return cls(
            experiment=str(experiment),
            base=dict(base),
            axes={str(k): tuple(v) for k, v in axes.items()},
            quick=quick,
            name=str(payload.get("name", "")),
        )

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        """Parse a spec from its JSON spec-file format."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise ConfigurationError(f"invalid campaign spec JSON: {error}") from None
        return cls.from_dict(payload)
