"""The benchmark's workloads: inputs made from a seed, one timed call, a check.

Every workload is a closed loop with one client: the harness calls
:meth:`Workload.call` again only after the previous call returned and was
checked.  The library is reached only through its public surface
(``repro.api.run``, ``repro.api.run_campaign``, ``repro.results.render_text``
and ``ExperimentConfig``), imported in :meth:`Workload.bind` so that the
harness can time that import as part of set-up.

:meth:`Workload.check` turns a call's value into an :class:`Outcome`: one
SHA-256 digest per operation (an iteration, or a campaign job) of its
``render_text`` output, plus the packet and latency figures the report
needs.
"""

from __future__ import annotations

import hashlib
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional


def text_digest(text: str) -> str:
    """SHA-256 hex digest of a rendered report."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Outcome:
    """What one checked call produced.

    ``parts`` holds one digest per operation; an operation the program
    reported as failed carries a ``status:<status>`` marker instead.
    """

    parts: List[str]
    packets: int
    hit_s: List[float] = field(default_factory=list)
    miss_s: List[float] = field(default_factory=list)

    @property
    def digest(self) -> str:
        """Digest of the whole call's output (what the references record)."""
        return text_digest("\n".join(self.parts))


def _column_sum(result: Any, series: str, column: str,
                where: Optional[Dict[str, Any]] = None) -> float:
    """Sum one column of a result table, optionally over matching rows."""
    return sum(
        float(record[column])
        for record in result.get_series(series).records()
        if not where or all(record[key] == value for key, value in where.items())
    )


class Workload:
    """Base class; subclasses define the inputs, the call and the check."""

    name = ""

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = int(seed)
        self.scratch = Path(scratch)

    def bind(self) -> None:
        """Import the library surface the workload drives."""
        from repro import api
        from repro.experiments import ExperimentConfig
        from repro import results

        self.api = api
        self.config_type = ExperimentConfig
        self.results = results

    def prepare(self) -> None:
        """Build untimed fixtures the call needs (none by default)."""

    def start(self) -> None:
        """Untimed per-iteration preparation (none by default)."""

    def call(self, progress: Optional[Callable[[Dict[str, Any]], None]] = None) -> Any:
        """The timed part of one iteration."""
        raise NotImplementedError

    def check(self, value: Any) -> Outcome:
        """Digest and measure one call's value."""
        raise NotImplementedError


class AliceBob(Workload):
    """Fig. 9: the Alice–relay–Bob exchange under all three schemes."""

    name = "alice_bob"
    RUNS = 4
    PACKETS_PER_RUN = 12

    def call(self, progress=None):
        config = self.config_type(
            runs=self.RUNS, packets_per_run=self.PACKETS_PER_RUN, seed=self.seed
        )
        result = self.api.run("alice-bob", config)
        return result, self.results.render_text(result)

    def check(self, value):
        result, text = value
        return Outcome([text_digest(text)], int(_column_sum(result, "runs", "packets_offered")))


class OfferedLoad(Workload):
    """§8 under load: the quick offered-load sweep through the event simulator."""

    name = "offered_load"
    RUNS = 3

    def call(self, progress=None):
        config = self.config_type.quick(seed=self.seed).with_overrides(runs=self.RUNS)
        result = self.api.run("offered_load_sweep", config, quick=True)
        return result, self.results.render_text(result)

    def check(self, value):
        result, text = value
        # ``cells`` holds per-run means; the sweep ran ``runs`` runs per cell.
        offered = _column_sum(result, "cells", "mean", {"metric": "offered"})
        return Outcome([text_digest(text)], round(offered * int(result.meta["runs"])))


class CampaignExtend(Workload):
    """Resume after extending a sweep: N stored grid points plus M new ones."""

    name = "campaign_extend"
    STORED = 256
    NEW = 8
    CONCURRENCY = 2
    BASE = {"runs": 1, "packets_per_run": 1, "payload_bits": 64}

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        self.fixture = self.scratch / "fixture"
        self._store_dir: Optional[Path] = None
        self._iteration = 0

    def _spec(self, points: int):
        from repro.campaign.spec import CampaignSpec

        first = self.seed * (self.STORED + self.NEW)
        return CampaignSpec(
            "alice-bob", base=self.BASE, axes={"seed": [first + i for i in range(points)]}
        )

    def prepare(self):
        report = self.api.run_campaign(
            self._spec(self.STORED), store=self.fixture, concurrency=self.CONCURRENCY
        )
        if report.failed or report.completed != self.STORED:
            raise RuntimeError(f"campaign fixture incomplete: {report.summary()}")

    def start(self):
        if self._store_dir is not None:
            shutil.rmtree(self._store_dir)
        self._iteration += 1
        self._store_dir = self.scratch / f"store-{self._iteration}"
        shutil.copytree(self.fixture, self._store_dir)

    def call(self, progress=None):
        return self.api.run_campaign(
            self._spec(self.STORED + self.NEW),
            store=self._store_dir,
            concurrency=self.CONCURRENCY,
            progress=progress,
        )

    def check(self, report):
        from repro.campaign.store import ResultStore

        store = ResultStore(self._store_dir)
        parts: List[str] = []
        packets = 0
        hit_s: List[float] = []
        miss_s: List[float] = []
        for index, outcome in enumerate(report.outcomes):
            expected = "cached" if index < self.STORED else "completed"
            result = store.get(outcome.job.digest)
            if outcome.status != expected or result is None:
                parts.append(f"status:{outcome.status}")
                continue
            parts.append(text_digest(self.results.render_text(result)))
            if expected == "cached":
                hit_s.append(outcome.elapsed_seconds)
            else:
                miss_s.append(outcome.elapsed_seconds)
                packets += int(_column_sum(result, "runs", "packets_offered"))
        return Outcome(parts, packets, hit_s, miss_s)


WORKLOADS = {cls.name: cls for cls in (AliceBob, OfferedLoad, CampaignExtend)}
