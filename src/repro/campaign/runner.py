"""The campaign runner: resume, execute once, store.

:class:`CampaignRunner` turns an expanded job list into completed
results, one job after another:

* **resume before work** — a job whose digest is already in the
  :class:`~repro.campaign.store.ResultStore`, sealed and naming that
  job's experiment and config (:meth:`~repro.campaign.store.ResultStore.holds`),
  is counted as ``cached`` and never executed;
* **execute once** — every other job runs through :func:`repro.api.run`
  on the runner's one :class:`~repro.experiments.engine.ExperimentEngine`,
  whose process pool spreads the job's trials over ``concurrency``
  workers.  The pool is started once, by the first job with trials to
  spread, and shut down when the job list is done.  A job is a pure
  function of (code, config, seed), so a job that fails would fail
  again: it is recorded as ``failed`` with its error, is not stored, and
  does not sink the rest of the campaign;
* **store-through** — every computed result is published to the store
  atomically, so a campaign killed at any instant resumes from exactly
  the set of jobs that completed.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro import api
from repro.campaign.spec import CampaignJob, CampaignSpec
from repro.campaign.store import ResultStore
from repro.exceptions import ConfigurationError
from repro.experiments.engine import ExperimentEngine
from repro.results.model import ExperimentResult

#: Executes one job and returns its result (injectable for tests).
JobFn = Callable[[CampaignJob], ExperimentResult]

#: Receives progress-event dicts as the campaign advances (sync callback).
ProgressFn = Callable[[Dict[str, Any]], None]

#: Job terminal states.
JOB_STATUSES = ("completed", "cached", "failed")


@dataclass(frozen=True)
class JobOutcome:
    """Terminal record of one campaign job.

    Attributes
    ----------
    job:
        The grid point this outcome belongs to.
    status:
        ``"completed"`` (computed this run), ``"cached"`` (served from
        the store) or ``"failed"`` (its one execution raised).
    error:
        The error message for failed jobs, else empty.
    elapsed_seconds:
        Wall-clock spent on the job in this run.
    """

    job: CampaignJob
    status: str
    error: str = ""
    elapsed_seconds: float = 0.0

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready view (for the JSON report and the CLI summary)."""
        payload = dict(self.job.describe())
        payload.update(
            status=self.status,
            error=self.error,
            elapsed_seconds=float(self.elapsed_seconds),
        )
        return payload


@dataclass
class CampaignReport:
    """Everything one :meth:`CampaignRunner.run` invocation produced.

    Attributes
    ----------
    spec:
        The campaign that ran.
    outcomes:
        One :class:`JobOutcome` per job, in grid order.
    store_stats:
        The store handle's traffic counters after the run.
    elapsed_seconds:
        Wall-clock of the whole campaign.
    """

    spec: CampaignSpec
    outcomes: List[JobOutcome] = field(default_factory=list)
    store_stats: Dict[str, int] = field(default_factory=dict)
    elapsed_seconds: float = 0.0

    def count(self, status: str) -> int:
        """Number of jobs that ended in ``status``."""
        if status not in JOB_STATUSES:
            raise ConfigurationError(
                f"unknown job status {status!r}; choose from {JOB_STATUSES}"
            )
        return sum(1 for outcome in self.outcomes if outcome.status == status)

    @property
    def completed(self) -> int:
        """Jobs computed in this run."""
        return self.count("completed")

    @property
    def cached(self) -> int:
        """Jobs served from the result store without recomputation."""
        return self.count("cached")

    @property
    def failed(self) -> int:
        """Jobs whose execution raised."""
        return self.count("failed")

    @property
    def total(self) -> int:
        """Jobs in the campaign (this shard)."""
        return len(self.outcomes)

    def failures(self) -> List[JobOutcome]:
        """The failed outcomes, in grid order."""
        return [outcome for outcome in self.outcomes if outcome.status == "failed"]

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready summary (the CLI's ``--format json`` payload)."""
        return {
            "campaign": self.spec.campaign_id(),
            "name": self.spec.name,
            "experiment": self.spec.experiment,
            "total": self.total,
            "completed": self.completed,
            "cached": self.cached,
            "failed": self.failed,
            "elapsed_seconds": float(self.elapsed_seconds),
            "store": dict(self.store_stats),
            "jobs": [outcome.as_dict() for outcome in self.outcomes],
        }

    def summary(self) -> str:
        """One-paragraph plain-text summary for the CLI."""
        lines = [
            f"campaign {self.spec.name} ({self.spec.campaign_id()[:12]}): "
            f"{self.total} job(s) — {self.completed} computed, "
            f"{self.cached} from store, {self.failed} failed "
            f"in {self.elapsed_seconds:.2f}s"
        ]
        for outcome in self.failures():
            lines.append(
                f"  FAILED job {outcome.job.index} "
                f"({dict(outcome.job.overrides)!r}): {outcome.error}"
            )
        return "\n".join(lines)




class CampaignRunner:
    """Runs campaign job sets one after another on one trial engine.

    Parameters
    ----------
    store:
        Shared result store (a directory path, a
        :class:`~repro.campaign.store.ResultStore`, or ``None`` for a
        store-less run that recomputes everything).
    concurrency:
        Worker processes of the runner's
        :class:`~repro.experiments.engine.ExperimentEngine`; each job's
        trials fan out over them (results are bit-identical at every
        value).
    job_fn:
        The executor mapping a job to its result; defaults to
        :func:`repro.api.run` on the runner's engine.  Injectable so
        tests control execution.
    progress:
        Optional callback receiving one event dict per job transition
        (``started`` / ``completed`` / ``cached`` / ``failed``).
    """

    def __init__(
        self,
        store: Any = None,
        concurrency: int = 4,
        job_fn: Optional[JobFn] = None,
        progress: Optional[ProgressFn] = None,
    ) -> None:
        """Validate the policy and build the shared engine."""
        if int(concurrency) < 1:
            raise ConfigurationError("concurrency must be a positive integer")
        self.store = store if isinstance(store, ResultStore) else ResultStore(store)
        self.engine = ExperimentEngine(workers=int(concurrency))
        self.job_fn: JobFn = job_fn if job_fn is not None else self._execute
        self.progress = progress

    def _execute(self, job: CampaignJob) -> ExperimentResult:
        """Default job executor: run the experiment on the shared engine."""
        return api.run(job.experiment, config=job.config, engine=self.engine, quick=job.quick)

    def _emit(self, event: str, job: CampaignJob, **extra: Any) -> None:
        """Deliver one progress event to the callback, if any."""
        if self.progress is not None:
            self.progress({"event": event, **job.describe(), **extra})

    def run(
        self, spec: CampaignSpec, shard_index: int = 0, shard_count: int = 1
    ) -> CampaignReport:
        """Run one campaign (shard) to completion and report every outcome."""
        return self.run_jobs(spec, spec.jobs(shard_index, shard_count))

    def run_jobs(self, spec: CampaignSpec, jobs: Sequence[CampaignJob]) -> CampaignReport:
        """Run an explicit job list (already expanded/sharded) to completion."""
        started = time.perf_counter()
        try:
            outcomes = [self._run_job(job) for job in jobs]
        finally:
            self.engine.close()
        return CampaignReport(
            spec=spec,
            outcomes=outcomes,
            store_stats=self.store.stats.as_dict(),
            elapsed_seconds=time.perf_counter() - started,
        )

    def _run_job(self, job: CampaignJob) -> JobOutcome:
        """Resume-check, execute once and store one job."""
        started = time.perf_counter()
        if self.store.holds(job.digest, job):
            self._emit("cached", job)
            return JobOutcome(job, "cached", elapsed_seconds=time.perf_counter() - started)
        self._emit("started", job)
        try:
            result = self.job_fn(job)
        except Exception as error:
            message = "".join(traceback.format_exception_only(type(error), error)).strip()
            self._emit("failed", job, error=message)
            return JobOutcome(
                job, "failed", error=message, elapsed_seconds=time.perf_counter() - started
            )
        self.store.put(job.digest, result)
        self._emit("completed", job)
        return JobOutcome(job, "completed", elapsed_seconds=time.perf_counter() - started)
