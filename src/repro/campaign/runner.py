"""The asyncio campaign runner: bounded concurrency, retries, resume.

:class:`CampaignRunner` turns an expanded job list into completed
results.  Execution discipline:

* **bounded concurrency** — at most ``concurrency`` jobs of one
  campaign run at once (an :class:`asyncio.Semaphore`); everything else
  waits in line;
* **resume before work** — a job whose digest is already in the
  :class:`~repro.campaign.store.ResultStore` is counted as ``cached``
  and never executed;
* **retry with backoff** — a failing job is retried up to ``retries``
  times with exponential backoff; a job that exhausts its retries is
  recorded as ``failed`` without sinking the rest of the campaign;
* **store-through** — every computed result is published to the store
  atomically, so a campaign killed at any instant resumes from exactly
  the set of jobs that completed.

Experiments execute through :func:`repro.api.run` on worker threads
(:func:`asyncio.to_thread`), so up to ``concurrency`` jobs overlap.
"""

from __future__ import annotations

import asyncio
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.campaign.spec import CampaignJob, CampaignSpec
from repro.campaign.store import ResultStore
from repro.exceptions import ConfigurationError
from repro.results.model import ExperimentResult

#: Executes one job and returns its result (injectable for tests).
JobFn = Callable[[CampaignJob], ExperimentResult]

#: Receives progress-event dicts as the campaign advances (sync callback).
ProgressFn = Callable[[Dict[str, Any]], None]

#: Job terminal states.
JOB_STATUSES = ("completed", "cached", "failed")


def execute_job(job: CampaignJob) -> ExperimentResult:
    """Default job executor: run the experiment through :mod:`repro.api`.

    Each job gets a fresh serial engine, so results are bit-identical to
    a direct ``api.run`` call; the campaign layer's parallelism comes
    from running *jobs* concurrently, and the engine's own trial cache /
    worker fan-out remain available underneath via a custom ``job_fn``.
    """
    from repro import api

    return api.run(job.experiment, config=job.config, quick=job.quick)


@dataclass(frozen=True)
class JobOutcome:
    """Terminal record of one campaign job.

    Attributes
    ----------
    job:
        The grid point this outcome belongs to.
    status:
        ``"completed"`` (computed this run), ``"cached"`` (served from
        the store) or ``"failed"`` (retries exhausted).
    attempts:
        Execution attempts made (0 for cached jobs).
    error:
        Last error message for failed jobs, else empty.
    elapsed_seconds:
        Wall-clock spent on the job in this run (queue wait excluded).
    """

    job: CampaignJob
    status: str
    attempts: int = 0
    error: str = ""
    elapsed_seconds: float = 0.0

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready view (for the JSON report and the CLI summary)."""
        payload = dict(self.job.describe())
        payload.update(
            status=self.status,
            attempts=self.attempts,
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
        """Jobs that exhausted their retries."""
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
    """Runs campaign job sets under one concurrency/retry policy.

    Parameters
    ----------
    store:
        Shared result store (a directory path, a
        :class:`~repro.campaign.store.ResultStore`, or ``None`` for a
        store-less run that recomputes everything).
    concurrency:
        Maximum jobs in flight at once.
    retries:
        Re-executions allowed per job after its first failure.
    backoff:
        Base delay in seconds before retry ``n`` (sleeps
        ``backoff * 2**n``); 0 disables the delay (tests).
    job_fn:
        The executor mapping a job to its result; defaults to
        :func:`execute_job`.  Injectable so tests (and embedders that
        want engine workers per job) control execution.
    progress:
        Optional callback receiving one event dict per job transition
        (``started`` / ``retry`` / ``completed`` / ``cached`` /
        ``failed``).
    """

    def __init__(
        self,
        store: Any = None,
        concurrency: int = 4,
        retries: int = 2,
        backoff: float = 0.5,
        job_fn: Optional[JobFn] = None,
        progress: Optional[ProgressFn] = None,
    ) -> None:
        """Validate and freeze the execution policy."""
        if int(concurrency) < 1:
            raise ConfigurationError("concurrency must be a positive integer")
        if int(retries) < 0:
            raise ConfigurationError("retries must be non-negative")
        if float(backoff) < 0:
            raise ConfigurationError("backoff must be non-negative")
        self.store = store if isinstance(store, ResultStore) else ResultStore(store)
        self.concurrency = int(concurrency)
        self.retries = int(retries)
        self.backoff = float(backoff)
        self.job_fn: JobFn = job_fn if job_fn is not None else execute_job
        self.progress = progress

    def _emit(self, event: str, job: CampaignJob, **extra: Any) -> None:
        """Deliver one progress event to the callback, if any."""
        if self.progress is not None:
            self.progress({"event": event, **job.describe(), **extra})

    async def run(
        self, spec: CampaignSpec, shard_index: int = 0, shard_count: int = 1
    ) -> CampaignReport:
        """Run one campaign (shard) to completion and report every outcome."""
        return await self.run_jobs(spec, spec.jobs(shard_index, shard_count))

    async def run_jobs(
        self, spec: CampaignSpec, jobs: Sequence[CampaignJob]
    ) -> CampaignReport:
        """Run an explicit job list (already expanded/sharded) to completion."""
        started = time.perf_counter()
        semaphore = asyncio.Semaphore(self.concurrency)
        outcomes = await asyncio.gather(
            *(self._run_job(job, semaphore) for job in jobs)
        )
        return CampaignReport(
            spec=spec,
            outcomes=list(outcomes),
            store_stats=self.store.stats.as_dict(),
            elapsed_seconds=time.perf_counter() - started,
        )

    async def _run_job(self, job: CampaignJob, semaphore: asyncio.Semaphore) -> JobOutcome:
        """Resume-check, execute-with-retries and store one job."""
        job_started = time.perf_counter()
        if self.store.get(job.digest) is not None:
            self._emit("cached", job)
            return JobOutcome(
                job=job,
                status="cached",
                attempts=0,
                elapsed_seconds=time.perf_counter() - job_started,
            )

        async with semaphore:
            self._emit("started", job)
            attempts = 0
            last_error = ""
            while attempts <= self.retries:
                attempts += 1
                try:
                    result = await asyncio.to_thread(self.job_fn, job)
                except Exception as error:
                    last_error = "".join(
                        traceback.format_exception_only(type(error), error)
                    ).strip()
                    if attempts <= self.retries:
                        delay = self.backoff * (2 ** (attempts - 1))
                        self._emit(
                            "retry", job, attempt=attempts,
                            error=last_error, delay_seconds=delay,
                        )
                        if delay:
                            await asyncio.sleep(delay)
                    continue
                self.store.put(job.digest, result)
                self._emit("completed", job, attempts=attempts)
                return JobOutcome(
                    job=job,
                    status="completed",
                    attempts=attempts,
                    elapsed_seconds=time.perf_counter() - job_started,
                )
        self._emit("failed", job, attempts=attempts, error=last_error)
        return JobOutcome(
            job=job,
            status="failed",
            attempts=attempts,
            error=last_error,
            elapsed_seconds=time.perf_counter() - job_started,
        )

    def run_sync(
        self,
        spec: CampaignSpec,
        shard_index: int = 0,
        shard_count: int = 1,
    ) -> CampaignReport:
        """Blocking wrapper: run a campaign on a private event loop."""
        return asyncio.run(self.run(spec, shard_index, shard_count))
