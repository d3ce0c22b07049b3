"""Campaign orchestration: declarative sweep grids over the repro facade.

This package turns "run one experiment" (:mod:`repro.api`) into "run a
thousand of them, deterministically and resumably":

* :mod:`repro.campaign.spec` — :class:`CampaignSpec` declares a base
  config plus axes of parameter values; grid expansion is deterministic
  (sorted axes, last axis fastest) and every job carries a stable
  content digest.
* :mod:`repro.campaign.store` — :class:`ResultStore`, the
  ``anc-repro.result/1`` codec over the package's one content-addressed
  store (:mod:`repro.store`); safe under concurrent workers, and the
  resume mechanism (stored digest → job skipped).
* :mod:`repro.campaign.runner` — :class:`CampaignRunner`, the asyncio
  job queue: bounded concurrency and per-job retry with exponential
  backoff.

See ``docs/CAMPAIGNS.md`` for the user-facing guide.
"""

from repro.campaign.runner import CampaignReport, CampaignRunner, JobOutcome, execute_job
from repro.campaign.spec import (
    CAMPAIGN_SCHEMA,
    CampaignJob,
    CampaignSpec,
    audit_snapshot_roundtrip,
    job_digest,
)
from repro.campaign.store import ResultStore

__all__ = [
    "CAMPAIGN_SCHEMA",
    "CampaignJob",
    "CampaignReport",
    "CampaignRunner",
    "CampaignSpec",
    "JobOutcome",
    "ResultStore",
    "audit_snapshot_roundtrip",
    "execute_job",
    "job_digest",
]
