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
* :mod:`repro.campaign.runner` — :class:`CampaignRunner` runs the jobs
  one after another, each executed once on one shared
  :class:`~repro.experiments.engine.ExperimentEngine` whose process pool
  is the package's only parallelism.

See ``docs/CAMPAIGNS.md`` for the user-facing guide.
"""

from repro.campaign.runner import CampaignReport, CampaignRunner, JobOutcome
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
    "job_digest",
]
