#!/usr/bin/env python
"""Campaign sweep with kill/resume: many configs, zero recomputation.

Declares a sweep grid over the Alice-Bob experiment as a
:class:`repro.campaign.spec.CampaignSpec`, runs it against a
content-addressed result store, then *kills the campaign mid-run*
(SIGTERM to a worker subprocess) and re-runs it — demonstrating that the
second run serves every already-completed job from the store and
computes only the gap.  The narrated walkthrough of this script lives in
``docs/CAMPAIGNS.md``.

Run with::

    python examples/campaign_sweep.py [jobs]

``jobs`` sizes the grid (default 96, a few seconds; 1000 reproduces the
thousand-config acceptance scenario and takes a minute or two).
"""

import os
import signal
import subprocess
import sys
import tempfile
import time

from repro.campaign.spec import CampaignSpec
from repro.campaign.store import ResultStore
from repro.campaign.runner import CampaignRunner


def build_spec(jobs: int) -> CampaignSpec:
    """A seed x SNR grid over the quick Alice-Bob experiment."""
    snr_points = [[20.0 + i, 20.0 + i] for i in range(4)]
    seeds = list(range(1, (jobs + len(snr_points) - 1) // len(snr_points) + 1))
    return CampaignSpec(
        experiment="alice-bob",
        base={"runs": 1, "packets_per_run": 2, "payload_bits": 64},
        axes={"seed": seeds, "snr_db_range": snr_points},
        quick=True,
        name="kill-resume-demo",
    )


def run_and_kill(spec_json: str, store_dir: str, after_seconds: float) -> None:
    """Start `campaign run` as a subprocess and SIGTERM it mid-flight."""
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as handle:
        handle.write(spec_json)
        spec_path = handle.name
    try:
        worker = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "campaign", "run",
                spec_path, "--store", store_dir, "--concurrency", "4",
            ],
            env={**os.environ, "PYTHONPATH": "src"},
        )
        time.sleep(after_seconds)
        if worker.poll() is None:
            worker.send_signal(signal.SIGTERM)
            print(f"  ... killed the worker after {after_seconds:.1f}s")
        worker.wait(timeout=30)
    finally:
        os.unlink(spec_path)


def main() -> None:
    jobs = int(sys.argv[1]) if len(sys.argv) > 1 else 96
    spec = build_spec(jobs)
    print(f"campaign grid: {spec.total_jobs} jobs "
          f"({len(spec.axes['seed'])} seeds x {len(spec.axes['snr_db_range'])} "
          "SNR points), quick scale")

    with tempfile.TemporaryDirectory(prefix="anc-campaign-") as store_dir:
        store = ResultStore(store_dir)

        print("\n[1] first run, killed mid-campaign:")
        run_and_kill(spec.to_json(), store_dir, after_seconds=1.5)
        survived = len(store.digests())
        print(f"  store holds {survived}/{spec.total_jobs} completed jobs "
              "(each published atomically before the kill)")

        print("\n[2] re-run of the identical spec (same store):")
        report = CampaignRunner(store=store, concurrency=4).run(spec)
        print(f"  {report.summary()}")
        print(f"  -> {report.cached} jobs served from the store, "
              f"{report.completed} computed (only the gap)")
        assert report.cached + report.completed == spec.total_jobs
        assert report.cached >= survived, "stored jobs must not recompute"

        print("\n[3] third run — everything cached, zero recomputation:")
        verify = CampaignRunner(store=store, concurrency=4).run(spec)
        print(f"  {verify.summary()}")
        assert verify.completed == 0 and verify.cached == spec.total_jobs

    print("\nkill/resume semantics verified: completed jobs are never recomputed.")


if __name__ == "__main__":
    main()
