"""How much work one reception costs: each per-waveform step runs once.

``ReceivePipeline.receive`` demodulates a clean region once (the pilot
search and every candidate frame slice those bits), and a collision once
per direction (the clean head, then the reversed clean tail); the
interference decoder demodulates nothing.  The detector thresholds are
converted from dB when the pipeline is built, not per reception.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

import repro.signal.energy
import repro.utils.db
from repro.anc.pipeline import ReceiveOutcome
from repro.modulation.msk import MSKDemodulator

_spec = importlib.util.spec_from_file_location(
    "receive_budget_grid", Path(__file__).with_name("test_receive_grid.py")
)
receive_grid = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(receive_grid)

CASES = [
    (kind, snr_db, seed)
    for kind in ("clean", "clean_payload_flip", "anc_forward", "anc_backward", "unknown_pair")
    for snr_db in receive_grid.SNRS_DB
    for seed in receive_grid.SEEDS
]


@pytest.fixture
def counts(monkeypatch):
    """Calls of ``demodulate`` and ``db_to_power_ratio`` during the test."""
    tally = {"demodulate": 0, "db_to_power_ratio": 0}
    demodulate = MSKDemodulator.demodulate

    def counted_demodulate(self, signal):
        tally["demodulate"] += 1
        return demodulate(self, signal)

    def counted_db(db):
        tally["db_to_power_ratio"] += 1
        return repro.utils.db.db_to_power_ratio(db)

    monkeypatch.setattr(MSKDemodulator, "demodulate", counted_demodulate)
    monkeypatch.setattr(repro.signal.energy, "db_to_power_ratio", counted_db)
    return tally


@pytest.mark.parametrize("kind, snr_db, seed", CASES)
def test_one_pass_per_reception(counts, kind, snr_db, seed):
    pipeline, waveform = receive_grid.reception(kind, snr_db, seed)
    counts["db_to_power_ratio"] = 0
    result = pipeline.receive(waveform)
    assert counts["db_to_power_ratio"] == 0
    if result.outcome is ReceiveOutcome.CLEAN_DECODED:
        assert counts["demodulate"] == 1
    elif result.outcome is ReceiveOutcome.ANC_DECODED:
        assert counts["demodulate"] <= 2


def test_cases_reach_both_decoded_outcomes():
    outcomes = {
        receive_grid.receive_record(*case)["outcome"] for case in CASES
    }
    assert {"clean_decoded", "anc_decoded"} <= outcomes
